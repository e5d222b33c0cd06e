"""Declarative specs: the shared codec and ``ExperimentSpec``.

:class:`SpecBase` is the one JSON codec of every frozen spec class
(:class:`ExperimentSpec` here, ``CampaignSpec`` and
``MixedCampaignSpec`` in :mod:`repro.campaign.spec`, ``LifetimeSpec``
in :mod:`repro.lifetime.spec`, and the fault plan classes in
:mod:`repro.faults.plan`). Its ``to_dict``/``from_dict`` walk
``dataclasses.fields`` under one :data:`SPEC_VERSION`; a wrongly typed
JSON value is a :class:`~repro.errors.ConfigError` naming its field,
and an absent field keeps its dataclass default, so every default is
defined once, on its class. :func:`read_spec_file` is the one reader
of spec files. The four job-spec classes also take :class:`JobSpec`,
which derives ``fingerprints()`` from their ``jobs()``.

An :class:`ExperimentSpec` is the canonical, frozen description of one
evaluation cell — scheme key plus scheme params, the SSD under test,
the PEC wear setpoint, a workload reference, the request count, and
the campaign seed. It is the one currency every consumer trades in:

* ``spec.resolve()`` yields a ready-to-run
  :class:`~repro.harness.runner.CellJob` whose seed derivation and
  fingerprint are *identical* to what :class:`GridRunner` plans for
  the same campaign, so CLI runs, spec files, and grid campaigns all
  share one result cache;
* ``spec.to_dict()`` / ``ExperimentSpec.from_dict`` round-trip through
  JSON without losing fingerprint identity — the dict is the on-disk
  spec-file format;
* the constructor is the one way to build one, and
  ``dataclasses.replace`` the one way to vary it::

      spec = ExperimentSpec(scheme="aero", pec=2500, workload="ali.A",
                            requests=5000)
      report = dataclasses.replace(spec, pec=500).run()

Scheme keys and workload refs resolve through the plugin registries,
so specs describe third-party schemes/workloads with no core changes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.config import GcSpec, SchedulerSpec, SsdSpec
from repro.errors import ConfigError
from repro.experiments.registry import SCHEMES, WORKLOADS
from repro.harness.runner import CellJob, GridRunner
from repro.kernels import check_engine
from repro.nand.chip_types import profile_by_name
from repro.nand.geometry import NandGeometry
from repro.rng import DEFAULT_SEED, derive

#: Version of every spec dict layout; bump when one changes incompatibly.
SPEC_VERSION = 1

#: JSON types each scalar field annotation accepts.
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


def _fits(type_name: str, value: Any) -> bool:
    """Whether a JSON value fits a scalar annotation (a bool is no number)."""
    return isinstance(value, _JSON_TYPES[type_name]) and (
        type_name == "bool" or not isinstance(value, bool)
    )


def _decode_field(label: str, name: str, annotation: str, value: Any) -> Any:
    """Type-check one JSON value against its field's annotation string.

    Covers the annotations plain-JSON spec fields use: ``str``,
    ``int``, ``float``, ``bool``, ``Optional[...]`` of one of them, and
    ``Tuple[X, ...]`` (a JSON list). Lists become tuples and integers
    in float fields become floats.
    """
    expected = annotation
    if annotation.startswith("Optional["):
        if value is None:
            return None
        annotation = annotation[len("Optional["):-1]
        expected = f"{annotation} or null"
    if annotation.startswith("Tuple["):
        item = annotation[len("Tuple["):-len(", ...]")]
        if isinstance(value, list) and all(_fits(item, v) for v in value):
            return tuple(value)
        expected = f"a list of {item}"
    elif _fits(annotation, value):
        return float(value) if annotation == "float" else value
    raise ConfigError(
        f"{label} field {name!r} must be {expected}, got {value!r}"
    )


class SpecBase:
    """The JSON codec shared by the frozen spec dataclasses.

    ``to_dict`` writes ``version``, the class's ``family`` (when it has
    one) and every field; ``from_dict`` checks the version, the family
    and unknown keys, type-checks each value against its field's
    annotation, and leaves absent fields to their dataclass defaults.
    Fields plain JSON cannot carry name an ``(encode, decode)`` pair in
    ``codecs``. The type checks run here, where JSON comes in, and not
    in ``__post_init__``, so building a spec in Python stays cheap.
    """

    #: Subject of error messages, e.g. ``"experiment spec"``.
    label = "spec"
    #: The ``family`` key the dict carries; ``None`` writes none.
    family: Optional[str] = None
    #: ``{field: (encode, decode)}`` for fields plain JSON cannot carry.
    codecs: Mapping[str, Tuple[Callable, Callable]] = {}

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; ``from_dict`` inverts it fingerprint-stably."""
        data: Dict[str, Any] = {"version": SPEC_VERSION}
        if self.family is not None:
            data["family"] = self.family
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name in self.codecs:
                value = self.codecs[spec_field.name][0](value)
            elif isinstance(value, tuple):
                value = list(value)
            data[spec_field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Any:
        """Rebuild a spec from :meth:`to_dict` output or hand-written JSON.

        Every field is optional and falls back to its dataclass
        default, so minimal spec files stay minimal.
        """
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"{cls.label} must be a JSON object, got {type(data).__name__}"
            )
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ConfigError(
                f"unsupported {cls.label} version {version!r} "
                f"(this library reads version {SPEC_VERSION})"
            )
        annotations = {f.name: f.type for f in fields(cls)}
        known = {"version", *annotations}
        if cls.family is not None:
            known.add("family")
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown {cls.label} fields {unknown}; "
                f"known: {', '.join(sorted(known))}"
            )
        family = data.get("family", cls.family)
        if family != cls.family:
            raise ConfigError(
                f"{cls.label} needs family {cls.family!r}, got {family!r}"
            )
        values = {}
        for name, value in data.items():
            if name in cls.codecs:
                values[name] = cls.codecs[name][1](value)
            elif name in annotations:
                values[name] = _decode_field(
                    cls.label, name, annotations[name], value
                )
        return cls(**values)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> Any:
        """Parse one spec from a JSON string."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"invalid {cls.label} JSON: {exc}") from exc
        return cls.from_dict(data)


class JobSpec(SpecBase):
    """A spec that plans jobs: the four job-spec classes, not the fault
    plan classes, which share only the codec."""

    def jobs(self) -> List[Any]:
        """The work orders this spec describes, in canonical order."""
        raise NotImplementedError

    def fingerprints(self) -> List[str]:
        """Cache keys of every job, in job order."""
        return [job.fingerprint for job in self.jobs()]


def read_spec_file(path: Union[str, Path], wrapper: str) -> Any:
    """Read and parse a JSON spec file, unwrapping ``{wrapper: ...}``.

    Unreadable files and invalid JSON are :class:`ConfigError`\\ s
    naming the path; the caller parses the unwrapped value.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read spec file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid JSON in spec file {path}: {exc}") from exc
    if isinstance(data, Mapping) and wrapper in data:
        data = data[wrapper]
    return data


def _canonical_param(key: str, value: Any) -> Any:
    """Normalize a scheme-param value to its JSON-stable canonical form.

    The spec's fingerprint hashes the params' ``repr``, and specs must
    survive a JSON round-trip without changing fingerprint — so values
    are restricted to what JSON represents exactly. Tuples are
    canonicalized to lists (what they come back as); anything JSON
    cannot carry (sets, objects) is rejected up front rather than
    silently missing its own cache entry after a save/load cycle.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical_param(key, item) for item in value]
    if isinstance(value, Mapping):
        return {
            str(k): _canonical_param(key, v) for k, v in sorted(value.items())
        }
    raise ConfigError(
        f"scheme param {key!r} has non-JSON-serializable value "
        f"{value!r} ({type(value).__name__}); use null/bool/number/"
        "string/list/object values"
    )


def _params_from_json(value: Any) -> Any:
    """Decode ``scheme_params``: a JSON object (``null`` means none)."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(
            f"experiment spec field 'scheme_params' must be an object, "
            f"got {value!r}"
        )
    return value


def _ssd_to_dict(spec: Optional[SsdSpec]) -> Optional[Dict[str, Any]]:
    """JSON-safe dict of an :class:`SsdSpec` (built-in chip profiles only)."""
    if spec is None:
        return None
    try:
        builtin = profile_by_name(spec.profile.name)
    except ConfigError:
        raise ConfigError(
            f"chip profile {spec.profile.name!r} is not a built-in profile; "
            "custom profiles cannot be serialized to a spec dict"
        ) from None
    if builtin != spec.profile:
        raise ConfigError(
            f"chip profile {spec.profile.name!r} shadows a built-in "
            "profile with different values; custom profiles cannot be "
            "serialized to a spec dict"
        )
    return {
        "geometry": asdict(spec.geometry),
        "profile": spec.profile.name,
        "overprovisioning": spec.overprovisioning,
        "channel_mb_per_s": spec.channel_mb_per_s,
        "controller_overhead_us": spec.controller_overhead_us,
        "scheduler": asdict(spec.scheduler),
        "gc": asdict(spec.gc),
        "seed": spec.seed,
    }


def _ssd_from_dict(data: Optional[Mapping[str, Any]]) -> Optional[SsdSpec]:
    """Rebuild an :class:`SsdSpec` from :func:`_ssd_to_dict` output."""
    if data is None:
        return None
    try:
        return SsdSpec(
            geometry=NandGeometry(**data["geometry"]),
            profile=profile_by_name(data["profile"]),
            overprovisioning=data["overprovisioning"],
            channel_mb_per_s=data["channel_mb_per_s"],
            controller_overhead_us=data["controller_overhead_us"],
            scheduler=SchedulerSpec(**data["scheduler"]),
            gc=GcSpec(**data["gc"]),
            seed=data["seed"],
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed ssd spec dict: {exc}") from exc


#: JSON codec of the ``ssd`` field (``null`` is the default small SSD).
SSD_CODEC = (_ssd_to_dict, _ssd_from_dict)


@dataclass(frozen=True)
class ExperimentSpec(JobSpec):
    """Frozen description of one (scheme, PEC, workload) experiment.

    ``ssd=None`` means "the deterministic small test SSD seeded from
    the derived cell seed" — exactly what :class:`GridRunner` builds
    when no spec is passed, keeping fingerprints aligned.
    ``scheme_params`` is stored as sorted ``(key, value)`` pairs with
    values canonicalized to their JSON shape (tuples become lists), so
    the repr/fingerprint survives a save/load cycle; pass a plain
    dict, it is normalized. Specs with only scalar param values are
    hashable; container-valued params (lists/dicts) are not.
    """

    scheme: str = "aero"
    pec: int = 2500
    workload: str = "ali.A"
    requests: int = 1200
    seed: int = DEFAULT_SEED
    ssd: Optional[SsdSpec] = None
    erase_suspension: bool = True
    scheme_params: Tuple[Tuple[str, Any], ...] = ()
    #: Grid-cell execution engine; never part of the fingerprint because
    #: kernel and object replays are report-identical (pinned by tests).
    engine: str = "auto"

    label = "experiment spec"
    codecs = {"ssd": SSD_CODEC, "scheme_params": (dict, _params_from_json)}

    def __post_init__(self) -> None:
        params = self.scheme_params
        if isinstance(params, Mapping):
            params = params.items()
        # A null param means "use the scheme's default" — drop it so a
        # spec file spelling {"rber_requirement": null} fingerprints
        # identically to the parameterless experiment it describes.
        object.__setattr__(
            self,
            "scheme_params",
            tuple(
                sorted(
                    (str(key), _canonical_param(key, value))
                    for key, value in params
                    if value is not None
                )
            ),
        )
        if self.requests <= 0:
            raise ConfigError("requests must be positive")
        if self.pec < 0:
            raise ConfigError("pec setpoint must be >= 0")
        check_engine(self.engine)

    # --- derived ------------------------------------------------------------

    @property
    def params(self) -> Dict[str, Any]:
        """The scheme params as a plain dict."""
        return dict(self.scheme_params)

    @property
    def cell_seed(self) -> int:
        """Per-cell seed, derived exactly like ``GridRunner.plan``."""
        return derive(self.seed, "grid", self.pec, self.workload)

    def resolved_ssd(self) -> SsdSpec:
        """The SSD actually built: explicit spec or the default small one."""
        if self.ssd is not None:
            return self.ssd
        return SsdSpec.small_test(seed=self.cell_seed)

    # --- resolution ---------------------------------------------------------

    def validate(self) -> "ExperimentSpec":
        """Check scheme and workload against the registries; return self."""
        SCHEMES.get(self.scheme)
        WORKLOADS.resolve(self.workload)
        return self

    def resolve(self) -> CellJob:
        """Yield the ready-to-run cell job this spec describes.

        The job's seed, SSD, and fingerprint match what
        ``GridRunner.plan`` produces for an equivalent campaign, so
        results cached by either path serve the other.
        """
        self.validate()
        return CellJob(
            scheme=self.scheme,
            pec=self.pec,
            workload=self.workload,
            spec=self.resolved_ssd(),
            requests=self.requests,
            erase_suspension=self.erase_suspension,
            seed=self.cell_seed,
            scheme_params=self.scheme_params,
            engine=self.engine,
        )

    def jobs(self) -> List[CellJob]:
        """The one cell job this spec describes."""
        return [self.resolve()]

    @property
    def fingerprint(self) -> str:
        """The cache key of this experiment's result."""
        return self.resolve().fingerprint

    def run(self, cache: Any = None):
        """Run this one experiment; returns its PerfReport. ``cache``
        is a result store or a store directory path."""
        [report] = GridRunner(cache=cache).execute_jobs(self.jobs())
        return report


def load_spec_file(path: Union[str, Path]) -> List[ExperimentSpec]:
    """Load one spec or a list of specs from a JSON file.

    Accepts a single spec object, a JSON array of them, or
    ``{"experiments": [...]}``.
    """
    data = read_spec_file(path, "experiments")
    if isinstance(data, Mapping):
        data = [data]
    if not isinstance(data, list) or not data:
        raise ConfigError(
            f"spec file {path} must hold a spec object or a non-empty list"
        )
    return [ExperimentSpec.from_dict(item) for item in data]
