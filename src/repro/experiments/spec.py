"""Declarative experiment descriptions: ``ExperimentSpec`` and builder.

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
  JSON without losing fingerprint identity — the dict is the canonical
  cache-fingerprint input and the on-disk spec-file format;
* :class:`Experiment` is the fluent builder over it::

      report = (Experiment.aero()
                .at_pec(2500)
                .workload("ali.A")
                .requests(5000)
                .run())

Scheme keys and workload refs resolve through the plugin registries,
so specs describe third-party schemes/workloads with no core changes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.config import GcSpec, SchedulerSpec, SsdSpec
from repro.errors import ConfigError
from repro.experiments.registry import SCHEMES, WORKLOADS
from repro.harness.runner import CellJob
from repro.kernels import ENGINES
from repro.nand.chip_types import profile_by_name
from repro.nand.geometry import NandGeometry
from repro.rng import derive

#: Bump when the spec dict layout changes incompatibly.
SPEC_VERSION = 1

_DEFAULT_SEED = 0xAE20


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


def _ssd_to_dict(spec: SsdSpec) -> Dict[str, Any]:
    """JSON-safe dict of an :class:`SsdSpec` (built-in chip profiles only)."""
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


def _ssd_from_dict(data: Mapping[str, Any]) -> SsdSpec:
    """Rebuild an :class:`SsdSpec` from :func:`_ssd_to_dict` output."""
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


@dataclass(frozen=True)
class ExperimentSpec:
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
    seed: int = _DEFAULT_SEED
    ssd: Optional[SsdSpec] = None
    erase_suspension: bool = True
    scheme_params: Tuple[Tuple[str, Any], ...] = ()
    #: Grid-cell execution engine; never part of the fingerprint because
    #: kernel and object replays are report-identical (pinned by tests).
    engine: str = "auto"

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
        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; choose from "
                f"{', '.join(ENGINES)}"
            )

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

    @property
    def fingerprint(self) -> str:
        """The cache key of this experiment's result."""
        return self.resolve().fingerprint

    def run(self, cache: Any = None):
        """Run this one experiment; returns its PerfReport. ``cache``
        is a result store or a store directory path."""
        from repro.experiments.runner import run_experiments

        return run_experiments([self], cache=cache).reports[0]

    # --- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; ``from_dict`` inverts it fingerprint-stably."""
        return {
            "version": SPEC_VERSION,
            "scheme": self.scheme,
            "scheme_params": self.params,
            "pec": self.pec,
            "workload": self.workload,
            "requests": self.requests,
            "seed": self.seed,
            "erase_suspension": self.erase_suspension,
            "ssd": None if self.ssd is None else _ssd_to_dict(self.ssd),
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON).

        Every field except ``scheme`` is optional and falls back to the
        dataclass default, so minimal spec files stay minimal.
        """
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"experiment spec must be a JSON object, got {type(data).__name__}"
            )
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ConfigError(
                f"unsupported experiment spec version {version!r} "
                f"(this library reads version {SPEC_VERSION})"
            )
        known = {
            "version", "scheme", "scheme_params", "pec", "workload",
            "requests", "seed", "erase_suspension", "ssd", "engine",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown experiment spec fields {unknown}; "
                f"known: {', '.join(sorted(known))}"
            )
        ssd = data.get("ssd")
        return cls(
            scheme=data.get("scheme", "aero"),
            scheme_params=data.get("scheme_params", {}) or {},
            pec=data.get("pec", 2500),
            workload=data.get("workload", "ali.A"),
            requests=data.get("requests", 1200),
            seed=data.get("seed", _DEFAULT_SEED),
            erase_suspension=data.get("erase_suspension", True),
            ssd=None if ssd is None else _ssd_from_dict(ssd),
            engine=data.get("engine", "auto"),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse one spec from a JSON string."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"invalid spec JSON: {exc}") from exc
        return cls.from_dict(data)


def load_spec_file(path: Union[str, Path]) -> List[ExperimentSpec]:
    """Load one spec or a list of specs from a JSON file.

    Accepts a single spec object, a JSON array of them, or
    ``{"experiments": [...]}``.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read spec file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid JSON in spec file {path}: {exc}") from exc
    if isinstance(data, Mapping) and "experiments" in data:
        data = data["experiments"]
    if isinstance(data, Mapping):
        data = [data]
    if not isinstance(data, list) or not data:
        raise ConfigError(
            f"spec file {path} must hold a spec object or a non-empty list"
        )
    return [ExperimentSpec.from_dict(item) for item in data]


class _ExperimentMeta(type):
    """Exposes every registered scheme key as a builder entry point.

    ``Experiment.aero(...)``, ``Experiment.baseline()``, and any plugin
    key registered with :data:`SCHEMES` — resolved dynamically so new
    schemes get builder sugar for free.
    """

    def __getattr__(cls, name: str):
        if not name.startswith("_") and name in SCHEMES:
            def _start(**scheme_params: Any):
                return cls.scheme(name, **scheme_params)

            _start.__name__ = name
            _start.__doc__ = f"Start an experiment using the {name!r} scheme."
            return _start
        raise AttributeError(
            f"type 'Experiment' has no attribute {name!r} "
            f"(registered schemes: {', '.join(SCHEMES.keys())})"
        )


@dataclass(frozen=True)
class Experiment(metaclass=_ExperimentMeta):
    """Small fluent builder over :class:`ExperimentSpec`.

    Every step returns a new immutable builder; ``spec()`` yields the
    finished :class:`ExperimentSpec` and ``run()`` executes it. The
    builder is sugar only — ``Experiment.aero().at_pec(2500).spec()``
    equals ``ExperimentSpec(scheme="aero", pec=2500)`` exactly.
    """

    _spec: ExperimentSpec = ExperimentSpec()

    @classmethod
    def scheme(cls, key: str, **scheme_params: Any) -> "Experiment":
        """Start a builder for scheme ``key`` (validated immediately)."""
        SCHEMES.get(key)
        return cls(ExperimentSpec(scheme=key, scheme_params=scheme_params))

    @classmethod
    def from_spec(cls, spec: ExperimentSpec) -> "Experiment":
        """Wrap an existing spec for further tweaking."""
        return cls(spec)

    def _evolve(self, **changes: Any) -> "Experiment":
        return Experiment(replace(self._spec, **changes))

    def at_pec(self, pec: int) -> "Experiment":
        """Set the P/E-cycle wear setpoint."""
        return self._evolve(pec=pec)

    def workload(self, ref: str) -> "Experiment":
        """Set the workload by registry abbreviation (validated)."""
        WORKLOADS.resolve(ref)
        return self._evolve(workload=ref)

    def requests(self, count: int) -> "Experiment":
        """Set how many trace requests to replay."""
        return self._evolve(requests=count)

    def seed(self, seed: int) -> "Experiment":
        """Set the campaign seed."""
        return self._evolve(seed=seed)

    def ssd(self, spec: SsdSpec) -> "Experiment":
        """Pin an explicit SSD configuration."""
        return self._evolve(ssd=spec)

    def suspension(self, enabled: bool = True) -> "Experiment":
        """Enable/disable erase suspension in the scheduler."""
        return self._evolve(erase_suspension=enabled)

    def engine(self, engine: str) -> "Experiment":
        """Select the cell engine (``auto``/``object``/``kernel``)."""
        return self._evolve(engine=engine)

    def params(self, **scheme_params: Any) -> "Experiment":
        """Merge extra scheme params into the spec."""
        merged = {**self._spec.params, **scheme_params}
        return self._evolve(scheme_params=merged)

    def spec(self) -> ExperimentSpec:
        """The finished, validated experiment spec."""
        return self._spec.validate()

    def run(self, cache: Any = None):
        """Build the spec and run it; returns its PerfReport."""
        return self.spec().run(cache=cache)
