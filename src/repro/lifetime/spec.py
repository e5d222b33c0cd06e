"""Declarative lifetime campaigns: ``LifetimeSpec`` -> ``LifetimeJob``.

The lifetime family (Figure 13 scheme comparison, Figure 16/17
sensitivity sweeps) gets the same declarative surface the grid-cell
replay family has had since the ``ExperimentSpec`` refactor: a frozen,
registry-validated spec that round-trips through JSON with a stable
fingerprint per job, so lifetime sweeps cache, crash-resume, and ride
the campaign orchestrator exactly like replay grids.

Fingerprints pin the *seed trajectory*, not just the seed: the
per-block seeds come from :func:`repro.rng.derive` (changed
deliberately in the kernels PR), and the fingerprint folds in a digest
of every derived stream a curve consumes — per-block seeds, the
object-path scheme RNG, and the kernel-path RNG. If the derivation
scheme ever changes again, every cached curve misses instead of
silently serving stale trajectories.

Unlike grid cells — where the kernel replay is bit-identical to the
object path and the fingerprint deliberately excludes the engine —
AERO's lifetime kernels match the object path only statistically, so
the lifetime fingerprint includes the *resolved* engine (``auto``
canonicalizes to the path actually taken, so ``auto`` and an explicit
``kernel`` share one cache entry).

:class:`LifetimeSpec` takes its JSON codec (``to_dict``/``from_dict``,
version, family and type checks) and ``fingerprints()`` from
:class:`~repro.experiments.spec.JobSpec`, so a wrongly typed field
such as ``"block_count": 8.7`` is an error, not a silent coercion;
:func:`load_lifetime_file` reads spec files through the shared
:func:`~repro.experiments.spec.read_spec_file`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError
from repro.experiments.registry import SCHEMES
from repro.experiments.spec import JobSpec, read_spec_file
from repro.harness.cache import CACHE_VERSION
from repro.kernels import check_engine, resolve_kernel
from repro.lifetime.comparison import SchemeComparison
from repro.lifetime.simulator import LifetimeCurve, LifetimeSimulator
from repro.nand.chip_types import profile_by_name
from repro.rng import DEFAULT_SEED, derive
from repro.schemes import SCHEME_KEYS

#: Job/spec family discriminator shared with the campaign layer.
LIFETIME_FAMILY = "lifetime"


@lru_cache(maxsize=None)
def _resolved_engine(scheme: str, profile: str, engine: str) -> str:
    """Canonicalize ``auto`` to the path a curve actually takes.

    ``auto`` resolves to ``kernel`` when the scheme provides a batch
    kernel and ``object`` otherwise, so a spec run with ``auto`` and
    one run with the explicit concrete engine share cache entries.
    Unknown engines and ``kernel`` for kernel-less schemes fail fast
    here, before any cycling.
    """
    if check_engine(engine) == "object":
        return "object"
    instance = SCHEMES.create(scheme, profile_by_name(profile))
    if resolve_kernel(instance, engine, scheme) is None:
        return "object"
    return "kernel"


@lru_cache(maxsize=1024, typed=True)
def _seed_trajectory(seed: int, scheme: str, block_count: int) -> str:
    """Digest of every derived stream a curve consumes: the object-path
    scheme RNG, the kernel-path RNG and each per-block seed (see the
    module docstring). Memoized, because a fingerprint is read on every
    store lookup and this is ~130 SHA-256 calls per curve; bounded, as
    a long sweep's seeds would otherwise accumulate."""
    trajectory = hashlib.sha256()
    trajectory.update(str(derive(seed, "lifetime", scheme)).encode())
    trajectory.update(str(derive(seed, "lifetime", scheme, "kernel")).encode())
    for index in range(block_count):
        trajectory.update(b"/")
        trajectory.update(str(derive(seed, "lifetime-block", index)).encode())
    return trajectory.hexdigest()


@dataclass(frozen=True)
class LifetimeJob:
    """Picklable work order for one (scheme, profile) lifetime curve.

    The lifetime-family counterpart of
    :class:`~repro.harness.runner.CellJob`: carries everything a
    worker needs to cycle one block set to failure, fingerprints
    stably, and executes to a :class:`LifetimeCurve`. ``profile`` is a
    built-in chip profile *name* (resolved through
    :func:`repro.nand.chip_types.profile_by_name`) so jobs stay small
    on the wire and specs stay registry-validated.
    """

    scheme: str
    profile: str
    block_count: int = 48
    step: int = 50
    seed: int = DEFAULT_SEED
    max_pec: int = 12000
    requirement: Optional[int] = None
    mispredict_rate: float = 0.0
    engine: str = "auto"

    #: Family discriminator for the campaign layer and result stores.
    family = LIFETIME_FAMILY

    @property
    def resolved_engine(self) -> str:
        """The concrete path (``kernel``/``object``) this job takes."""
        return _resolved_engine(self.scheme, self.profile, self.engine)

    @property
    def fingerprint(self) -> str:
        """Stable cache key over everything the curve depends on.

        Includes a digest of the full derived-seed trajectory (see
        module docstring) and the resolved engine — aero/aero_cons
        kernel curves match the object path only statistically, so the
        two paths must not share cache entries.
        """
        trajectory = _seed_trajectory(self.seed, self.scheme, self.block_count)
        lines = [
            f"family={LIFETIME_FAMILY}",
            f"version={CACHE_VERSION}",
            f"scheme={self.scheme}",
            f"profile={self.profile}",
            f"block_count={self.block_count}",
            f"step={self.step}",
            f"seed={self.seed}",
            f"max_pec={self.max_pec}",
            f"requirement={self.requirement!r}",
            f"mispredict_rate={float(self.mispredict_rate)!r}",
            f"engine={self.resolved_engine}",
            f"seed_trajectory={trajectory}",
        ]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def execute(self) -> LifetimeCurve:
        """Cycle the block set to failure (pure function of the job)."""
        simulator = LifetimeSimulator(
            profile_by_name(self.profile),
            self.scheme,
            block_count=self.block_count,
            step=self.step,
            seed=self.seed,
            mispredict_rate=self.mispredict_rate,
            requirement=self.requirement,
            engine=self.engine,
        )
        return simulator.run(max_pec=self.max_pec)

    def store_meta(self) -> Dict[str, Any]:
        """Human-readable provenance stored alongside the curve."""
        meta: Dict[str, Any] = {
            "family": LIFETIME_FAMILY,
            "scheme": self.scheme,
            "profile": self.profile,
            "block_count": self.block_count,
            "step": self.step,
            "seed": self.seed,
            "max_pec": self.max_pec,
        }
        if self.requirement is not None:
            meta["requirement"] = self.requirement
        if self.mispredict_rate:
            meta["mispredict_rate"] = float(self.mispredict_rate)
        return meta

    def describe(self) -> str:
        """Short label for logs and quarantine records."""
        return f"{self.scheme}@{self.profile}"


@dataclass(frozen=True)
class LifetimeSpec(JobSpec):
    """Frozen, registry-validated description of a lifetime campaign.

    Mirrors :class:`~repro.experiments.spec.ExperimentSpec` /
    :class:`~repro.campaign.spec.CampaignSpec`: the same JSON codec
    (:meth:`to_dict`/:meth:`from_dict`), validation against the scheme
    and chip-profile registries, and resolution to per-(scheme,
    profile) :class:`LifetimeJob` work orders whose fingerprints are
    stable across sessions.
    """

    schemes: Tuple[str, ...] = SCHEME_KEYS
    profile: str = "3D-TLC-48L"
    block_count: int = 48
    step: int = 50
    seed: int = DEFAULT_SEED
    max_pec: int = 12000
    requirement: Optional[int] = None
    mispredict_rate: float = 0.0
    engine: str = "auto"

    label = "lifetime spec"
    #: Family discriminator for the campaign layer.
    family = LIFETIME_FAMILY

    def __post_init__(self) -> None:
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if not self.schemes:
            raise ConfigError("lifetime spec needs at least one scheme")
        if self.block_count <= 0 or self.step <= 0:
            raise ConfigError("block count and step must be positive")
        if self.max_pec <= 0:
            raise ConfigError("max_pec must be positive")
        if self.requirement is not None and self.requirement <= 0:
            raise ConfigError("requirement must be positive")
        if not 0.0 <= float(self.mispredict_rate) <= 1.0:
            raise ConfigError("mispredict_rate must be within [0, 1]")
        check_engine(self.engine)

    @property
    def size(self) -> int:
        return len(self.schemes)

    def validate(self) -> "LifetimeSpec":
        """Resolve every scheme and the profile through the registries."""
        for key in self.schemes:
            SCHEMES.get(key)
        profile_by_name(self.profile)
        return self

    def jobs(self) -> List[LifetimeJob]:
        """One job per scheme, in spec order.

        ``mispredict_rate`` applies to the aero schemes only, matching
        :func:`~repro.lifetime.comparison.compare_schemes` — forced
        mispredictions are an AERO failure mode, and zeroing the rate
        elsewhere lets every sweep point share the non-aero curves.
        """
        self.validate()
        return [
            LifetimeJob(
                scheme=key,
                profile=self.profile,
                block_count=self.block_count,
                step=self.step,
                seed=self.seed,
                max_pec=self.max_pec,
                requirement=self.requirement,
                mispredict_rate=(
                    float(self.mispredict_rate)
                    if key.startswith("aero")
                    else 0.0
                ),
                engine=self.engine,
            )
            for key in self.schemes
        ]

    def comparison(self, curves: Sequence[LifetimeCurve]) -> SchemeComparison:
        """Assemble curves (in :meth:`jobs` order) into a comparison."""
        if len(curves) != len(self.schemes):
            raise ConfigError(
                f"expected {len(self.schemes)} curves, got {len(curves)}"
            )
        return SchemeComparison(
            profile_name=self.profile,
            curves=dict(zip(self.schemes, curves)),
        )


def load_lifetime_file(path: Union[str, Path]) -> LifetimeSpec:
    """Load a lifetime spec from a JSON file.

    Accepts either a bare spec object or the campaign wrapper
    ``{"campaign": {...}}`` (so one file feeds both ``compare
    --spec-file`` and ``campaign run --spec-file``); the family, when present, must
    be ``lifetime``.
    """
    return LifetimeSpec.from_dict(read_spec_file(path, "campaign"))
