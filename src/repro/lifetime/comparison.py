"""Five-scheme lifetime comparison and sensitivity sweeps.

Drives :class:`~repro.lifetime.simulator.LifetimeSimulator` across the
paper's comparison set (Figure 13) and the two sensitivity studies:
misprediction rate (Figure 16, lifetime panel) and RBER requirement
(Figure 17, lifetime panel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.errors import ConfigError
from repro.harness.runner import GridRunner
from repro.lifetime.simulator import LifetimeCurve
from repro.nand.chip_types import ChipProfile, profile_by_name
from repro.schemes import SCHEME_KEYS


@dataclass
class SchemeComparison:
    """Results of one multi-scheme lifetime campaign."""

    profile_name: str
    curves: Dict[str, LifetimeCurve] = field(default_factory=dict)

    def lifetime(self, key: str) -> int:
        curve = self.curves[key]
        if curve.lifetime_pec is None:
            raise ConfigError(f"{key} never crossed the requirement")
        return curve.lifetime_pec

    def improvement(self, key: str, baseline_key: str = "baseline") -> float:
        """Relative lifetime change of ``key`` vs the baseline scheme."""
        return self.curves[key].improvement_over(self.curves[baseline_key])

def _builtin_profile_name(profile: ChipProfile) -> str:
    """The registry name of ``profile``.

    Lifetime jobs carry profiles *by name*, so jobs stay small, specs
    stay registry-validated and fingerprints stay stable. A
    caller-constructed profile that differs from the built-in
    registered under its name has none of that: it is a
    :class:`ConfigError`, and its curves run on
    :class:`~repro.lifetime.simulator.LifetimeSimulator` directly.
    """
    try:
        if profile_by_name(profile.name) == profile:
            return profile.name
    except ConfigError:
        pass
    raise ConfigError(
        f"profile {profile.name!r} is not a built-in chip profile; run "
        "curves for an ad-hoc profile on LifetimeSimulator directly"
    )


def _sweep(points: Dict[Any, Any], cache: Optional[Any]) -> Dict[Any, Any]:
    """Every point's :class:`~repro.lifetime.spec.LifetimeSpec` jobs in
    one :meth:`~repro.harness.runner.GridRunner.execute_jobs` call, so a
    curve shared by several points runs once; one
    :class:`SchemeComparison` per point."""
    curves = iter(
        GridRunner(cache=cache).execute_jobs(
            [job for spec in points.values() for job in spec.jobs()]
        )
    )
    return {
        point: spec.comparison([next(curves) for _ in spec.schemes])
        for point, spec in points.items()
    }


def compare_schemes(
    profile: ChipProfile,
    scheme_keys: Sequence[str] = SCHEME_KEYS,
    block_count: int = 48,
    step: int = 50,
    seed: int = 0xAE20,
    max_pec: int = 12000,
    requirement: Optional[int] = None,
    mispredict_rate: float = 0.0,
    engine: str = "auto",
    cache: Optional[Any] = None,
    runner: Optional[Any] = None,
) -> SchemeComparison:
    """Run the Figure 13 campaign: one block set per erase scheme.

    A thin shim over the unified spec path: the call builds a
    :class:`~repro.lifetime.spec.LifetimeSpec` and runs its jobs
    through :meth:`~repro.harness.runner.GridRunner.execute_jobs`, so
    flag calls, ``compare --spec-file`` files, and orchestrated
    campaigns share one cache entry per (scheme, profile) fingerprint.
    Pass ``cache`` (any :class:`~repro.harness.store.ResultStore`, or a
    store directory path) to persist curves and crash-resume, or a
    pre-built ``runner`` to share its cache and stats across calls —
    each scheme's block set cycles independently, so
    ``runner=GridRunner(workers=n)`` runs schemes concurrently, with
    results identical to the serial run. ``profile`` must be a
    built-in chip profile (see :func:`_builtin_profile_name`).

    Scheme keys resolve through :data:`repro.experiments.SCHEMES`, so
    registered plugin schemes compare alongside the built-ins; unknown
    keys fail fast with the registry's rich error before any cycling.

    ``engine`` selects the per-scheme execution path: ``auto`` (the
    default) cycles each block set through the scheme's vectorized
    batch kernel when it provides one and falls back to per-block
    object erases otherwise; ``object``/``kernel`` force one path
    (``kernel`` raises for schemes without a kernel).
    """
    from repro.lifetime.spec import LifetimeSpec

    spec = LifetimeSpec(
        schemes=tuple(scheme_keys),
        profile=_builtin_profile_name(profile),
        block_count=block_count,
        step=step,
        seed=seed,
        max_pec=max_pec,
        requirement=requirement,
        mispredict_rate=float(mispredict_rate),
        engine=engine,
    )
    if runner is None:
        runner = GridRunner(cache=cache)
    return spec.comparison(runner.execute_jobs(spec.jobs()))


def misprediction_sensitivity(
    profile: ChipProfile,
    rates: Sequence[float] = (0.0, 0.01, 0.05, 0.10, 0.20),
    scheme_keys: Sequence[str] = ("aero_cons", "aero"),
    block_count: int = 32,
    step: int = 50,
    seed: int = 0xAE20,
    engine: str = "auto",
    cache: Optional[Any] = None,
) -> Dict[float, Dict[str, LifetimeCurve]]:
    """Figure 16 (lifetime panel): inject forced mispredictions.

    Each misprediction costs one extra 0.5 ms erase pulse plus a
    verify-read; the paper finds AERO keeps ~40 % of its benefits even
    at a 20 % misprediction rate.

    All sweep points run on the cached
    :class:`~repro.lifetime.spec.LifetimeJob` path in one
    :meth:`~repro.harness.runner.GridRunner.execute_jobs` call: jobs
    whose fingerprints coincide across sweep points (the misprediction
    rate only perturbs the aero schemes, so every non-aero curve is
    shared) execute once and serve every rate; pass ``cache`` (a store
    or a directory path) to also reuse curves across runs.
    """
    from repro.lifetime.spec import LifetimeSpec

    name = _builtin_profile_name(profile)
    points = {
        rate: LifetimeSpec(
            schemes=tuple(scheme_keys),
            profile=name,
            block_count=block_count,
            step=step,
            seed=seed,
            mispredict_rate=float(rate),
            engine=engine,
        )
        for rate in rates
    }
    return {
        rate: comparison.curves
        for rate, comparison in _sweep(points, cache).items()
    }


def requirement_sensitivity(
    profile: ChipProfile,
    requirements: Sequence[int] = (40, 50, 63),
    scheme_keys: Sequence[str] = ("baseline", "aero_cons", "aero"),
    block_count: int = 32,
    step: int = 50,
    seed: int = 0xAE20,
    engine: str = "auto",
    cache: Optional[Any] = None,
) -> Dict[int, SchemeComparison]:
    """Figure 17 (lifetime panel): weaker ECC shrinks the margin.

    The aggressive EPT is rebuilt for each requirement (fewer safe
    skips), and every scheme's lifetime is evaluated against the same
    requirement — Baseline and AEROcons lose lifetime too, exactly as
    the paper notes.

    Every point runs in one
    :meth:`~repro.harness.runner.GridRunner.execute_jobs` call on the
    cached :class:`~repro.lifetime.spec.LifetimeJob` path, so re-running
    a sweep (or widening it) against a ``cache`` only computes the
    curves it has never seen.
    """
    from repro.lifetime.spec import LifetimeSpec

    name = _builtin_profile_name(profile)
    return _sweep(
        {
            requirement: LifetimeSpec(
                schemes=tuple(scheme_keys),
                profile=name,
                block_count=block_count,
                step=step,
                seed=seed,
                requirement=requirement,
                engine=engine,
            )
            for requirement in requirements
        },
        cache,
    )
