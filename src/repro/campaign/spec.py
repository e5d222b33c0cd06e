"""Declarative campaign descriptions: ``CampaignSpec``.

A :class:`CampaignSpec` is the frozen description of one full
(schemes x PEC setpoints x workloads) evaluation campaign — the
campaign-shaped sibling of the per-cell
:class:`~repro.experiments.spec.ExperimentSpec`, reusing the same
registries, seed derivation, and cache fingerprints:

* ``spec.jobs()`` plans cells through the exact
  :func:`~repro.harness.runner.plan_jobs` path ``GridRunner.plan``
  uses, so a campaign and an ad-hoc grid of the same shape share every
  cache/store entry;
* each of those jobs is the :class:`CellJob` an
  :class:`ExperimentSpec` with the same fields resolves to, so a
  ``python -m repro run`` of one cell shares its store entry;
* both this class and :class:`MixedCampaignSpec` take their JSON codec
  (``to_dict``/``from_dict``, version and type checks) and
  ``fingerprints()`` from :class:`~repro.experiments.spec.JobSpec`, and
  :func:`load_campaign_file` reads the ``campaign.json`` files the CLI
  takes through the shared
  :func:`~repro.experiments.spec.read_spec_file`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Mapping, Optional, Tuple, Union

from repro.config import SsdSpec
from repro.errors import ConfigError
from repro.experiments.registry import SCHEMES, WORKLOADS
from repro.experiments.spec import SSD_CODEC, JobSpec, read_spec_file
from repro.harness.cells import PAPER_PEC_POINTS, PAPER_SCHEMES
from repro.harness.runner import CellJob, plan_jobs
from repro.kernels import check_engine
from repro.rng import DEFAULT_SEED

#: The ``family`` values a campaign file may declare.
CAMPAIGN_FAMILIES = ("cell", "lifetime", "mixed")


@dataclass(frozen=True)
class CampaignSpec(JobSpec):
    """Frozen description of one (schemes x PECs x workloads) campaign."""

    schemes: Tuple[str, ...] = PAPER_SCHEMES
    pec_points: Tuple[int, ...] = PAPER_PEC_POINTS
    workloads: Tuple[str, ...] = ("ali.A", "hm", "usr")
    requests: int = 1200
    seed: int = DEFAULT_SEED
    erase_suspension: bool = True
    engine: str = "auto"
    ssd: Optional[SsdSpec] = None

    label = "campaign spec"
    #: Family discriminator (grid-cell replay campaigns).
    family = "cell"
    codecs = {"ssd": SSD_CODEC}

    def __post_init__(self) -> None:
        for name in ("schemes", "pec_points", "workloads"):
            value = getattr(self, name)
            if isinstance(value, (list, tuple)):
                object.__setattr__(self, name, tuple(value))
            else:
                raise ConfigError(f"{name} must be a list, got {value!r}")
            if not getattr(self, name):
                raise ConfigError(f"campaign needs at least one of {name}")
        if any(
            not isinstance(p, int) or isinstance(p, bool) or p < 0
            for p in self.pec_points
        ):
            raise ConfigError("pec_points must be non-negative integers")
        if self.requests <= 0:
            raise ConfigError("requests must be positive")
        check_engine(self.engine)

    # --- derived ------------------------------------------------------------

    @property
    def size(self) -> int:
        """How many cells the campaign comprises."""
        return len(self.schemes) * len(self.pec_points) * len(self.workloads)

    def validate(self) -> "CampaignSpec":
        """Check every scheme and workload against the registries."""
        for scheme in self.schemes:
            SCHEMES.get(scheme)
        for workload in self.workloads:
            WORKLOADS.resolve(workload)
        return self

    def jobs(self) -> List[CellJob]:
        """The campaign's cell jobs, ``GridRunner.plan``-identical.

        Same planner, same canonical pec -> workload -> scheme order,
        same per-(pec, workload) seed derivation — so fingerprints (and
        therefore store/cache entries) are shared with grid runs.
        """
        self.validate()
        return plan_jobs(
            schemes=self.schemes,
            pec_points=self.pec_points,
            workloads=self.workloads,
            requests=self.requests,
            spec=self.ssd,
            erase_suspension=self.erase_suspension,
            seed=self.seed,
            engine=self.engine,
        )


def _members_from_json(members: Any) -> Tuple[Any, ...]:
    """Decode a mixed campaign's ``members`` list (``__post_init__``
    rejects nested mixed members)."""
    if not isinstance(members, list):
        raise ConfigError("mixed campaign needs a members list")
    return tuple(campaign_spec_from_dict(member) for member in members)


def _members_to_json(members: Tuple[Any, ...]) -> List[Any]:
    return [member.to_dict() for member in members]


@dataclass(frozen=True)
class MixedCampaignSpec(JobSpec):
    """A campaign whose members span both families.

    ``members`` is an ordered tuple of :class:`CampaignSpec` and
    :class:`~repro.lifetime.spec.LifetimeSpec` objects; ``jobs()``
    concatenates the members' jobs in order, so one orchestrator run
    executes lifetime curves and replay cells under the same
    supervision, retry/quarantine, fault-injection, and telemetry.
    Nested mixed members are rejected — one level of grouping keeps
    job offsets trivially computable (``member_ranges``).
    """

    members: Tuple[Any, ...] = ()

    label = "mixed campaign spec"
    #: Family discriminator (heterogeneous campaigns).
    family = "mixed"
    codecs = {"members": (_members_to_json, _members_from_json)}

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ConfigError("mixed campaign needs at least one member")
        for member in self.members:
            member_family = getattr(member, "family", None)
            if member_family not in ("cell", "lifetime"):
                raise ConfigError(
                    f"mixed campaign members must be cell or lifetime "
                    f"specs, got {type(member).__name__} "
                    f"(family {member_family!r})"
                )

    # --- derived ------------------------------------------------------------

    @property
    def seed(self) -> int:
        """The first member's seed (used for retry-backoff derivation)."""
        return self.members[0].seed

    @property
    def size(self) -> int:
        return sum(member.size for member in self.members)

    def validate(self) -> "MixedCampaignSpec":
        for member in self.members:
            member.validate()
        return self

    def jobs(self) -> List[Any]:
        """Every member's jobs, concatenated in member order."""
        jobs: List[Any] = []
        for member in self.members:
            jobs.extend(member.jobs())
        return jobs

    def member_ranges(self) -> List[Tuple[Any, int, int]]:
        """``(member, start, stop)`` slices into the :meth:`jobs` list."""
        ranges: List[Tuple[Any, int, int]] = []
        offset = 0
        for member in self.members:
            ranges.append((member, offset, offset + member.size))
            offset += member.size
        return ranges


def campaign_spec_from_dict(
    data: Mapping[str, Any],
) -> Union[CampaignSpec, MixedCampaignSpec, Any]:
    """Parse any campaign-family spec dict by its ``family`` key.

    ``cell`` (the default when the key is absent, for backward
    compatibility with pre-family campaign files) builds a
    :class:`CampaignSpec`, ``lifetime`` a
    :class:`~repro.lifetime.spec.LifetimeSpec`, ``mixed`` a
    :class:`MixedCampaignSpec`; anything else is a
    :class:`ConfigError` listing the valid families.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"campaign spec must be a JSON object, got {type(data).__name__}"
        )
    family = data.get("family", "cell")
    if family == "cell":
        return CampaignSpec.from_dict(data)
    if family == "lifetime":
        from repro.lifetime.spec import LifetimeSpec

        return LifetimeSpec.from_dict(data)
    if family == "mixed":
        return MixedCampaignSpec.from_dict(data)
    raise ConfigError(
        f"unknown campaign family {family!r}; "
        f"valid families: {', '.join(CAMPAIGN_FAMILIES)}"
    )


def load_campaign_file(
    path: Union[str, Path],
) -> Union[CampaignSpec, MixedCampaignSpec, Any]:
    """Load a campaign spec (any family) from a JSON file.

    Accepts the bare spec object or ``{"campaign": {...}}``; the
    ``family`` key selects the spec type (``cell`` when absent).
    """
    return campaign_spec_from_dict(read_spec_file(path, "campaign"))
