"""Unified lifetime campaign family: spec, cached jobs, mixed campaigns.

Pins the ISSUE's acceptance criteria: LifetimeSpec fingerprints are
stable and trajectory-pinned, specs round-trip through JSON exactly,
cached/resumed comparisons are bit-identical to a fresh serial run
with no job executed twice, mixed-family campaigns kill+resume, and
unknown campaign families fail fast with the valid-family list.
"""

import json

import pytest

from repro.campaign import (
    CampaignOrchestrator,
    CampaignSpec,
    MixedCampaignSpec,
    ShardedResultStore,
    campaign_spec_from_dict,
)
from repro.errors import ConfigError
from repro.harness import GridRunner
from repro.lifetime import (
    LifetimeCurve,
    LifetimeSpec,
    SchemeComparison,
    compare_schemes,
    load_lifetime_file,
)
from repro.nand.chip_types import profile_by_name

# Small enough to cycle in well under a second per scheme.
FAST = dict(block_count=8, step=200, max_pec=2000)

SPEC = LifetimeSpec(
    schemes=("baseline", "aero"), profile="3D-TLC-48L", **FAST
)

CELL_SPEC = CampaignSpec(
    schemes=("baseline", "aero"),
    pec_points=(500,),
    workloads=("hm",),
    requests=120,
    seed=1234,
)


# --- fingerprints ------------------------------------------------------------


def test_fingerprints_stable_and_distinct():
    again = LifetimeSpec(
        schemes=("baseline", "aero"), profile="3D-TLC-48L", **FAST
    )
    assert SPEC.fingerprints() == again.fingerprints()
    assert len(set(SPEC.fingerprints())) == len(SPEC.schemes)


@pytest.mark.parametrize(
    "change",
    [dict(seed=1), dict(block_count=9), dict(step=100), dict(max_pec=2400),
     dict(profile="3D-MLC-48L"), dict(requirement=40)],
)
def test_fingerprint_covers_every_resolved_field(change):
    base = dict(schemes=("baseline",), profile="3D-TLC-48L", **FAST)
    changed = {**base, **change}
    assert (
        LifetimeSpec(**base).fingerprints()
        != LifetimeSpec(**changed).fingerprints()
    )


def test_fingerprint_pins_resolved_engine():
    auto = LifetimeSpec(schemes=("aero",), profile="3D-TLC-48L", **FAST)
    kernel = LifetimeSpec(
        schemes=("aero",), profile="3D-TLC-48L", engine="kernel", **FAST
    )
    obj = LifetimeSpec(
        schemes=("aero",), profile="3D-TLC-48L", engine="object", **FAST
    )
    # auto resolves to the kernel for schemes that provide one, so the
    # two spellings share one cache entry; the object path is only
    # statistically equivalent and must not.
    assert auto.fingerprints() == kernel.fingerprints()
    assert auto.fingerprints() != obj.fingerprints()


# --- JSON round-trip ---------------------------------------------------------


def test_spec_json_round_trip(tmp_path):
    data = json.loads(json.dumps(SPEC.to_dict()))
    assert LifetimeSpec.from_dict(data) == SPEC
    assert LifetimeSpec.from_dict(data).fingerprints() == SPEC.fingerprints()
    path = tmp_path / "lifetime.json"
    path.write_text(json.dumps({"campaign": SPEC.to_dict()}))
    assert load_lifetime_file(path) == SPEC


def test_spec_rejects_unknown_fields_and_wrong_family():
    with pytest.raises(ConfigError, match="unknown"):
        LifetimeSpec.from_dict({**SPEC.to_dict(), "blocks": 3})
    with pytest.raises(ConfigError, match="family"):
        LifetimeSpec.from_dict({**SPEC.to_dict(), "family": "cell"})


def test_unknown_campaign_family_lists_valid_families():
    with pytest.raises(ConfigError) as excinfo:
        campaign_spec_from_dict({"family": "nonsense"})
    message = str(excinfo.value)
    assert "nonsense" in message
    for family in ("cell", "lifetime", "mixed"):
        assert family in message


def test_campaign_spec_from_dict_dispatches_by_family():
    assert campaign_spec_from_dict(SPEC.to_dict()) == SPEC
    assert campaign_spec_from_dict(CELL_SPEC.to_dict()) == CELL_SPEC
    mixed = MixedCampaignSpec(members=(SPEC, CELL_SPEC))
    round_tripped = campaign_spec_from_dict(
        json.loads(json.dumps(mixed.to_dict()))
    )
    assert round_tripped == mixed
    assert [j.fingerprint for j in round_tripped.jobs()] == [
        j.fingerprint for j in mixed.jobs()
    ]


def test_curve_and_comparison_json_round_trip():
    comparison = compare_schemes(
        profile_by_name(SPEC.profile), scheme_keys=SPEC.schemes,
        block_count=SPEC.block_count, step=SPEC.step, max_pec=SPEC.max_pec,
    )
    data = json.loads(json.dumps(comparison.to_json_dict()))
    back = SchemeComparison.from_json_dict(data)
    assert back == comparison
    curve = comparison.curves["aero"]
    assert LifetimeCurve.from_json_dict(
        json.loads(json.dumps(curve.to_json_dict()))
    ) == curve


# --- cached execution --------------------------------------------------------


def test_cached_compare_bit_identical_to_fresh_serial(tmp_path):
    fresh = compare_schemes(
        profile_by_name(SPEC.profile), scheme_keys=SPEC.schemes,
        block_count=SPEC.block_count, step=SPEC.step, max_pec=SPEC.max_pec,
        runner=GridRunner(),
    )
    store = ShardedResultStore(tmp_path / "store")
    first_runner = GridRunner(cache=store)
    first = SPEC.comparison(first_runner.execute_jobs(SPEC.jobs()))
    assert first_runner.stats.executed == len(SPEC.schemes)
    resumed_runner = GridRunner(cache=store)
    resumed = SPEC.comparison(resumed_runner.execute_jobs(SPEC.jobs()))
    assert resumed_runner.stats.executed == 0
    assert resumed_runner.stats.cached == len(SPEC.schemes)
    assert first.to_json_dict() == fresh.to_json_dict()
    assert resumed.to_json_dict() == fresh.to_json_dict()
    assert store.stats().superseded == 0


def test_flag_and_spec_paths_share_cache_entries(tmp_path):
    store_dir = tmp_path / "store"
    compare_schemes(
        profile_by_name(SPEC.profile), scheme_keys=SPEC.schemes,
        block_count=SPEC.block_count, step=SPEC.step, max_pec=SPEC.max_pec,
        cache=store_dir,
    )
    runner = GridRunner(cache=ShardedResultStore(store_dir))
    runner.execute_jobs(SPEC.jobs())
    assert runner.stats.executed == 0
    assert runner.stats.cached == len(SPEC.schemes)


def test_adhoc_profile_cannot_cache():
    import dataclasses

    adhoc = dataclasses.replace(
        profile_by_name(SPEC.profile), name="tweaked"
    )
    with pytest.raises(ConfigError, match="built-in"):
        compare_schemes(adhoc, scheme_keys=("baseline",), cache="x")


# --- mixed-family campaigns --------------------------------------------------


def test_mixed_campaign_kill_and_resume_bit_identical(tmp_path):
    mixed = MixedCampaignSpec(members=(SPEC, CELL_SPEC))
    store_dir = tmp_path / "store"

    def bomb(index, job, report, _seen=[0]):  # noqa: B006
        _seen[0] += 1
        if _seen[0] >= 2:
            raise RuntimeError("injected crash after 2 jobs")

    with pytest.raises(RuntimeError):
        CampaignOrchestrator(
            mixed, ShardedResultStore(store_dir), on_cell=bomb
        ).run()
    store = ShardedResultStore(store_dir)
    done_before = store.stats().keys
    assert 0 < done_before < mixed.size
    result = CampaignOrchestrator(mixed, store).run()
    assert result.stats.resumed == done_before
    assert result.stats.executed == mixed.size - done_before
    assert store.stats().superseded == 0  # no job executed twice
    counts = result.family_counts()
    assert counts["lifetime"] == {"total": SPEC.size, "done": SPEC.size}
    assert counts["cell"] == {
        "total": CELL_SPEC.size, "done": CELL_SPEC.size,
    }
    # The lifetime member's comparison is assembled and bit-identical
    # to a fresh serial run of the imperative entry point.
    fresh = compare_schemes(
        profile_by_name(SPEC.profile), scheme_keys=SPEC.schemes,
        block_count=SPEC.block_count, step=SPEC.step, max_pec=SPEC.max_pec,
        runner=GridRunner(),
    )
    assert len(result.comparisons) == 1
    assert result.comparisons[0].to_json_dict() == fresh.to_json_dict()
    # The cell member's grid is assembled from cell jobs only.
    assert result.grid is not None


def test_mixed_campaign_status_counts_per_family(tmp_path):
    mixed = MixedCampaignSpec(members=(SPEC, CELL_SPEC))
    store = ShardedResultStore(tmp_path / "store")
    orchestrator = CampaignOrchestrator(mixed, store)
    status = orchestrator.family_status()
    assert status["lifetime"] == {"total": SPEC.size, "done": 0}
    assert status["cell"] == {"total": CELL_SPEC.size, "done": 0}
    orchestrator.run()
    status = CampaignOrchestrator(mixed, store).family_status()
    assert status["lifetime"]["done"] == SPEC.size
    assert status["cell"]["done"] == CELL_SPEC.size
    families = dict(store.stats().families)
    assert families == {"lifetime": SPEC.size, "cell": CELL_SPEC.size}


def test_mixed_spec_validation():
    with pytest.raises(ConfigError, match="at least one"):
        MixedCampaignSpec(members=())
    with pytest.raises(ConfigError, match="family"):
        MixedCampaignSpec(
            members=(MixedCampaignSpec(members=(SPEC,)),)
        )
