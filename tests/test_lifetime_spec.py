"""Unified lifetime campaign family: spec, cached jobs, campaigns.

LifetimeSpec fingerprints are stable and trajectory-pinned, specs
round-trip through JSON exactly, cached/resumed comparisons are
bit-identical to a fresh serial run with no job executed twice, a
lifetime campaign kills and resumes, and unknown campaign families fail
fast with the valid-family list.
"""

import json

import pytest

from repro.campaign import (
    CampaignOrchestrator,
    CampaignSpec,
    ShardedResultStore,
    load_campaign_file,
)
from repro.errors import ConfigError
from repro.harness import GridRunner
from repro.lifetime import (
    LifetimeCurve,
    LifetimeJob,
    LifetimeSpec,
    compare_schemes,
    load_lifetime_file,
    misprediction_sensitivity,
    requirement_sensitivity,
)
from repro.lifetime.spec import _seed_trajectory
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


def keys(spec):
    """The cache keys of a spec's jobs, in job order."""
    return [job.fingerprint for job in spec.jobs()]


def as_json(comparison):
    """A comparison in plain JSON types (a served curve's samples
    decode as ``array("d")``)."""
    return comparison.profile_name, {
        key: curve.to_json_dict() for key, curve in comparison.curves.items()
    }


def test_fingerprints_stable_and_distinct():
    again = LifetimeSpec(
        schemes=("baseline", "aero"), profile="3D-TLC-48L", **FAST
    )
    assert keys(SPEC) == keys(again)
    assert len(set(keys(SPEC))) == len(SPEC.schemes)


@pytest.mark.parametrize(
    "change",
    [dict(seed=1), dict(block_count=9), dict(step=100), dict(max_pec=2400),
     dict(profile="3D-MLC-48L"), dict(requirement=40)],
)
def test_fingerprint_covers_every_resolved_field(change):
    base = dict(schemes=("baseline",), profile="3D-TLC-48L", **FAST)
    changed = {**base, **change}
    assert (
        keys(LifetimeSpec(**base))
        != keys(LifetimeSpec(**changed))
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
    assert keys(auto) == keys(kernel)
    assert keys(auto) != keys(obj)


def test_seed_trajectory_memo_keys_on_seed_scheme_and_block_count():
    # The trajectory digest is memoized per (seed, scheme, block_count).
    # Evaluated in this order, a memo missing any of the three would
    # serve the first job's digest to a later job. Pins computed by the
    # fingerprint code before the memo existed.
    _seed_trajectory.cache_clear()
    pins = [
        (("aero", 8, 1),
         "2558141dd7f99d3045c43e2e83c9883e06b86e9ffa12b63e61c8a94e4c79c1eb"),
        (("aero", 8, 2),
         "d08636f5c3afef10f951359cfe6699758cccb997f479aa0f7567e8ab26beac75"),
        (("baseline", 8, 1),
         "42c5a5541f4a0a1723700b9ad9acc944d4c18551c72271c193da5e472270a2dc"),
        (("aero", 16, 1),
         "913398edbea6f316d3fb8e87d2b82cd6be8e69e93e87a463f0c03b3ee19c8150"),
    ]
    for (scheme, block_count, seed), pin in pins + pins:  # misses, then hits
        job = LifetimeJob(scheme, "3D-TLC-48L", block_count=block_count,
                          seed=seed)
        assert job.fingerprint == pin, (scheme, block_count, seed)


# --- JSON round-trip ---------------------------------------------------------


def test_spec_json_round_trip(tmp_path):
    data = json.loads(json.dumps(SPEC.to_dict()))
    assert LifetimeSpec.from_dict(data) == SPEC
    assert keys(LifetimeSpec.from_dict(data)) == keys(SPEC)
    path = tmp_path / "lifetime.json"
    path.write_text(json.dumps({"campaign": SPEC.to_dict()}))
    assert load_lifetime_file(path) == SPEC


def test_spec_rejects_unknown_fields_and_wrong_family():
    with pytest.raises(ConfigError, match="unknown"):
        LifetimeSpec.from_dict({**SPEC.to_dict(), "blocks": 3})
    with pytest.raises(ConfigError, match="family"):
        LifetimeSpec.from_dict({**SPEC.to_dict(), "family": "cell"})


def test_unknown_campaign_family_lists_valid_families(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"family": "nonsense"}))
    with pytest.raises(ConfigError) as excinfo:
        load_campaign_file(path)
    message = str(excinfo.value)
    assert "nonsense" in message
    for family in ("cell", "lifetime"):
        assert family in message


def test_campaign_spec_from_dict_dispatches_by_family(tmp_path):
    path = tmp_path / "campaign.json"
    for spec in (SPEC, CELL_SPEC):
        path.write_text(json.dumps({"campaign": spec.to_dict()}))
        assert load_campaign_file(path) == spec


def test_curve_and_comparison_json_round_trip():
    comparison = compare_schemes(
        profile_by_name(SPEC.profile), scheme_keys=SPEC.schemes,
        block_count=SPEC.block_count, step=SPEC.step, max_pec=SPEC.max_pec,
    )
    for curve in comparison.curves.values():
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
    assert as_json(first) == as_json(fresh)
    assert as_json(resumed) == as_json(fresh)
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


def test_adhoc_profile_cannot_cache(tmp_path, monkeypatch):
    # An ad-hoc profile has no stable fingerprint: the lifetime façades
    # refuse it, with or without a store, before opening one.
    import dataclasses

    monkeypatch.chdir(tmp_path)
    adhoc = dataclasses.replace(
        profile_by_name(SPEC.profile), name="tweaked"
    )
    calls = [
        lambda **kw: compare_schemes(adhoc, scheme_keys=("baseline",), **kw),
        lambda **kw: misprediction_sensitivity(adhoc, rates=(0.1,), **kw),
        lambda **kw: requirement_sensitivity(adhoc, requirements=(40,),
                                             **kw),
    ]
    for call in calls:
        for options in ({}, {"cache": "x"}):
            with pytest.raises(ConfigError, match="built-in.*Simulator"):
                call(**options)
    assert not (tmp_path / "x").exists()


def test_lifetime_spec_rejects_a_non_positive_requirement():
    for requirement in (0, -5):
        with pytest.raises(ConfigError, match="requirement must be positive"):
            LifetimeSpec(requirement=requirement)
    # Valid specs keep their fingerprints (computed before the check).
    spec = LifetimeSpec(schemes=("baseline", "aero"), requirement=40,
                        block_count=8)
    assert keys(spec) == [
        "2761b72fdc483c0a9dfc193213e0fbaf4fde7d7d1295082753546ccb9782d190",
        "4c5185528d9a672819fc406c806acece8c86f37eef0644eef81a4db502d83062",
    ]


# --- lifetime campaigns ------------------------------------------------------


def test_lifetime_campaign_kill_and_resume_bit_identical(tmp_path):
    store_dir = tmp_path / "store"

    def bomb(index, job, report):
        raise RuntimeError("injected crash after 1 job")

    with pytest.raises(RuntimeError):
        CampaignOrchestrator(
            SPEC, ShardedResultStore(store_dir), on_cell=bomb
        ).run()
    store = ShardedResultStore(store_dir)
    done_before = store.stats().keys
    assert 0 < done_before < len(SPEC.schemes)
    result = CampaignOrchestrator(SPEC, store).run()
    assert result.stats.resumed == done_before
    assert result.stats.executed == len(SPEC.schemes) - done_before
    assert store.stats().superseded == 0  # no job executed twice
    assert all(job.family == "lifetime" for job in result.jobs)
    assert all(report is not None for report in result.reports)
    # The comparison is assembled and bit-identical to a fresh serial
    # run of the imperative entry point.
    fresh = compare_schemes(
        profile_by_name(SPEC.profile), scheme_keys=SPEC.schemes,
        block_count=SPEC.block_count, step=SPEC.step, max_pec=SPEC.max_pec,
        runner=GridRunner(),
    )
    [comparison] = result.comparisons
    assert as_json(comparison) == as_json(fresh)
    assert dict(store.stats().families) == {"lifetime": len(SPEC.schemes)}
