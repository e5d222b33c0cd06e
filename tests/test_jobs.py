"""The job protocol: fingerprints, store meta and labels from one payload.

``CellJob`` and ``LifetimeJob`` state their cache key once, as a
payload; the ``Job`` base derives the fingerprint, the store meta and
the label. The pins below were computed before that refactor, from the
hand-written fingerprint, meta and label of each job class, so any
drift in a key a store files results under fails here.
"""

import dataclasses
import hashlib

import numpy as np

from repro.campaign import CampaignSpec, ShardedResultStore, run_campaign
from repro.config import SsdSpec
from repro.experiments import ExperimentSpec
from repro.experiments.registry import WORKLOADS
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.harness import PAPER_PEC_POINTS, PAPER_SCHEMES, plan_jobs
from repro.lifetime.spec import LifetimeJob
from repro.telemetry import scoped_registry

from test_faults import quarantined

#: ``scheme_params`` spellings whose keys must stay apart or together
#: exactly as before: a float rate, an int-spelled zero rate (keyed as
#: 0.0), a rate beside another knob, and a null knob.
SCHEME_PARAMS = (
    {"mispredict_rate": 0.1},
    {"mispredict_rate": 0},
    {"mispredict_rate": 0, "rber_requirement": 40},
    {"rber_requirement": None},
)


def _cell_corpus():
    """perfbench ``grid_write``'s 45 seed-1 jobs, then cells covering
    every other payload line: a tweaked profile, an explicit spec with
    suspension off, and each ``SCHEME_PARAMS`` spelling both on a job
    and through ``ExperimentSpec``."""
    jobs = plan_jobs(
        PAPER_SCHEMES, PAPER_PEC_POINTS, ("ali.A", "rsrch", "stg"), 900,
        None, True, 1,
    )
    tweaked = dataclasses.replace(WORKLOADS.resolve("hm"), read_ratio=0.05)
    jobs += plan_jobs(("aero",), (500,), (tweaked,), 120, None, True, 7)
    jobs += plan_jobs(
        ("baseline",), (2500,), ("usr",), 200, SsdSpec.small_test(seed=3),
        False, 7,
    )
    explicit = jobs[-1]
    for params in SCHEME_PARAMS:
        jobs.append(dataclasses.replace(
            explicit, scheme_params=tuple(sorted(params.items()))
        ))
        jobs.append(ExperimentSpec(
            scheme="aero", pec=500, workload="hm", requests=120, seed=7,
            scheme_params=params,
        ).resolve())
    return jobs


def _curve_corpus():
    """One curve, then one change of each field, on both engines, with
    a NumPy-integer requirement (whose repr the key carries)."""
    base = LifetimeJob(
        "aero", "3D-TLC-48L", block_count=8, step=200, seed=5, max_pec=2000
    )
    changes = (
        {}, {"scheme": "baseline"}, {"scheme": "aero_cons"},
        {"profile": "2D-TLC-2xnm"}, {"block_count": 16}, {"step": 100},
        {"seed": 6}, {"max_pec": 3000}, {"requirement": 40},
        {"requirement": np.int64(40)}, {"mispredict_rate": 0.1},
        {"mispredict_rate": 0.2}, {"mispredict_rate": 0},
        {"engine": "object"}, {"engine": "kernel"},
        {"scheme": "baseline", "engine": "object"},
    )
    return [dataclasses.replace(base, **change) for change in changes]


#: SHA-256 over the corpus's ``"<fingerprint> <label>"`` lines, in order.
CORPUS_DIGEST = (
    "b6fc47c1c594cc290ac7118808382a33db5ba2f5a3fdae88f5e482dd13ba8160"
)


def test_fingerprints_and_labels_match_the_pinned_corpus():
    jobs = _cell_corpus() + _curve_corpus()
    assert len(jobs) == 71
    lines = [f"{job.fingerprint} {job.describe()}" for job in jobs]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CORPUS_DIGEST


def test_fingerprint_is_the_hash_of_the_payload_lines():
    for job in (_cell_corpus()[-1], _curve_corpus()[-1]):
        text = "\n".join(f"{k}={v}" for k, v in job.payload().items())
        assert job.fingerprint == hashlib.sha256(text.encode()).hexdigest()
    cell, curve = _cell_corpus()[0], _curve_corpus()[0]
    assert list(cell.payload())[:2] == ["version", "spec"]
    assert "scheme_params" not in cell.payload()
    assert list(curve.payload())[-1] == "seed_trajectory"


def test_store_meta_keeps_every_earlier_key_and_adds_only_new_fields():
    cell = ExperimentSpec(
        scheme="aero", pec=500, workload="hm", requests=120, seed=7,
        scheme_params={"mispredict_rate": 0.1, "rber_requirement": 40},
    ).resolve()
    earlier = {
        "scheme": "aero", "pec": 500, "workload": "hm", "requests": 120,
        "seed": 11602620455082332699,
        "scheme_params": {"mispredict_rate": 0.1, "rber_requirement": 40},
    }
    meta = cell.store_meta()
    assert {key: meta[key] for key in earlier} == earlier
    assert meta.keys() - earlier.keys() == {
        "family", "erase_suspension", "engine"
    }
    assert (meta["family"], meta["erase_suspension"], meta["engine"]) == (
        "cell", True, "auto"
    )
    curve = LifetimeJob(
        "aero", "3D-TLC-48L", block_count=8, step=200, seed=5, max_pec=2000,
        requirement=40,
    )
    earlier = {
        "family": "lifetime", "scheme": "aero", "profile": "3D-TLC-48L",
        "block_count": 8, "step": 200, "seed": 5, "max_pec": 2000,
        "requirement": 40,
    }
    meta = curve.store_meta()
    assert {key: meta[key] for key in earlier} == earlier
    assert meta.keys() - earlier.keys() == {"engine", "mispredict_rate"}
    assert (meta["engine"], meta["mispredict_rate"]) == ("auto", 0.0)
    # A NumPy integer is no JSON scalar: left out, so the put still works.
    numpy_curve = dataclasses.replace(curve, requirement=np.int64(40))
    assert "requirement" not in numpy_curve.store_meta()


def test_quarantine_record_carries_the_engine(tmp_path):
    spec = CampaignSpec(
        schemes=("baseline",), pec_points=(500,), workloads=("hm",),
        requests=40, seed=1234, engine="object",
    )
    plan = FaultPlan(
        seed=3, faults=(FaultSpec(kind="crash_before_put", put_index=0),)
    )
    store = ShardedResultStore(tmp_path, fault_injector=FaultInjector(plan))
    with scoped_registry():
        result = run_campaign(spec, store, max_retries=0)
    [record] = result.quarantined
    [job] = spec.jobs()
    assert record["meta"] == job.store_meta()
    assert record["meta"]["engine"] == "object"
    assert quarantined(tmp_path) == [record]
