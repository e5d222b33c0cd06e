"""Lifetime simulation (Figure 13 methodology) — scaled-down checks."""

import copy
import hashlib
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.lifetime import LifetimeSimulator, compare_schemes, simulator
from repro.nand.block import Block
from repro.nand.chip_types import TLC_2D_2XNM, TLC_3D_48L
from repro.nand.erase_model import BlockEraseModel


@pytest.fixture(scope="module")
def comparison():
    """One shared five-scheme campaign (module-scoped: it's the slow one)."""
    return compare_schemes(TLC_3D_48L, block_count=24, step=100, seed=4)


def test_all_schemes_cross_requirement(comparison):
    for key, curve in comparison.curves.items():
        assert curve.lifetime_pec is not None, key
        assert curve.avg_mrber[-1] > curve.requirement


def test_figure13_ordering(comparison):
    """AERO > AEROcons ~ DPES > Baseline > i-ISPE."""
    life = {key: comparison.lifetime(key) for key in comparison.curves}
    assert life["aero"] > life["aero_cons"]
    assert life["aero_cons"] > life["baseline"]
    assert life["dpes"] > life["baseline"]
    assert life["iispe"] < life["baseline"]


def test_figure13_magnitudes(comparison):
    """Improvements in the paper's neighbourhood (+43/+30/+26/-25 %)."""
    assert 0.25 <= comparison.improvement("aero") <= 0.75
    assert 0.10 <= comparison.improvement("aero_cons") <= 0.45
    assert 0.08 <= comparison.improvement("dpes") <= 0.40
    assert -0.45 <= comparison.improvement("iispe") <= -0.10


def test_baseline_lifetime_near_calibration(comparison):
    """Figure 13: Baseline fails around 5.3K PEC."""
    assert 4500 <= comparison.lifetime("baseline") <= 6200


def test_aero_elevated_initial_mrber(comparison):
    """Aggressive under-erasure raises MRBER from the very start."""
    aero = comparison.curves["aero"]
    baseline = comparison.curves["baseline"]
    assert aero.mrber_at(500) > baseline.mrber_at(500) + 5


def test_dpes_elevated_early_then_flat(comparison):
    dpes = comparison.curves["dpes"]
    baseline = comparison.curves["baseline"]
    assert dpes.mrber_at(1000) > baseline.mrber_at(1000)


def test_curve_helpers(comparison):
    from repro.lifetime.simulator import LifetimeCurve

    curve = comparison.curves["baseline"]
    assert curve.avg_mrber[0] < curve.avg_mrber[-1]
    with pytest.raises(ConfigError):
        LifetimeCurve(scheme="empty").mrber_at(0)
    with pytest.raises(ConfigError):
        LifetimeCurve(scheme="x").improvement_over(curve)


def test_ranking(comparison):
    curves = comparison.curves
    ranking = sorted(curves, key=lambda k: -(curves[k].lifetime_pec or 0))
    assert ranking[0] == "aero"
    assert ranking[-1] == "iispe"


def test_simulator_validation():
    with pytest.raises(ConfigError):
        LifetimeSimulator(TLC_3D_48L, "baseline", block_count=0)


def test_misprediction_degrades_gracefully():
    """Figure 16: even 20 % misprediction keeps most of the benefit."""
    clean = LifetimeSimulator(
        TLC_3D_48L, "aero", block_count=16, step=100, seed=8
    ).run()
    noisy = LifetimeSimulator(
        TLC_3D_48L, "aero", block_count=16, step=100, seed=8, mispredict_rate=0.2
    ).run()
    base = LifetimeSimulator(
        TLC_3D_48L, "baseline", block_count=16, step=100, seed=8
    ).run()
    assert noisy.lifetime_pec <= clean.lifetime_pec
    assert noisy.lifetime_pec > base.lifetime_pec  # benefit survives


def test_requirement_sensitivity_shrinks_lifetimes():
    """Figure 17: weaker ECC costs every scheme lifetime."""
    strict = LifetimeSimulator(
        TLC_3D_48L, "baseline", block_count=16, step=100, seed=8, requirement=40
    ).run()
    loose = LifetimeSimulator(
        TLC_3D_48L, "baseline", block_count=16, step=100, seed=8, requirement=63
    ).run()
    assert strict.lifetime_pec < loose.lifetime_pec


# --- the kernel path's block-set share -----------------------------------------

#: A short kernel curve's block set, and one variant per share-key part
#: (the same-name profile must miss although its name matches).
BLOCK_SET = dict(profile=TLC_3D_48L, seed=3, block_count=12)
SET_VARIANTS = {
    "profile": dict(profile=TLC_2D_2XNM),
    "same-name profile": dict(profile=replace(
        TLC_3D_48L, erase_work=replace(TLC_3D_48L.erase_work, base_mean=5.5)
    )),
    "seed": dict(seed=4),
    "block count": dict(block_count=13),
}

#: Curves of 8 blocks (seed 5, step 50) as drawn from freshly built
#: ``Block`` objects on both engines, before any draw was shared.
FRESH_CURVE_DIGESTS = {
    ("kernel", "aero"):
        "52122b4bfc88b60c7731b468690ec90fa64f921ad30b08d39f1499d4448e9763",
    ("kernel", "dpes"):
        "3c900cb3209d6225e1d7c8cb39fe0b35863eeae472916294e93f8f3e3ec7d5fb",
    ("object", "aero"):
        "9c59d8a5b8780bb7c2b666be9a1b14957979c2e578acd30cc8b8716bc4a23999",
    ("object", "dpes"):
        "d68ac04aaa23e4b72e375b2593a07eaea760608c83e2dda72edc413b6041cebb",
}


def _set_curve(scheme="baseline", profile=TLC_3D_48L, seed=3, block_count=12):
    return LifetimeSimulator(
        profile, scheme, block_count=block_count, step=100, seed=seed,
        engine="kernel",
    ).run(max_pec=2000)


def _curve_digest(curve) -> str:
    text = json.dumps(curve.to_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _empty_share(monkeypatch):
    monkeypatch.setattr(simulator, "_BLOCK_SET", ((None, None, None), None))


def _counted_inits(monkeypatch, cls):
    built = []
    original = cls.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


@pytest.mark.parametrize("part", SET_VARIANTS)
def test_block_set_share_keys_every_input(part, monkeypatch):
    variant = {**BLOCK_SET, **SET_VARIANTS[part]}
    _empty_share(monkeypatch)
    cold = _set_curve(**variant)
    _empty_share(monkeypatch)
    stock = _set_curve(**BLOCK_SET)  # the share now holds the stock set
    assert _set_curve(**variant) == cold
    assert cold != stock


def test_block_set_share_hits_for_equal_sets(monkeypatch):
    _empty_share(monkeypatch)
    built = _counted_inits(monkeypatch, BlockEraseModel)
    first = _set_curve("aero")
    assert len(built) == BLOCK_SET["block_count"]
    _set_curve("dpes")
    # An equal profile object (one unpickled on a worker) shares too.
    twin = {**BLOCK_SET, "profile": copy.deepcopy(TLC_3D_48L)}
    assert twin["profile"] is not TLC_3D_48L
    assert _set_curve("aero", **twin) == first
    assert len(built) == BLOCK_SET["block_count"]


def test_jitter_table_grows_past_its_longest_curve(monkeypatch):
    _empty_share(monkeypatch)
    kwargs = dict(block_count=8, step=50, seed=5, engine="kernel")
    LifetimeSimulator(TLC_3D_48L, "aero", **kwargs).run(max_pec=1000)
    table = simulator._BLOCK_SET[1][2]
    assert table.columns == 64  # 20 erases read one fill
    curve = LifetimeSimulator(TLC_3D_48L, "aero", **kwargs).run()
    assert simulator._BLOCK_SET[1][2] is table
    assert table.columns == 192  # 160 erases extended it twice
    assert _curve_digest(curve) == FRESH_CURVE_DIGESTS[("kernel", "aero")]


@pytest.mark.parametrize("key", ("aero", "dpes"))
def test_only_the_object_engine_builds_blocks(key, monkeypatch):
    _empty_share(monkeypatch)
    built = _counted_inits(monkeypatch, Block)
    kwargs = dict(block_count=8, step=50, seed=5)
    kernel = LifetimeSimulator(TLC_3D_48L, key, engine="kernel", **kwargs)
    kernel_curve = kernel.run()
    assert not built and not hasattr(kernel, "blocks")
    obj = LifetimeSimulator(TLC_3D_48L, key, engine="object", **kwargs)
    assert [block.address.block for block in obj.blocks] == list(range(8))
    assert len(built) == 8
    assert _curve_digest(obj.run()) == FRESH_CURVE_DIGESTS[("object", key)]
    assert _curve_digest(kernel_curve) == FRESH_CURVE_DIGESTS[("kernel", key)]


@pytest.mark.parametrize("engine", ("kernel", "object"))
def test_block_set_keeps_a_grid_points_draws(engine, monkeypatch):
    """A curve of a new block set leaves the erase model's draw table
    as the last grid cell left it, so the point's next cell draws
    nothing again."""
    from repro.harness import run_workload_cell
    from repro.nand import erase_model

    run_workload_cell("baseline", 500, "hm", requests=40, seed=7)
    _empty_share(monkeypatch)
    LifetimeSimulator(
        TLC_3D_48L, "baseline", block_count=16, step=100, seed=11,
        engine=engine,
    ).run(max_pec=400)
    draws = []
    original = erase_model.truncated_normal

    def counting(*args, **kwargs):
        draws.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(erase_model, "truncated_normal", counting)
    run_workload_cell("aero", 500, "hm", requests=40, seed=7)
    assert not draws


def test_block_set_share_holds_across_threads(monkeypatch):
    """Curves of one block set started together on more threads than
    cores, switching often, equal the curve run alone: concurrent fills
    of the shared jitter table do not interleave the blocks' streams."""
    kwargs = dict(block_count=64, step=50, seed=3, engine="kernel")
    _empty_share(monkeypatch)
    expected = LifetimeSimulator(TLC_3D_48L, "dpes", **kwargs).run(max_pec=4000)
    _empty_share(monkeypatch)
    simulator._block_set(TLC_3D_48L, 3, 64)  # drawn set, empty table
    draw = BlockEraseModel.jitter_batch

    def slow_draw(self, count):
        time.sleep(1e-4)  # let other threads reach the same fill
        return draw(self, count)

    monkeypatch.setattr(BlockEraseModel, "jitter_batch", slow_draw)
    threads = 6
    start = threading.Barrier(threads)

    def curve():
        sim = LifetimeSimulator(TLC_3D_48L, "dpes", **kwargs)
        start.wait(timeout=60)
        return sim.run(max_pec=4000)  # 80 erases: two fills

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(curve) for _ in range(threads)]
            curves = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert curves == [expected] * threads
