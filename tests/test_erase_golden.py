"""Golden digests of the shared erase physics.

Both replay engines, the lifetime object path and the characterization
campaigns all erase through ``EraseScheme.erase``, so engine-equivalence
tests cannot notice a change to it. These SHA-256 digests pin its exact
outcomes: every segment, fail-bit count, damage value and post-erase
wear figure of each built-in scheme on a fixed block set and generator,
plus one short cell report per paper scheme. A deliberate physics change
must regenerate them (run this file as a script to print fresh values).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.harness.cells import PAPER_SCHEMES, run_workload_cell
from repro.nand.block import Block
from repro.nand.chip_types import TLC_3D_48L
from repro.nand.geometry import BlockAddress
from repro.rng import make_rng
from repro.schemes import make_scheme

#: Wear ages (kilocycles) of the fixed block set: fresh through late life.
AGES = (0.0, 0.3, 0.8, 1.5, 2.2, 3.0, 3.8, 4.6)
#: Erases per block in the per-erase corpus.
ROUNDS = 8
#: ``(scheme key, mispredict_rate)`` cases of the per-erase corpus.
ERASE_CASES = (
    ("baseline", 0.0),
    ("iispe", 0.0),
    ("dpes", 0.0),
    ("mispe", 0.0),
    ("aero_cons", 0.0),
    ("aero", 0.0),
    ("aero_cons", 0.1),
    ("aero", 0.1),
    ("aero", 0.2),
)

ERASE_DIGESTS = {
    ("baseline", 0.0):
        "da87a5988560a3a6e2dbae1bc69cc5029264590f7c2f4bbcd4f86853e36924dd",
    ("iispe", 0.0):
        "30e80cc35e334e096b95917b1afe48d9d68f53ec0c6db678017ebc21300d3697",
    ("dpes", 0.0):
        "50c5aa514315be19ac3139b5936c132f527423c48a185a330aacc8c5fb436dbc",
    ("mispe", 0.0):
        "0c6c11b54feace05e69d605cc5f5fb032a0b76739ecd4b490507c0e5fc16e489",
    ("aero_cons", 0.0):
        "62b9f0f3fed8ade685e2cb73449617f098ff0a13279b7c7e818b0143d5c5be57",
    ("aero", 0.0):
        "1b428d9dfca2054cf30c592ba22f00cff9422c00b2adf4a7adbc63dbafed64ad",
    ("aero_cons", 0.1):
        "a7a7f3a3d8eb73b627b2500b64b40731f7abf426da5fcff83aea703d5885628c",
    ("aero", 0.1):
        "ae9c58679baf834e69bff7d6f85a691ed0d081d909563e8e3d95cbcde41415b2",
    ("aero", 0.2):
        "f5b4b0c7648f3cb785291e03baf3edae6ba4161dc5564b61817c412cd47365d7",
}

CELL_DIGESTS = {
    "baseline":
        "bbc86ae937ed144d3f6706f8a685c9aef3414cc652a53d76a25afa707a15e8e5",
    "iispe":
        "47fd6b637d1508eb93ff27181dca41ed7449adcf5a6243db307a6dbd015896ab",
    "dpes":
        "bed15377f395985492a361775a0a444659c934db14b24e072df6e4670bb1d09c",
    "aero_cons":
        "6daf82def43f990d055302442768c0641b17bfee1c2b68aa7ec49540daf2b317",
    "aero":
        "f49268b2b1c31ccc4edf898a87322f05b6e24f1c39978f3404c491b7be9a51c6",
}


def _blocks():
    blocks = []
    for index, age in enumerate(AGES):
        block = Block(
            address=BlockAddress(0, 0, 0, index),
            profile=TLC_3D_48L,
            pages=32,
            seed=2024,
        )
        block.wear.age_kilocycles = age
        block.wear.pec = int(round(age * 1000))
        blocks.append(block)
    return blocks


def _outcome(result, block) -> list:
    wear = block.wear
    return [
        [
            [segment.kind.value, segment.duration_us.hex(), segment.loop,
             segment.pulses]
            for segment in result.segments
        ],
        list(result.fail_bit_trace),
        result.damage.hex(),
        result.loops,
        result.total_pulses,
        result.completed,
        result.accepted_under_erase,
        result.residual_fail_bits,
        result.residual_nispe,
        result.mispredictions,
        result.used_shallow_erase,
        result.shallow_erase_useful,
        result.t_prog_scale.hex(),
        result.rber_offset.hex(),
        wear.age_kilocycles.hex(),
        wear.pec,
        wear.damage_total.hex(),
        wear.residual_fail_bits,
        wear.residual_nispe,
    ]


def _digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def erase_digest(key: str, mispredict_rate: float) -> str:
    """Digest of ``ROUNDS`` erases of every block, then one 25-cycle erase."""
    scheme = make_scheme(TLC_3D_48L, key, mispredict_rate=mispredict_rate)
    rng = make_rng(99)
    blocks = _blocks()
    outcomes = []
    for _ in range(ROUNDS):
        for block in blocks:
            outcomes.append(_outcome(scheme.erase(block, rng), block))
    block = blocks[len(blocks) // 2]
    outcomes.append(_outcome(scheme.erase(block, rng, cycles=25), block))
    return _digest(outcomes)


def cell_digest(scheme: str) -> str:
    report = run_workload_cell(scheme, 2500, "ali.A", requests=200, seed=11)
    return _digest(report.to_json_dict())


@pytest.mark.parametrize(
    "key,mispredict_rate", ERASE_CASES, ids=lambda value: str(value)
)
def test_erase_outcomes_match_golden(key, mispredict_rate):
    assert erase_digest(key, mispredict_rate) == ERASE_DIGESTS[
        (key, mispredict_rate)
    ]


@pytest.mark.parametrize("scheme", PAPER_SCHEMES)
def test_cell_report_matches_golden(scheme):
    assert cell_digest(scheme) == CELL_DIGESTS[scheme]


if __name__ == "__main__":
    for case in ERASE_CASES:
        print(f"{case!r}: {erase_digest(*case)}")
    for scheme in PAPER_SCHEMES:
        print(f"{scheme!r}: {cell_digest(scheme)}")
