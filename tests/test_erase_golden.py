"""Golden digests of the shared erase physics.

Both replay engines and the lifetime object path erase through
``EraseScheme.erase``. The lifetime kernel path erases through the batch
kernels of :mod:`repro.kernels.erase`, and the characterization
campaigns measure through the m-ISPE batch kernel (Figure 10 through
``Block.begin_erase`` on real clones). Engine-equivalence tests cannot
notice a change to either path, so these SHA-256 digests pin their
exact outcomes:

* every segment, fail-bit count, damage value and post-erase wear
  figure of each built-in scheme on a fixed block set and generator;
* every :class:`~repro.kernels.erase.BatchEraseResult` field, the block
  state's arrays after each step, the kernel's counters and the
  generator's end state of each batch kernel on 1-, 7- and 128-block
  states, plus the m-ISPE kernel's ``measure_batch``/``trace_batch``;
* one short cell report per paper scheme, with erase suspension on
  and off: both replay engines time erases through one
  :class:`~repro.erase.suspension.SegmentCursor`, so comparing them
  cannot notice a change to it either.

A deliberate physics change must regenerate them (run this file as a
script to print fresh values).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.harness.cells import PAPER_SCHEMES, run_workload_cell
from repro.kernels import BlockArrayState, MispeBatchKernel
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

#: Block counts and starting wear ages (kilocycles) of the kernel corpus.
KERNEL_SIZES = (1, 7, 128)
KERNEL_AGES = (0.0, 1.6, 4.2)
#: ``erase_batch`` steps per state, each accounted as a coarse step.
KERNEL_STEPS = 40
KERNEL_CYCLES = 50
#: ``(scheme key, mispredict_rate, rber_requirement)`` kernel cases.
KERNEL_CASES = (
    ("baseline", 0.0, None),
    ("iispe", 0.0, None),
    ("dpes", 0.0, None),
    ("mispe", 0.0, None),
    ("aero_cons", 0.0, None),
    ("aero", 0.0, None),
    ("aero", 0.1, None),
    ("aero", 0.2, None),
    ("aero", 0.0, 40),
)

KERNEL_DIGESTS = {
    ("baseline", 0.0, None):
        "5b4ea35e35fd8a429c146f74c2f2de55feb9a413ddb5800f60ba54f08e8c5a89",
    ("iispe", 0.0, None):
        "37a489cebf1b4dad20f17067bb81b43d29f4af951a61203ca7d5c6b2d471de18",
    ("dpes", 0.0, None):
        "c5b03d032429fd786e270a9b22951be41ba37b43b896b364a08f045e457eb1db",
    ("mispe", 0.0, None):
        "45fdeadf11e735af47944183c87149178c693d5fd12007a0306b9c7914ee254f",
    ("aero_cons", 0.0, None):
        "ea6fb08bb18d72d383ed491ceb738acbadac6f33b5027acbb096729a5439ae40",
    ("aero", 0.0, None):
        "ad2284b75d0ccc1c76972a7fdcac7f79b834ae48032b7048f6527a9ac83ea70e",
    ("aero", 0.1, None):
        "43f898007acf5a9ac182d48e2a2e1311a9ec5c367a37ea0195e975b3f93c0250",
    ("aero", 0.2, None):
        "27e039a549ab4318816bbae0513e91008d186545e0f5e1bd6fccf6bee0d9aa3f",
    ("aero", 0.0, 40):
        "a587443bdf9bfab5fb041b81b13de5c8ab0855078fba4caf14588d027383bde0",
}

MISPE_PROBE_DIGEST = (
    "1d1efe2d20fc3712edbaa010e30c1b99b5fcde63960c71a9f072c33dc31bf6e6"
)

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

#: The same cells with erase suspension off.
CELL_DIGESTS_NO_SUSPENSION = {
    "baseline":
        "7f25313011c097ecaafb3907b0639b887aed2a9a5f48e951f8b44bfe1d5e6827",
    "iispe":
        "2fc65a268b97c388986338d5584d40566aab3d6326451676b96c53c52d744be5",
    "dpes":
        "a9235700c8c0126d0173e2d92061fa0ced0d0eb39fe4fdadf08fe30237c8e394",
    "aero_cons":
        "3904d4b12e5e06c1b7a09a95c6b7c05d98e6a84f8a26c70f5047c3fca0cec904",
    "aero":
        "c7f18fc795d6a20413dd694929925e71db3a8b8df40e1d15afa21c72afb14fb8",
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


def _kernel_state(count: int, start: float) -> BlockArrayState:
    """``count`` blocks aged from ``start`` kilocycles, a few apart."""
    blocks = []
    for index in range(count):
        block = Block(
            address=BlockAddress(0, 0, 0, index),
            profile=TLC_3D_48L,
            pages=4,
            seed=2024,
        )
        block.wear.age_kilocycles = start + 0.05 * (index % 7)
        block.wear.pec = int(round(block.wear.age_kilocycles * 1000))
        blocks.append(block)
    return BlockArrayState.from_blocks(blocks)


def _hash_arrays(digest, *arrays) -> None:
    """Feed each array's dtype, shape and raw bytes into ``digest``."""
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())


def _hash_json(digest, payload) -> None:
    digest.update(json.dumps(payload, sort_keys=True).encode())


def _hash_state(digest, state: BlockArrayState) -> None:
    _hash_arrays(
        digest, state.age, state.pec, state.damage_total,
        state.residual_fail_bits, state.residual_nispe,
    )


def kernel_digest(
    key: str, mispredict_rate: float, requirement: int | None
) -> str:
    """Digest of ``KERNEL_STEPS`` batch erases of every corpus state."""
    digest = hashlib.sha256()
    for count in KERNEL_SIZES:
        for start in KERNEL_AGES:
            scheme = make_scheme(
                TLC_3D_48L, key, mispredict_rate=mispredict_rate,
                rber_requirement=requirement,
            )
            kernel = scheme.batch_kernel()
            state = _kernel_state(count, start)
            rng = make_rng(99)
            for _ in range(KERNEL_STEPS):
                result = kernel.erase_batch(state, rng, cycles=KERNEL_CYCLES)
                digest.update(result.scheme.encode())
                _hash_arrays(digest, *(
                    getattr(result, field.name)
                    for field in dataclasses.fields(result)
                    if field.name != "scheme"
                ))
                _hash_state(digest, state)
            _hash_json(digest, dataclasses.asdict(kernel.stats))
            _hash_json(digest, rng.bit_generator.state)
    return digest.hexdigest()


def mispe_probe_digest() -> str:
    """Digest of m-ISPE ``measure_batch``/``trace_batch`` on every state.

    Each call reads one jitter column, so 35 rounds read past the jitter
    table's first 64-column fill; ``trace_batch`` runs the fail-bit
    model on 2-D arrays whose ``remaining`` goes negative past each
    block's need.
    """
    digest = hashlib.sha256()
    for count in KERNEL_SIZES:
        for start in KERNEL_AGES:
            kernel = MispeBatchKernel(TLC_3D_48L)
            state = _kernel_state(count, start)
            rng = make_rng(7)
            for _ in range(35):
                _hash_arrays(digest, *kernel.measure_batch(state))
                _hash_arrays(digest, *kernel.trace_batch(state, rng))
            _hash_json(digest, rng.bit_generator.state)
    return digest.hexdigest()


def cell_digest(scheme: str, erase_suspension: bool = True) -> str:
    report = run_workload_cell(
        scheme, 2500, "ali.A", requests=200, seed=11,
        erase_suspension=erase_suspension,
    )
    return _digest(report.to_json_dict())


@pytest.mark.parametrize(
    "key,mispredict_rate", ERASE_CASES, ids=lambda value: str(value)
)
def test_erase_outcomes_match_golden(key, mispredict_rate):
    assert erase_digest(key, mispredict_rate) == ERASE_DIGESTS[
        (key, mispredict_rate)
    ]


@pytest.mark.parametrize("case", KERNEL_CASES, ids=lambda value: str(value))
def test_batch_kernel_outcomes_match_golden(case):
    assert kernel_digest(*case) == KERNEL_DIGESTS[case]


def test_mispe_probes_match_golden():
    assert mispe_probe_digest() == MISPE_PROBE_DIGEST


@pytest.mark.parametrize("scheme", PAPER_SCHEMES)
def test_cell_report_matches_golden(scheme):
    assert cell_digest(scheme) == CELL_DIGESTS[scheme]


@pytest.mark.parametrize("scheme", PAPER_SCHEMES)
def test_cell_report_without_suspension_matches_golden(scheme):
    assert cell_digest(scheme, erase_suspension=False) == (
        CELL_DIGESTS_NO_SUSPENSION[scheme]
    )


if __name__ == "__main__":
    for case in ERASE_CASES:
        print(f"{case!r}: {erase_digest(*case)}")
    for case in KERNEL_CASES:
        print(f"{case!r}: {kernel_digest(*case)}")
    print(f"mispe probes: {mispe_probe_digest()}")
    for scheme in PAPER_SCHEMES:
        print(f"{scheme!r}: {cell_digest(scheme)}")
    for scheme in PAPER_SCHEMES:
        print(f"{scheme!r}, no suspension: {cell_digest(scheme, False)}")
