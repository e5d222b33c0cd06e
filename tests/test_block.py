"""Block state machine: pages and erase lifecycle."""

import pytest

from repro.errors import CommandError
from repro.nand.block import Block, PageState
from repro.nand.geometry import BlockAddress


@pytest.fixture
def block(profile):
    return Block(BlockAddress(0, 0, 0, 5), profile, pages=8, seed=1)


def test_fresh_block_state(block):
    assert block.free_pages == 8
    assert block.valid_count == 0
    assert block.invalid_count == 0
    assert not block.is_full
    assert block.page_state(0) is PageState.FREE


def test_program_in_order(block):
    page = block.program(lpn=100)
    assert page == 0
    assert block.page_state(0) is PageState.VALID
    assert block.page_lpn(0) == 100
    assert block.valid_count == 1
    assert block.program(lpn=101) == 1


def test_program_full_block_rejected(block):
    for index in range(8):
        block.program(lpn=index)
    assert block.is_full
    with pytest.raises(CommandError):
        block.program(lpn=99)


def test_invalidate(block):
    block.program(lpn=7)
    block.invalidate(0)
    assert block.page_state(0) is PageState.INVALID
    assert block.page_lpn(0) is None
    assert block.invalid_count == 1
    with pytest.raises(CommandError):
        block.invalidate(0)  # double invalidate


def test_iter_valid_pages(block):
    block.program(lpn=10)
    block.program(lpn=11)
    block.program(lpn=12)
    block.invalidate(1)
    assert list(block.iter_valid_pages()) == [(0, 10), (2, 12)]


def test_erase_resets_pages(block, rng):
    for index in range(4):
        block.program(lpn=index)
    state = block.begin_erase()
    state.start_loop(1)
    state.apply_pulses(state.required)
    block.finish_erase(state)
    assert block.free_pages == 8
    assert block.valid_count == 0
    assert block.wear.pec == 1
    assert block.wear.age_kilocycles > 0


def test_erase_with_residual_and_nispe_override(block):
    state = block.begin_erase()
    state.start_loop(1)
    state.apply_pulses(max(0, state.required - 2))
    block.finish_erase(state, residual_fail_bits=6000, nispe=3)
    assert block.wear.residual_fail_bits == 6000
    assert block.wear.residual_nispe == 3


def test_rber_sensitivity_normalized(profile):
    """Across many blocks the sensitivity draw centers near 1.0."""
    blocks = [
        Block(BlockAddress(0, 0, 0, index), profile, pages=4, seed=3)
        for index in range(200)
    ]
    mean = sum(b.rber_sensitivity for b in blocks) / len(blocks)
    assert mean == pytest.approx(1.0, abs=0.08)
