"""Shared fixtures for the test suite."""

from __future__ import annotations

import sqlite3
from contextlib import closing
from pathlib import Path

import pytest

from repro.config import SsdSpec
from repro.nand.block import Block
from repro.nand.chip_types import MLC_3D_48L, TLC_2D_2XNM, TLC_3D_48L
from repro.nand.geometry import BlockAddress
from repro.rng import make_rng


@pytest.fixture
def profile():
    """The main-study chip profile (3D TLC 48L)."""
    return TLC_3D_48L


@pytest.fixture(params=[TLC_3D_48L, TLC_2D_2XNM, MLC_3D_48L], ids=lambda p: p.name)
def any_profile(request):
    """Parametrized over all three characterized chip families."""
    return request.param


@pytest.fixture
def rng():
    return make_rng(12345)


@pytest.fixture
def small_spec():
    return SsdSpec.small_test()


def make_block(profile, age_kilocycles: float = 0.0, seed: int = 777, index: int = 0, pages: int = 32) -> Block:
    """Standalone test block at a given wear age."""
    block = Block(
        address=BlockAddress(0, 0, 0, index),
        profile=profile,
        pages=pages,
        seed=seed,
    )
    block.wear.age_kilocycles = age_kilocycles
    block.wear.pec = int(age_kilocycles * 1000)
    return block


@pytest.fixture
def block_factory():
    return make_block


@pytest.fixture
def damage_row():
    """``damage_row(root, key, "version = ?", 1)`` runs one UPDATE on
    the stored row of ``key`` — the way bit rot, a torn write or an
    older library version would have left it."""

    def damage(root, key, assignment, *params):
        with closing(sqlite3.connect(Path(root) / "results.sqlite")) as db:
            with db:
                updated = db.execute(
                    f"UPDATE results SET {assignment} WHERE key = ?",
                    (*params, key),
                ).rowcount
        assert updated == 1, f"no stored row for {key}"

    return damage
