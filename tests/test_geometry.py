"""NAND geometry and addressing."""

from itertools import product

import pytest

from repro.errors import AddressError, ConfigError
from repro.nand.geometry import BlockAddress, NandGeometry, PageAddress


@pytest.fixture
def geometry():
    return NandGeometry(
        channels=2,
        chips_per_channel=2,
        planes_per_chip=2,
        blocks_per_plane=4,
        pages_per_block=8,
        page_size=4096,
    )


def test_table2_defaults_match_paper():
    geometry = NandGeometry()
    assert geometry.channels == 8
    assert geometry.chips_per_channel == 2
    assert geometry.planes_per_chip == 4
    assert geometry.blocks_per_plane == 497
    assert geometry.pages_per_block == 2112
    assert geometry.page_size == 16 * 1024
    # 1024 GB-class raw capacity (Table 2).
    assert geometry.capacity_bytes > 1000 * 1024 ** 3


def test_derived_counts(geometry):
    assert geometry.chips == 4
    assert geometry.planes == 8
    assert geometry.blocks == 32
    assert geometry.pages == 256


def test_rejects_nonpositive_fields():
    with pytest.raises(ConfigError):
        NandGeometry(channels=0)
    with pytest.raises(ConfigError):
        NandGeometry(pages_per_block=-1)


def test_block_index_round_trip(geometry):
    """Channel-major addresses index [0, blocks) in order."""
    addresses = [
        BlockAddress(*fields)
        for fields in product(range(2), range(2), range(2), range(4))
    ]
    indices = [geometry.block_index(address) for address in addresses]
    assert indices == list(range(geometry.blocks))


def test_page_index_round_trip(geometry):
    address = PageAddress(1, 0, 1, 3, 7)
    block = geometry.block_index(address.block_address)
    assert block == 16 + 4 + 3


def test_out_of_range_rejected(geometry):
    with pytest.raises(AddressError):
        geometry.check_block(BlockAddress(2, 0, 0, 0))
    with pytest.raises(AddressError):
        geometry.block_index(BlockAddress(0, 0, 0, 4))
    with pytest.raises(AddressError):
        geometry.block_index(PageAddress(0, 2, 0, 0, 0).block_address)


def test_address_navigation():
    block = BlockAddress(1, 0, 2, 3)
    page = block.page(5)
    assert page.block_address == block
    assert "blk3" in str(block)
    assert "pg5" in str(page)


def test_addresses_are_ordered_and_hashable():
    a = BlockAddress(0, 0, 0, 1)
    b = BlockAddress(0, 0, 0, 2)
    assert a < b
    assert len({a, b, BlockAddress(0, 0, 0, 1)}) == 2
