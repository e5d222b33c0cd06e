"""SSD configuration objects."""

import dataclasses
import pickle

import pytest

from repro.config import GcSpec, SchedulerSpec, SsdSpec
from repro.errors import ConfigError
from repro.nand.chip_types import MLC_3D_48L, TLC_2D_2XNM, TLC_3D_48L
from repro.nand.geometry import NandGeometry
from repro.units import KIB


def test_table2_defaults():
    spec = SsdSpec.paper_table2()
    assert spec.overprovisioning == 0.20
    assert spec.geometry.channels == 8
    assert spec.geometry.chips_per_channel == 2
    assert spec.profile.name == "3D-TLC-48L"
    assert spec.scheduler.erase_suspension


def test_logical_capacity_excludes_op():
    spec = SsdSpec.small_test()
    assert spec.logical_pages == int(spec.geometry.pages * 0.8)
    assert spec.logical_bytes == spec.logical_pages * spec.geometry.page_size


def test_page_transfer_time():
    spec = SsdSpec.small_test()
    # 4 KiB at 1200 MB/s ~ 3.4 us.
    assert spec.page_transfer_us == pytest.approx(4096 / 1200.0)


def test_with_scheduler_override():
    spec = SsdSpec.small_test()
    no_suspend = spec.with_scheduler(erase_suspension=False)
    assert not no_suspend.scheduler.erase_suspension
    assert spec.scheduler.erase_suspension  # original untouched


def test_validation():
    with pytest.raises(ConfigError):
        SsdSpec(overprovisioning=0.95)
    with pytest.raises(ConfigError):
        SsdSpec(channel_mb_per_s=0.0)
    with pytest.raises(ConfigError):
        GcSpec(low_watermark=5, high_watermark=5)
    with pytest.raises(ConfigError):
        # Geometry too small for GC watermarks.
        SsdSpec(
            geometry=NandGeometry(
                channels=1, chips_per_channel=1, planes_per_chip=1,
                blocks_per_plane=6, pages_per_block=8, page_size=4096,
            )
        )


def test_canned_configs_valid():
    for spec in (SsdSpec.small_test(), SsdSpec.bench()):
        assert spec.logical_pages > 0
        assert spec.geometry.blocks_per_plane > spec.gc.high_watermark


def _livelock_spec(overprovisioning):
    return SsdSpec(
        geometry=NandGeometry(
            channels=2, chips_per_channel=1, planes_per_chip=1,
            blocks_per_plane=16, pages_per_block=16, page_size=4 * KIB,
        ),
        profile=MLC_3D_48L,
        overprovisioning=overprovisioning,
        gc=GcSpec(low_watermark=3, high_watermark=4),
        seed=65853,
    )


def test_logical_space_must_fit_beside_the_gc_reserve():
    """A plane's logical pages must fit in fewer pages than the GC
    victim candidates hold, or greedy GC can move fully valid blocks
    forever. This drive (ceil(435 / 2) = 218 logical pages per plane
    against (16 - 3 - 1) x 16 = 192) would livelock preconditioning on
    both engines, so building its spec fails."""
    with pytest.raises(ConfigError, match="logical space too large for GC"):
        _livelock_spec(0.15)
    # 179 logical pages per plane fit under the same 192-page bound.
    assert _livelock_spec(0.30).logical_pages == 358
    # The canned drives sit under the bound (small_test: 615 < 640).
    SsdSpec.small_test(), SsdSpec.bench(), SsdSpec.paper_table2()


def test_scheduler_spec_defaults():
    scheduler = SchedulerSpec()
    assert scheduler.user_priority
    assert scheduler.suspend_overhead_us >= 0
    assert scheduler.gc_escalation_backlog >= 1


def _generated_text(value):
    """The text a dataclass-generated ``repr`` renders, rebuilt from
    ``dataclasses.fields`` (nested dataclasses the same way)."""
    if not dataclasses.is_dataclass(value):
        return repr(value)
    inner = ", ".join(
        f"{field.name}={_generated_text(getattr(value, field.name))}"
        for field in dataclasses.fields(value)
        if field.repr
    )
    return f"{type(value).__qualname__}({inner})"


#: Every chip profile and canned drive a fingerprint renders.
SPEC_TEXTS = {
    "TLC_3D_48L": TLC_3D_48L,
    "TLC_2D_2XNM": TLC_2D_2XNM,
    "MLC_3D_48L": MLC_3D_48L,
    "SsdSpec()": SsdSpec(),
    "small_test": SsdSpec.small_test(),
    "bench": SsdSpec.bench(),
}


@pytest.mark.parametrize("name", SPEC_TEXTS)
def test_spec_text_renders_once_per_instance(name):
    spec = SPEC_TEXTS[name]
    expected = _generated_text(spec)
    fresh = dataclasses.replace(spec)  # an equal instance, not rendered yet
    first = repr(fresh)
    assert first == expected
    assert repr(fresh) is first  # later calls return the rendered text
    assert repr(spec) == expected
    assert repr(pickle.loads(pickle.dumps(fresh))) == expected
    assert repr(pickle.loads(pickle.dumps(spec))) == expected
    # A replaced copy renders its own text, never its source's.
    if isinstance(spec, SsdSpec):
        changed = dataclasses.replace(spec, seed=spec.seed + 1)
    else:
        changed = dataclasses.replace(spec, name=spec.name + "-copy")
    assert repr(changed) == _generated_text(changed) != expected


@pytest.mark.parametrize("first", ["float", "int"])
def test_equal_specs_render_their_own_text(first):
    """``3`` and ``3.0`` are equal and hash alike but render apart, so a
    memo keyed by value would hand one spec the other's text."""
    spec = SsdSpec.small_test(seed=1)
    twin = dataclasses.replace(spec, controller_overhead_us=3)
    assert spec == twin and hash(spec) == hash(twin)
    for value in ((spec, twin) if first == "float" else (twin, spec)):
        assert repr(value) == _generated_text(value)
    assert "controller_overhead_us=3.0," in repr(spec)
    assert "controller_overhead_us=3," in repr(twin)
