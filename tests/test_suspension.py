"""Erase suspension: segment cursor replay semantics."""

import pytest

from repro.erase.suspension import SegmentCursor
from repro.errors import SimulationError


def test_remaining_and_advance():
    cursor = SegmentCursor([1000.0, 100.0, 500.0])
    assert cursor.remaining() == pytest.approx(1600.0)
    used = cursor.advance(1000.0)
    assert used == pytest.approx(1000.0)
    assert cursor.remaining() == pytest.approx(600.0)
    cursor.advance(600.0)
    assert cursor.finished


def test_advance_stops_at_completion():
    cursor = SegmentCursor([200.0])
    used = cursor.advance(999.0)
    assert used == pytest.approx(200.0)
    assert cursor.finished


def test_mid_segment_suspend_resume_overhead():
    cursor = SegmentCursor([1000.0])
    cursor.advance(300.0)
    cursor.suspend()
    assert cursor.suspended
    cursor.resume(40.0)
    # Remaining = 700 left + 40 ramp overhead.
    assert cursor.remaining() == pytest.approx(740.0)
    cursor.advance(740.0)
    assert cursor.finished
    assert cursor.count == 1


def test_multiple_suspensions_accumulate_overhead():
    cursor = SegmentCursor([1000.0])
    for _ in range(3):
        cursor.advance(100.0)
        cursor.suspend()
        cursor.resume(25.0)
        cursor.advance(25.0)  # consume the ramp overhead
    assert cursor.count == 3
    # Each ramp ran before any segment time: 3 x 100 of 1000 elapsed.
    assert cursor.remaining() == pytest.approx(700.0)


def test_cannot_advance_while_suspended():
    cursor = SegmentCursor([100.0])
    cursor.suspend()
    with pytest.raises(SimulationError):
        cursor.advance(10.0)


def test_cannot_double_suspend_or_resume_idle():
    cursor = SegmentCursor([100.0])
    cursor.suspend()
    with pytest.raises(SimulationError):
        cursor.suspend()
    cursor.resume(40.0)
    with pytest.raises(SimulationError):
        cursor.resume(40.0)


def test_cannot_suspend_finished():
    cursor = SegmentCursor([50.0])
    cursor.advance(50.0)
    with pytest.raises(SimulationError):
        cursor.suspend()


def test_negative_advance_rejected():
    cursor = SegmentCursor([50.0])
    with pytest.raises(SimulationError):
        cursor.advance(-1.0)


def test_current_segment_tracking():
    """The boundary is the time left in the segment now elapsing."""
    cursor = SegmentCursor([100.0, 10.0])
    assert cursor.boundary() == 100.0
    cursor.advance(30.0)
    assert cursor.boundary() == pytest.approx(70.0)
    cursor.advance(70.0)
    assert cursor.boundary() == 10.0
    cursor.advance(10.0)
    assert cursor.boundary() == 0.0
