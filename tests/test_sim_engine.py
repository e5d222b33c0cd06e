"""Discrete-event engine semantics."""

import pytest

from repro.errors import SchedulingError
from repro.rng import make_rng
from repro.sim.engine import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.at(30.0, lambda: fired.append("c"))
    sim.at(10.0, lambda: fired.append("a"))
    sim.at(20.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30.0


def test_same_time_events_fifo():
    sim = Simulator()
    fired = []
    for tag in "abcd":
        sim.at(5.0, lambda t=tag: fired.append(t))
    sim.run()
    assert fired == list("abcd")


def test_after_is_relative():
    sim = Simulator()
    times = []
    sim.at(100.0, lambda: sim.after(50.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [150.0]


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.at(10.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.at(5.0, lambda: None)
    with pytest.raises(SchedulingError):
        sim.after(-1.0, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    event = sim.at(10.0, lambda: fired.append("x"))
    sim.at(5.0, lambda: event.cancel())
    sim.run()
    assert fired == []


def test_run_until_horizon():
    sim = Simulator()
    fired = []
    sim.at(10.0, lambda: fired.append(1))
    sim.at(100.0, lambda: fired.append(2))
    sim.run(until=50.0)
    assert fired == [1]
    assert sim.now == 50.0
    sim.run()
    assert fired == [1, 2]


def test_cascading_events():
    sim = Simulator()
    counter = []

    def chain(depth):
        counter.append(depth)
        if depth < 5:
            sim.after(1.0, lambda: chain(depth + 1))

    sim.at(0.0, lambda: chain(0))
    sim.run()
    assert counter == list(range(6))


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.after(1.0, forever)

    sim.at(0.0, forever)
    with pytest.raises(SchedulingError):
        sim.run(max_events=100)


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.at(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


# --- property-style checks over random schedules -------------------------------


def test_property_fifo_tiebreak_random_schedules():
    """Events always fire sorted by (time, submission order).

    Random schedules draw times from a tiny domain so many events
    collide on the same instant; the firing order must equal a stable
    sort of the submission order by time.
    """
    rng = make_rng(0x51E)
    for _ in range(25):
        sim = Simulator()
        times = rng.integers(0, 8, size=50)
        fired = []
        for index, time in enumerate(times):
            sim.at(float(time), lambda t=int(time), i=index: fired.append((t, i)))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == 50


def test_property_cancellation_random_subsets():
    """Cancelled events never fire; survivors keep their FIFO order."""
    rng = make_rng(0xCA9C)
    for _ in range(25):
        sim = Simulator()
        times = rng.integers(0, 8, size=40)
        cancel_mask = rng.random(40) < 0.4
        fired = []
        events = []
        for index, time in enumerate(times):
            events.append(
                sim.at(float(time), lambda t=int(time), i=index: fired.append((t, i)))
            )
        for event, cancel in zip(events, cancel_mask):
            if cancel:
                event.cancel()
        sim.run()
        expected = sorted(
            (int(t), i)
            for i, (t, cancel) in enumerate(zip(times, cancel_mask))
            if not cancel
        )
        assert fired == expected


def test_cancel_after_firing_is_a_noop():
    sim = Simulator()
    fired = []
    event = sim.at(1.0, lambda: fired.append("x"))
    sim.run()
    assert fired == ["x"]
    event.cancel()  # already fired: must not raise or un-fire
    event.cancel()  # idempotent
    assert fired == ["x"]
    assert sim.step() is False


def test_cancel_twice_before_firing_is_idempotent():
    sim = Simulator()
    fired = []
    event = sim.at(1.0, lambda: fired.append("x"))
    event.cancel()
    event.cancel()
    sim.run()
    assert fired == []


def test_property_run_until_clamps_and_preserves_later_events():
    """run(until=h) fires exactly the events with time <= h, sets now == h,
    and leaves every later event queued and still runnable."""
    rng = make_rng(0x0717)
    for _ in range(25):
        sim = Simulator()
        times = sorted(float(t) for t in rng.integers(0, 100, size=30))
        horizon = float(rng.integers(0, 100))
        fired = []
        for time in times:
            sim.at(time, lambda t=time: fired.append(t))
        sim.run(until=horizon)
        assert fired == [t for t in times if t <= horizon]
        assert sim.now == horizon
        sim.run()
        assert fired == times
        assert sim.now == max([horizon] + times)


def test_run_until_fires_event_exactly_at_horizon():
    sim = Simulator()
    fired = []
    sim.at(50.0, lambda: fired.append("edge"))
    sim.run(until=50.0)
    assert fired == ["edge"]
    assert sim.now == 50.0


def test_run_until_on_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=25.0)
    assert sim.now == 25.0
    sim.run(until=10.0)  # horizon in the past: clock never goes backwards
    assert sim.now == 25.0
