"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.sim import Simulator, SimulationError


def test_schedule_and_run_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_run_until_horizon_leaves_future_events_queued():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["early", "late"]


def test_horizon_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.cancel(handle)
    sim.run()
    assert fired == []
    assert sim.pending_events == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


@pytest.mark.parametrize("call", ["schedule", "schedule_at"])
def test_nan_time_rejected_without_touching_the_queue(call):
    # A NaN or negative delay, or a NaN or past time, raises before the
    # queue or the sequence counter moves.
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    stats = sim.queue_stats()
    for value in (math.nan, math.nan, -1e-12, -math.inf):
        with pytest.raises(SimulationError):
            getattr(sim, call)(value, lambda: None)
    assert sim.pending_events == 1
    assert sim.queue_stats() == stats
    assert sim.schedule(2.0, lambda: None).seq == 1
    sim.run()
    assert sim.now == 2.0


def test_run_until_nan_rejected_before_dispatching():
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        if len(fired) >= 100:
            raise AssertionError("run(until=nan) kept dispatching")
        sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    with pytest.raises(SimulationError):
        sim.run(until=math.nan)
    assert fired == []
    assert sim.now == 0.0
    sim.run(until=2.5)  # not left marked as running
    assert fired == [1.0, 2.0]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_step_executes_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.step() is True
    assert sim.step() is False


def test_peek_reports_next_live_event():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.peek() == 1.0
    handle.cancel()
    assert sim.peek() == 2.0


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_zero_delay_self_scheduling_respects_fifo():
    sim = Simulator()
    order = []
    sim.schedule(0.0, lambda: order.append("first"))
    sim.schedule(0.0, lambda: (order.append("second"), sim.schedule(0.0, order.append, "third")))
    sim.run()
    assert order == ["first", "second", "third"]


def test_event_exactly_at_horizon_fires():
    # `until` is inclusive: an event scheduled exactly at the horizon
    # executes, and the clock lands exactly on the horizon.
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "edge")
    sim.run(until=2.0)
    assert fired == ["edge"]
    assert sim.now == 2.0
    assert sim.pending_events == 0


def test_clock_lands_exactly_on_horizon_after_earlier_events():
    sim = Simulator()
    sim.schedule(0.3, lambda: None)
    sim.run(until=1.0)
    assert sim.now == 1.0


def test_heap_of_cancelled_handles_drains_without_firing():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(1.0, fired.append, n) for n in range(50)]
    for handle in handles:
        handle.cancel()
    assert sim.pending_events == 0
    assert sim.peek() is None  # peek discards the cancelled prefix
    sim.run()
    assert fired == []
    assert sim.events_executed == 0
    assert sim.now == 0.0


def test_peek_skips_cancelled_prefix_but_keeps_live_tail():
    sim = Simulator()
    fired = []
    cancelled = [sim.schedule(1.0, fired.append, n) for n in range(10)]
    sim.schedule(2.0, fired.append, "live")
    for handle in cancelled:
        handle.cancel()
    assert sim.pending_events == 1
    assert sim.peek() == 2.0
    sim.run()
    assert fired == ["live"]


def test_start_time_offset():
    sim = Simulator(start_time=100.0)
    fired = []
    sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [101.0]


def test_schedule_and_schedule_at_interleave_in_time_seq_order():
    # ``schedule(d)`` pushes its own event; mixed with ``schedule_at(now
    # + d)`` calls, at start and from inside a callback, every event
    # must fire in (time, seq) order, ties in call order.
    sim = Simulator(start_time=0.25)
    handles = []
    fired = []
    delays = [1e-6, 0.0, 64e-6, 1e-6, 0.0, 0.5, 64e-6, 1e-6]

    def burst():
        for k, delay in enumerate(delays):
            if k % 2:
                handle = sim.schedule_at(sim.now + delay, fired.append,
                                         len(handles))
            else:
                handle = sim.schedule(delay, fired.append, len(handles))
            assert handle.time == sim.now + delay
            handles.append(handle)

    burst()
    handles.append(sim.schedule(0.1, burst))
    sim.run()
    assert [handle.seq for handle in handles] == list(range(len(handles)))
    events = [h for h in handles if h.callback == fired.append]
    assert len(events) == 2 * len(delays)
    events.sort(key=lambda h: (h.time, h.seq))
    assert fired == [handles.index(h) for h in events]
