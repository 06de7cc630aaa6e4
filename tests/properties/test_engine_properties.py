"""Property-based tests for the event engine's ordering guarantees.

The engine must fire events in exactly ``(time, seq)`` order — ties,
cancellations, re-arms from callbacks and heap compaction included.
The reference model is a plain stable sort of the schedule calls.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.engine import _COMPACT_FLOOR

#: A 64 µs grid and its 4,096th multiple: the float edge cases below
#: are exact grid multiples and their one-ulp neighbours, where
#: ``int(time / 64e-6)``-style arithmetic rounds most unevenly.
_GRID = 64e-6
_GRID_SPAN = 4096


@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
@settings(max_examples=200)
def test_events_always_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=10.0,
                                    allow_nan=False),
                          st.integers(min_value=0, max_value=4)),
                min_size=1, max_size=100))
@settings(max_examples=100)
def test_same_timestamp_fifo_even_with_duplicates(entries):
    sim = Simulator()
    fired = []
    for index, (delay, bucket) in enumerate(entries):
        # Quantize delays so duplicates are common.
        sim.schedule(round(delay, 1), lambda i=index: fired.append(i))
    sim.run()
    # Among events with equal timestamps, scheduling order is preserved.
    by_time = {}
    for index, (delay, _) in enumerate(entries):
        by_time.setdefault(round(delay, 1), []).append(index)
    position = {event: pos for pos, event in enumerate(fired)}
    for group in by_time.values():
        group_positions = [position[e] for e in group]
        assert group_positions == sorted(group_positions)


@given(st.lists(st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
                min_size=2, max_size=50),
       st.data())
@settings(max_examples=100)
def test_cancellation_removes_only_cancelled_events(delays, data):
    sim = Simulator()
    fired = []
    handles = [sim.schedule(d, lambda i=i: fired.append(i))
               for i, d in enumerate(delays)]
    to_cancel = data.draw(st.sets(st.integers(0, len(delays) - 1)))
    for index in to_cancel:
        handles[index].cancel()
    sim.run()
    assert set(fired) == set(range(len(delays))) - to_cancel


# Delays spanning a few milliseconds, a few hundred milliseconds and a
# few seconds, quantized so ties are common.
_delays = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
        st.floats(min_value=0.2, max_value=0.3, allow_nan=False),
        st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
    ).map(lambda d: round(d, 4)),
    min_size=1, max_size=120)


def _grid_time(index: int, nudge: int) -> float:
    """The grid multiple ``index * _GRID``, or its adjacent float one
    ulp below/above (``nudge`` -1/0/+1)."""
    time = index * _GRID
    if nudge < 0:
        return math.nextafter(time, 0.0)
    if nudge > 0:
        return math.nextafter(time, math.inf)
    return time


# Grid multiples (including the span boundary and its neighbours) and
# their one-ulp float neighbours.
_grid_delays = st.lists(
    st.tuples(
        st.one_of(
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=_GRID_SPAN - 3, max_value=_GRID_SPAN + 3),
            st.integers(min_value=0, max_value=2 * _GRID_SPAN),
        ),
        st.integers(min_value=-1, max_value=1),
    ).map(lambda pair: _grid_time(*pair)),
    min_size=1, max_size=120)


def _stable_order(delays):
    """Indices of ``delays`` in (time, schedule order) order."""
    return [i for _, i in sorted((d, i) for i, d in enumerate(delays))]


@given(_delays)
@settings(max_examples=150)
def test_global_order_with_ties_is_the_stable_sort(delays):
    sim = Simulator()
    fired = []
    for index, delay in enumerate(delays):
        sim.schedule(delay, lambda i=index: fired.append(i))
    sim.run()
    assert fired == _stable_order(delays)


@given(_grid_delays)
@settings(max_examples=150)
def test_grid_times_fire_in_exact_global_order(delays):
    """Grid multiples and their one-ulp neighbours fire in exact
    (time, seq) order: no event is reordered or delayed."""
    sim = Simulator()
    fired = []
    for index, delay in enumerate(delays):
        sim.schedule(delay, lambda i=index: fired.append(i))
    sim.run()
    assert fired == _stable_order(delays)


@given(_grid_delays, _grid_delays)
@settings(max_examples=100)
def test_grid_times_rescheduled_mid_run_keep_order(first, second):
    """A second wave of grid times scheduled from a callback, with the
    clock off the grid, interleaves exactly with the first."""
    sim = Simulator()
    fired = []

    def arm_second_wave():
        for delay in second:
            sim.schedule(delay, lambda t=sim.now + delay: fired.append(t))

    for delay in first:
        sim.schedule(delay, lambda t=delay: fired.append(t))
    sim.schedule(3.5 * _GRID, arm_second_wave)
    sim.run()
    assert fired == sorted(fired)


@given(_delays, st.data())
@settings(max_examples=100)
def test_cancellation_keeps_the_global_order_of_the_rest(delays, data):
    sim = Simulator()
    fired = []
    handles = [sim.schedule(d, lambda i=i: fired.append(i))
               for i, d in enumerate(delays)]
    cancelled = data.draw(st.sets(st.integers(0, len(delays) - 1)))
    for index in cancelled:
        handles[index].cancel()
    sim.run()
    assert fired == [i for i in _stable_order(delays) if i not in cancelled]


@given(_delays)
@settings(max_examples=100)
def test_rescheduling_from_callbacks_preserves_order(delays):
    """Events scheduled while running (the periodic-timer shape) still
    interleave correctly with everything already queued."""
    sim = Simulator()
    fired = []

    def fire_and_rearm(i, d):
        fired.append(sim.now)
        if d > 0.001:
            sim.schedule(d / 2, fire_and_rearm, i, d / 2)

    for index, delay in enumerate(delays):
        sim.schedule(delay, fire_and_rearm, index, delay)
    sim.run()
    assert fired == sorted(fired)


# Quarter-millisecond ticks over 10 ms: live events, debris and
# post-compaction events tie often.
_ticks = st.integers(min_value=0, max_value=40).map(lambda k: k * 0.25e-3)


@given(st.lists(_ticks, min_size=1, max_size=40),
       st.lists(_ticks, min_size=1, max_size=20),
       _ticks,
       st.integers(min_value=1, max_value=64))
@settings(max_examples=60)
def test_compaction_between_and_inside_runs_keeps_order(first, second,
                                                        trigger, extra):
    """Cancelling more than the compaction floor and more than the live
    count compacts the heap: once between runs, and once from a callback
    while ``run`` holds its heap reference.  The live events still fire
    as the stable sort of their schedule calls, events scheduled after
    the in-run compaction included, and the accounting stays exact."""
    sim = Simulator()
    debris = _COMPACT_FLOOR + extra
    calls = []  # the time of every live schedule call, in call order
    fired = []

    def schedule_live(time, callback=None):
        index = len(calls)
        calls.append(time)
        if callback is None:
            sim.schedule_at(time, fired.append, index)
        else:
            sim.schedule_at(time, callback, index)

    def cancel_debris(base):
        handles = [sim.schedule_at(base + (k % 20) * 0.25e-3,
                                   fired.append, "debris")
                   for k in range(debris)]
        for handle in handles:
            handle.cancel()
        stats = sim.queue_stats()
        assert stats["cancelled"] < debris  # the heap was compacted
        assert stats["live"] + stats["cancelled"] == stats["heap"]
        assert stats["live"] == sim.pending_events

    def compact_inside_run(index):
        fired.append(index)
        cancel_debris(sim.now)
        for delay in second:
            schedule_live(sim.now + delay)

    midpoint = 5e-3
    for time in first:
        schedule_live(time)
    schedule_live(midpoint + 0.25e-3 + trigger, compact_inside_run)
    sim.run(until=midpoint)
    cancel_debris(midpoint + 0.25e-3)
    sim.run()

    assert fired == [i for _, i in sorted((t, i) for i, t in enumerate(calls))]
    assert sim.queue_stats() == {"live": 0, "cancelled": 0, "heap": 0}
    assert sim.pending_events == 0
