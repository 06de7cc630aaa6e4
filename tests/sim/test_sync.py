"""The conservative lockstep window rule: unit tests and properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.runner import ClusterCoordinator
from repro.net.fabric import FabricSpec, ToRSwitch
from repro.sim.sync import LockstepBarrier


class TestLockstepBarrier:
    def test_lookahead_must_be_positive(self):
        with pytest.raises(ValueError, match="lookahead"):
            LockstepBarrier(0.0)
        with pytest.raises(ValueError, match="lookahead"):
            LockstepBarrier(-1e-6)

    def test_window_is_earliest_event_plus_lookahead(self):
        barrier = LockstepBarrier(1e-5)
        assert barrier.next_window(1.0, [0.2, 0.5], []) == \
            pytest.approx(0.2 + 1e-5)

    def test_idle_engines_are_ignored(self):
        barrier = LockstepBarrier(1e-5)
        assert barrier.next_window(1.0, [None, 0.3, None], []) == \
            pytest.approx(0.3 + 1e-5)

    def test_pending_arrivals_bound_the_window_too(self):
        # A routed-but-undelivered message is work below the horizon
        # even when every engine's own queue is empty.
        barrier = LockstepBarrier(1e-5)
        assert barrier.next_window(1.0, [None, None], [0.1]) == \
            pytest.approx(0.1 + 1e-5)
        assert barrier.next_window(1.0, [0.5], [0.1]) == \
            pytest.approx(0.1 + 1e-5)

    def test_no_work_below_horizon_runs_to_until(self):
        barrier = LockstepBarrier(1e-5)
        assert barrier.next_window(1.0, [None, None], []) == 1.0
        assert barrier.next_window(1.0, [2.0], [1.5]) == 1.0

    def test_window_clamps_at_until(self):
        barrier = LockstepBarrier(0.5)
        assert barrier.next_window(1.0, [0.9], []) == 1.0

    def test_window_counter_counts_bounded_windows_only(self):
        barrier = LockstepBarrier(1e-5)
        barrier.next_window(1.0, [None], [])  # free run: not a round
        assert barrier.windows == 0
        barrier.next_window(1.0, [0.2], [])
        barrier.next_window(1.0, [0.4], [])
        assert barrier.windows == 2


# ----------------------------------------------------------------------
# The frontier window rule, on generated inputs, through the real
# coordinator and ToR with stand-in hosts.
# ----------------------------------------------------------------------

_LATENCY = 2e-5


class _StandInHost:
    """A host runner that transmits at drawn instants.

    An exact stand-in emits each frame when its clock passes it and
    reports its next send as its frontier.  A collapsed one also hands
    out, ahead of its clock, every send below a drawn horizon, and
    reports the first send it has not handed out.  Every injected
    arrival is checked against the host's clock.
    """

    def __init__(self, index, sends, collapsed, aheads, targets):
        self.index = index
        self.sends = sorted(sends)
        self.collapsed = collapsed
        self.aheads = list(aheads)
        self.targets = targets
        self.clock = 0.0
        self.handed = 0
        self.received = []
        self._step = None

    def peek(self):
        return self.sends[0] if self.sends else None

    def advance_begin(self, window_end, inbound, until, rx_bps):
        for _dst, _shape, arrivals, _created, _counts in inbound:
            for arrival in arrivals:
                assert self.clock <= arrival <= window_end
                self.received.append(arrival)
        assert window_end <= until
        self.clock = window_end
        horizon = window_end
        if self.collapsed and self.aheads:
            horizon = min(until, window_end + self.aheads.pop())
        batches = []
        while self.handed < len(self.sends):
            t = self.sends[self.handed]
            if not (t <= window_end or t < horizon):
                break
            dst = self.targets[self.handed % len(self.targets)]
            batches.append(((self.index, self.index, dst, 1500, 0, "udp",
                             self.index), [t], [self.handed], [t]))
            self.handed += 1
        frontier = (self.sends[self.handed]
                    if self.handed < len(self.sends) else None)
        self._step = (batches, frontier, self.collapsed)

    def advance_finish(self):
        step, self._step = self._step, None
        return step


_HOSTS = st.lists(
    st.tuples(st.lists(st.floats(min_value=0.0, max_value=1e-3,
                                 allow_nan=False), max_size=12),
              st.booleans(),
              st.lists(st.floats(min_value=0.0, max_value=5e-4,
                                 allow_nan=False), max_size=8)),
    min_size=2, max_size=4)


@given(_HOSTS, st.floats(min_value=1e-4, max_value=1e-3, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_frontier_windows_never_inject_into_the_past(hosts, until):
    count = len(hosts)
    runners = [_StandInHost(i, sends, collapsed, aheads,
                            [j for j in range(count) if j != i])
               for i, (sends, collapsed, aheads) in enumerate(hosts)]
    tor = ToRSwitch(FabricSpec(latency_s=_LATENCY), count)
    for index in range(count):
        tor.learn(index, index)
    windows = []
    coordinator = ClusterCoordinator(runners, tor, _LATENCY)
    next_window = coordinator.barrier.next_window

    def recording(*args):
        window = next_window(*args)
        windows.append(window)
        return window

    coordinator.barrier.next_window = recording
    routed = {}
    route = tor.route

    def recording_route(batch):
        shape, times, seqs = batch[:3]
        routed.setdefault(shape[2], []).extend(
            (t, shape[0], seq) for t, seq in zip(times, seqs))
        return route(batch)

    tor.route = recording_route
    coordinator.run(until)
    # Frames handed out early still reach each destination's egress port
    # in the global (t, source, sequence) order.
    for frames in routed.values():
        assert frames == sorted(frames)
    assert windows and all(w <= until for w in windows)
    assert windows == sorted(windows)
    assert all(runner.clock == until for runner in runners)
    # Every frame sent by ``until`` was routed exactly once, and each
    # host saw its arrivals in increasing order.
    sent = sum(1 for runner in runners for t in runner.sends if t <= until)
    assert tor.offered == sent
    for runner in runners:
        assert runner.received == sorted(runner.received)


@given(st.lists(st.one_of(st.none(),
                          st.floats(min_value=0.0, max_value=2.0,
                                    allow_nan=False)),
                min_size=1, max_size=5),
       st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                          st.floats(min_value=0.0, max_value=2.0,
                                    allow_nan=False)), max_size=6),
       st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_exact_only_inputs_keep_the_old_window(peeks, routed, until):
    # With no collapsed host, a host's frontier is its next event or its
    # earliest pending arrival, so the window is the pre-frontier rule:
    # the earliest of every peek and every pending arrival, plus L.
    count = len(peeks)
    runners = [_StandInHost(i, [], False, [], [0]) for i in range(count)]
    coordinator = ClusterCoordinator(runners, ToRSwitch(FabricSpec(), count),
                                     1e-5)
    coordinator.frontiers = list(peeks)
    arrivals_by_host = {}
    for dst, arrival in routed:
        arrivals_by_host.setdefault(dst % count, []).append(arrival)
    for dst, arrivals in arrivals_by_host.items():
        arrivals.sort()
        coordinator.pending[dst].append(
            (dst, None, arrivals, arrivals, None))
    window = coordinator.barrier.next_window(until,
                                             *coordinator._floor_inputs())
    candidates = [p for p in peeks if p is not None and p <= until]
    candidates += [a for _dst, a in routed if a <= until]
    expected = (min(until, min(candidates) + 1e-5) if candidates
                else until)
    assert window == expected
