"""Unit tests for CPU cycle accounting and the saturating executor."""

import pytest

from repro.hw import CpuCore, Executor, Machine
from repro.sim import Simulator


def test_charge_and_utilization():
    sim = Simulator()
    core = CpuCore(sim, 0, clock_hz=1e9)
    core.charge("guest", 5e8)
    assert core.utilization(elapsed=1.0, label="guest") == pytest.approx(0.5)
    assert core.utilization(elapsed=1.0) == pytest.approx(0.5)


def test_charge_accumulates_per_label():
    sim = Simulator()
    core = CpuCore(sim, 0, clock_hz=1e9)
    core.charge("xen", 100)
    core.charge("xen", 200)
    core.charge("dom0", 50)
    assert core.cycles("xen") == 300
    assert core.cycles() == 350
    assert core.labels() == ["dom0", "xen"]


def test_negative_charge_rejected():
    core = CpuCore(Simulator(), 0)
    with pytest.raises(ValueError):
        core.charge("x", -1)


def test_machine_utilization_percent_xentop_convention():
    """100% = one fully busy hardware thread."""
    sim = Simulator()
    machine = Machine(sim, core_count=4, clock_hz=1e9)
    sim.run(until=1.0)
    machine.cores[0].charge("dom0", 1e9)   # one core fully busy
    machine.cores[1].charge("dom0", 5e8)   # half a core
    assert machine.utilization_percent("dom0") == pytest.approx(150.0)


def test_machine_breakdown_covers_all_labels():
    sim = Simulator()
    machine = Machine(sim, core_count=2, clock_hz=1e9)
    sim.run(until=2.0)
    machine.cores[0].charge("guest1", 2e9)
    machine.cores[1].charge("xen", 1e9)
    breakdown = machine.utilization_breakdown()
    assert breakdown == {
        "guest1": pytest.approx(100.0),
        "xen": pytest.approx(50.0),
    }


def test_start_measurement_resets_window():
    sim = Simulator()
    machine = Machine(sim, core_count=1, clock_hz=1e9)
    machine.cores[0].charge("x", 1e9)
    sim.run(until=1.0)
    machine.start_measurement()
    assert machine.cycles() == 0
    assert machine.elapsed == 0
    sim.schedule(1.0, lambda: machine.cores[0].charge("x", 5e8))
    sim.run(until=2.0)
    # Window is [1.0, 2.0] -> 5e8 cycles over 1 s on a 1 GHz core.
    assert machine.utilization_percent("x") == pytest.approx(50.0)


def test_machine_validates_core_count():
    with pytest.raises(ValueError):
        Machine(Simulator(), core_count=0)


def test_executor_serializes_work_at_clock_rate():
    sim = Simulator()
    core = CpuCore(sim, 0, clock_hz=1e9)
    executor = Executor(sim, core, "netback")
    done_times = []
    executor.submit(1e6, lambda: done_times.append(sim.now))  # 1 ms
    executor.submit(2e6, lambda: done_times.append(sim.now))  # 2 ms
    sim.run()
    assert done_times == [pytest.approx(1e-3), pytest.approx(3e-3)]
    assert executor.completed == 2
    assert core.cycles("netback") == pytest.approx(3e6)


def test_executor_rejects_beyond_queue_limit():
    sim = Simulator()
    core = CpuCore(sim, 0, clock_hz=1e9)
    executor = Executor(sim, core, "netback", queue_limit=2)
    results = [executor.submit(1e9, lambda: None) for _ in range(5)]
    # First starts immediately (dequeued), two queue, rest rejected.
    assert results == [True, True, True, False, False]
    assert executor.rejected == 2


def test_executor_saturation_caps_throughput():
    """Offering work faster than the core can serve caps completions at
    the core's service rate — the single-threaded netback effect."""
    sim = Simulator()
    core = CpuCore(sim, 0, clock_hz=1e9)
    executor = Executor(sim, core, "netback", queue_limit=8)
    served_cycles = 1e6  # 1 ms per item -> capacity 1000/s

    def offer():
        executor.submit(served_cycles, lambda: None)

    t = 0.0
    while t < 1.0:
        sim.schedule_at(t, offer)
        t += 1 / 3000  # offer 3x capacity
    sim.run(until=1.1)
    assert executor.completed <= 1101
    assert executor.completed >= 990
    assert executor.rejected > 0


def test_executor_validates_parameters():
    sim = Simulator()
    core = CpuCore(sim, 0)
    with pytest.raises(ValueError):
        Executor(sim, core, "x", queue_limit=0)
    executor = Executor(sim, core, "x")
    with pytest.raises(ValueError):
        executor.submit(-1, lambda: None)


def test_core_validates_clock():
    with pytest.raises(ValueError):
        CpuCore(Simulator(), 0, clock_hz=0)


def test_executor_passes_submitted_arguments_in_fifo_order():
    sim = Simulator()
    core = CpuCore(sim, 0, clock_hz=1e9)
    executor = Executor(sim, core, "netback", queue_limit=2)
    done = []

    def record(tag, *rest):
        done.append((sim.now, tag, rest, executor.busy))

    accepted = [executor.submit(1e6, record, "a"),
                executor.submit(2e6, record, "b", 1, 2),
                executor.submit(3e6, record, "c"),
                executor.submit(4e6, record, "refused")]
    assert accepted == [True, True, True, False]
    assert (executor.rejected, executor.queue_depth) == (1, 2)
    sim.run()
    assert done == [(pytest.approx(1e-3), "a", (), True),
                    (pytest.approx(3e-3), "b", (1, 2), True),
                    (pytest.approx(6e-3), "c", (), True)]
    # The refused item neither ran nor charged its cycles.
    assert core.cycles("netback") == 6e6
    assert (executor.completed, executor.busy, executor.queue_depth) \
        == (3, False, 0)
    # Idle again: the next submission starts at once, from now.
    executor.submit(1e6, record, "d")
    assert executor.busy
    sim.run()
    assert done[-1] == (pytest.approx(7e-3), "d", (), True)
    assert executor.busy is False
