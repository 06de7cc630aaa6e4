"""The tracked performance-benchmark harness behind ``repro bench``.

Two tiers of measurement, both reported as a schema-versioned JSON
document (``BENCH_<n>.json``) so the repo carries a perf trajectory the
same way EXPERIMENTS.md carries a fidelity trajectory:

* **Engine micro-loops** — synthetic event patterns that isolate the
  :class:`~repro.sim.engine.Simulator` hot path: a rolling stream of
  one-shot events (the packet-dispatch shape), a bank of self-rearming
  periodic timers (the netperf-generator / MII-monitor shape), and a
  cancel-and-rearm loop (the interrupt-throttle shape that litters the
  queue with lazily-cancelled debris).  Reported as events/sec.
* **Scenario benches** — bench-scale variants of the fig06/fig08-10/
  fig15/fig16/fig22 campaigns run end-to-end through
  :class:`ExperimentRunner`, reported as wall-clock seconds plus
  events/sec (executed + collapsed over wall time).  Throughput rides along as a semantic anchor: a perf
  change must not move it.  Each scenario also runs in
  ``sim_mode="fluid"`` (``<name>_fluid``), hard-gated on its
  throughput anchor matching the exact run with *float equality* and
  on the fluid run not being slower — a mismatch raises instead of
  reporting, because it would mean the fast path broke its exactness
  contract (see docs/performance.md).

``compare()`` implements the CI perf-smoke gate: fresh events/sec may
not fall more than ``tolerance`` (default 20%) below a committed
baseline.
"""

from __future__ import annotations

import json
import platform
import re
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import Scenario, _dispatch
from repro.core.experiment import ExperimentRunner
from repro.sim.engine import Simulator

#: Schema tag in every BENCH_*.json document.
BENCH_SCHEMA = "repro-bench/1"

#: CI regression gate: fail if events/sec drops by more than this.
REGRESSION_TOLERANCE = 0.20

#: Best-of-N repeats for the engine micro-loops (cheap, and the max
#: filters scheduler noise; scenarios run once — they are the honest,
#: expensive measurement).
MICRO_REPEATS = 3


def _noop() -> None:
    pass


def _rate(events: int, seconds: float) -> Dict[str, float]:
    """The common (events, seconds, events/sec) record."""
    return {
        "events": int(events),
        "seconds": round(seconds, 6),
        "events_per_sec": round(events / seconds, 1) if seconds > 0 else 0.0,
    }


# ----------------------------------------------------------------------
# engine micro-loops
# ----------------------------------------------------------------------
def bench_event_stream(events: int) -> Dict[str, float]:
    """A rolling window of one-shot events: the packet-dispatch shape.

    A pump event schedules a burst of no-ops just ahead of itself and
    re-arms, so the heap stays shallow and churning — like wire
    arrivals feeding DMA completions — rather than pre-loaded deep.
    """
    sim = Simulator()
    schedule = sim.schedule
    burst = 64
    issued = [0]

    def pump() -> None:
        n = issued[0]
        if n >= events:
            return
        issued[0] = n + burst
        for _ in range(burst - 1):
            schedule(1e-6, _noop)
        schedule(2e-6, pump)

    schedule(0.0, pump)
    start = time.perf_counter()
    sim.run()
    return _rate(sim.events_executed, time.perf_counter() - start)


def bench_periodic_timers(events: int, timers: int = 32) -> Dict[str, float]:
    """A bank of self-rearming periodic timers: the generator shape.

    Mirrors the dense periodic timers (netperf ticks, MII monitor, AIC
    sample timers) that dominate real runs' queues: many concurrent
    timers, each rescheduling itself a fixed period ahead.
    """
    sim = Simulator()
    fired = [0]

    def make(period: float) -> Callable[[], None]:
        def tick() -> None:
            fired[0] += 1
            if fired[0] < events:
                sim.schedule(period, tick)
        return tick

    for i in range(timers):
        # Slightly detuned periods so ticks interleave instead of
        # degenerating into one synchronized batch per period.
        sim.schedule((i + 1) * 1e-6, make(250e-6 + i * 1e-6))
    start = time.perf_counter()
    sim.run()
    return _rate(sim.events_executed, time.perf_counter() - start)


def bench_cancel_rearm(events: int) -> Dict[str, float]:
    """Arm a deadline, cancel it, re-arm closer: the throttle shape.

    Every iteration leaves one lazily-cancelled entry behind, the
    debris pattern interrupt-throttle re-arms generate in real runs.
    """
    sim = Simulator()
    fired = [0]

    def fire() -> None:
        fired[0] += 1
        if fired[0] >= events:
            return
        handle = sim.schedule(1e-3, fire)
        handle.cancel()
        sim.schedule(100e-6, fire)

    sim.schedule(0.0, fire)
    start = time.perf_counter()
    sim.run()
    return _rate(sim.events_executed, time.perf_counter() - start)


#: name -> (callable taking an event count, quick count, full count)
ENGINE_LOOPS: Dict[str, Tuple[Callable[[int], Dict[str, float]], int, int]] = {
    "event_stream": (bench_event_stream, 50_000, 400_000),
    "periodic_timers": (bench_periodic_timers, 50_000, 400_000),
    "cancel_rearm": (bench_cancel_rearm, 30_000, 200_000),
}


# ----------------------------------------------------------------------
# scenario benches
# ----------------------------------------------------------------------
_FIXED_2K = {"kind": "fixed_itr", "hz": 2000}
_AIC = {"kind": "aic"}


def bench_scenarios(quick: bool) -> Dict[str, Scenario]:
    """Bench-scale variants of the tracked figure campaigns.

    Same modes, kinds, kernels and policies as the figure registry
    (:mod:`repro.sweep.figures`); VM counts and windows sized so a
    bench run finishes in tens of seconds, not the figures' minutes.
    The fig08/09/10 entries carry the adaptive-ITR policy and fig22
    the cross-host fabric — the flow classes the fluid datapath
    collapses beyond the fixed-ITR steady state.
    """
    warmup, duration = (0.1, 0.1) if quick else (0.3, 0.4)
    aic_warmup, aic_duration = (0.1, 0.1) if quick else (0.5, 0.7)
    return {
        "fig06": Scenario(mode="sriov", ports=1, kernel="2.6.18",
                          policy={"kind": "dynamic_itr"}, opts={},
                          vm_count=2 if quick else 5,
                          warmup=warmup, duration=duration),
        "fig08": Scenario(mode="sriov", vm_count=1, ports=1,
                          policy=_AIC,
                          warmup=aic_warmup, duration=aic_duration),
        "fig09": Scenario(mode="sriov", vm_count=1, ports=1,
                          policy=_AIC, protocol="tcp",
                          warmup=aic_warmup, duration=aic_duration),
        "fig10": Scenario(mode="intervm", variant="sriov",
                          sender="dom0", policy=_AIC,
                          warmup=0.05 if quick else 0.15,
                          duration=0.05 if quick else 0.2),
        "fig15": Scenario(mode="sriov", kind="hvm", policy=_FIXED_2K,
                          vm_count=2 if quick else 10,
                          warmup=warmup, duration=duration),
        "fig16": Scenario(mode="sriov", kind="pvm", policy=_FIXED_2K,
                          vm_count=2 if quick else 10,
                          warmup=warmup, duration=duration),
        "fig22": Scenario(
            mode="cluster",
            hosts=[{"name": "h0", "vm_count": 1, "ports": 1},
                   {"name": "h1", "vm_count": 1, "ports": 1}],
            flows=[{"src_host": "h0", "dst_host": "h1",
                    "offered_bps": 900e6},
                   {"src_host": "h1", "dst_host": "h0",
                    "offered_bps": 900e6}],
            fabric={"uplink_gbps": 10.0, "latency_s": 2e-5},
            warmup=0.1 if quick else 0.3,
            duration=0.05 if quick else 0.5),
    }


def run_scenario_bench(scenario: Scenario) -> Dict[str, float]:
    """Run one scenario end-to-end and report wall-clock + events/sec.

    ``events`` counts simulated work, executed *plus* collapsed: a
    ``sim_mode="fluid"`` run that arithmetically replays N events did
    the same simulation as an exact run that dispatched them, so the
    two rates are commensurable (``events_collapsed`` reports the
    split).  ``throughput_bps`` rides along unrounded — the anchor the
    fluid gate compares with exact float equality.
    """
    runner = ExperimentRunner(warmup=scenario.warmup,
                              duration=scenario.duration,
                              seed=scenario.seed,
                              faults=scenario.faults,
                              sim_mode=scenario.sim_mode)
    start = time.perf_counter()
    result = _dispatch(runner, scenario)
    wall = time.perf_counter() - start
    executed = collapsed = 0
    if runner.last_bed is not None:
        executed = runner.last_bed.sim.events_executed
        collapsed = runner.last_bed.sim.collapsed_events
    elif scenario.mode == "cluster":
        # Cluster runs keep no bed behind: executed events come from
        # the per-host extras, collapsed from the fluid sidecar.
        hosts = result.extras["cluster"]["hosts"]
        executed = sum(host["events_executed"] for host in hosts.values())
        if result.fluid is not None:
            collapsed = result.fluid["collapsed_events"]
    out = _rate(executed + collapsed, wall)
    out["wall_seconds"] = out.pop("seconds")
    out["events_collapsed"] = int(collapsed)
    total = executed + collapsed
    out["collapsed_fraction"] = (round(collapsed / total, 4)
                                 if total else 0.0)
    out["vm_count"] = (result.vm_count if scenario.mode == "cluster"
                       else scenario.vm_count)
    out["throughput_bps"] = result.throughput_bps
    out["throughput_gbps"] = round(result.throughput_bps / 1e9, 4)
    return out


# ----------------------------------------------------------------------
# the full run, comparison, and file numbering
# ----------------------------------------------------------------------
def run_bench(quick: bool = False, label: str = "",
              progress: Optional[Callable[[str], None]] = None) -> dict:
    """Run every benchmark and return the BENCH document."""
    say = progress or (lambda line: None)
    engine: Dict[str, Dict[str, float]] = {}
    for name, (fn, quick_n, full_n) in ENGINE_LOOPS.items():
        count = quick_n if quick else full_n
        best: Optional[Dict[str, float]] = None
        for _ in range(MICRO_REPEATS):
            result = fn(count)
            if best is None or result["events_per_sec"] > best["events_per_sec"]:
                best = result
        assert best is not None
        engine[name] = best
        say(f"engine.{name}: {best['events_per_sec']:,.0f} events/sec")
    scenarios: Dict[str, Dict[str, float]] = {}
    for name, scenario in bench_scenarios(quick).items():
        result = run_scenario_bench(scenario)
        scenarios[name] = result
        say(f"scenario.{name}: {result['wall_seconds']:.2f} s wall, "
            f"{result['events_per_sec']:,.0f} events/sec, "
            f"{result['throughput_gbps']:.2f} Gbps")
        fluid = run_scenario_bench(scenario.with_(sim_mode="fluid"))
        fluid["anchor_exact_bps"] = result["throughput_bps"]
        fluid["anchor_equal"] = (
            fluid["throughput_bps"] == result["throughput_bps"])
        fluid["speedup"] = round(
            result["wall_seconds"] / fluid["wall_seconds"], 2)
        scenarios[name + "_fluid"] = fluid
        say(f"scenario.{name}_fluid: {fluid['wall_seconds']:.2f} s wall, "
            f"{fluid['events_collapsed']:,} collapsed, "
            f"{fluid['speedup']:.2f}x, anchor "
            f"{'equal' if fluid['anchor_equal'] else 'MISMATCH'}")
        # Hard gates, not tolerances: the fluid mode's contract is
        # byte-identical anchors, and a fluid run that collapsed
        # events yet took longer than exact means the fast path is
        # doing extra work somewhere.
        if not fluid["anchor_equal"]:
            raise RuntimeError(
                f"scenario.{name}: fluid throughput anchor "
                f"{fluid['throughput_bps']!r} != exact "
                f"{result['throughput_bps']!r}")
        if (fluid["events_collapsed"]
                and fluid["wall_seconds"] > result["wall_seconds"]):
            raise RuntimeError(
                f"scenario.{name}: fluid mode slower than exact "
                f"({fluid['wall_seconds']:.2f}s vs "
                f"{result['wall_seconds']:.2f}s)")
    return {
        "schema": BENCH_SCHEMA,
        "label": label,
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "engine": engine,
        "scenarios": scenarios,
    }


def compare(baseline: dict, fresh: dict,
            tolerance: float = REGRESSION_TOLERANCE
            ) -> Tuple[List[str], List[str]]:
    """Compare events/sec against a baseline document.

    Returns ``(regressions, report_lines)``: one report line per metric
    present in both documents, and a regression entry for every metric
    that fell more than ``tolerance`` below the baseline.  Comparing a
    quick run against a full baseline (or vice versa) is rejected —
    the event counts differ, so the rates aren't commensurable.
    """
    if baseline.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"baseline schema {baseline.get('schema')!r} "
                         f"!= {BENCH_SCHEMA!r}")
    if baseline.get("mode") != fresh.get("mode"):
        raise ValueError(f"cannot compare mode={fresh.get('mode')!r} run "
                         f"against mode={baseline.get('mode')!r} baseline")
    regressions: List[str] = []
    lines: List[str] = []
    for section in ("engine", "scenarios"):
        base_section = baseline.get(section, {})
        fresh_section = fresh.get(section, {})
        for name in sorted(base_section):
            if name not in fresh_section:
                continue
            base_rate = base_section[name].get("events_per_sec", 0.0)
            fresh_rate = fresh_section[name].get("events_per_sec", 0.0)
            if not base_rate:
                continue
            ratio = fresh_rate / base_rate
            lines.append(f"{section}.{name}: {fresh_rate:,.0f} vs "
                         f"{base_rate:,.0f} events/sec ({ratio:.2f}x)")
            if ratio < 1.0 - tolerance:
                regressions.append(
                    f"{section}.{name} regressed {(1.0 - ratio):.0%} "
                    f"(>{tolerance:.0%} allowed)")
            # A fluid entry that used to collapse and now executes
            # everything exactly is an eligibility regression — the
            # fast path silently fell back — even if the events/sec
            # rate happens to stay inside tolerance.
            base_frac = base_section[name].get("collapsed_fraction", 0.0)
            fresh_frac = fresh_section[name].get("collapsed_fraction", 0.0)
            if base_frac > 0.0 and fresh_frac == 0.0:
                regressions.append(
                    f"{section}.{name} no longer collapses any events "
                    f"(baseline collapsed {base_frac:.0%})")
    if not lines:
        raise ValueError("baseline and fresh documents share no metrics")
    return regressions, lines


_BENCH_NAME = re.compile(r"BENCH_(\d+)\.json$")


def next_bench_path(directory: Path) -> Path:
    """The next free ``BENCH_<n>.json`` slot in ``directory``."""
    numbers = [int(match.group(1))
               for path in Path(directory).glob("BENCH_*.json")
               if (match := _BENCH_NAME.match(path.name))]
    return Path(directory) / f"BENCH_{max(numbers, default=0) + 1:04d}.json"


def write_bench(doc: dict, path: Path) -> None:
    """Write a BENCH document in the repo's canonical JSON form."""
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_bench(path: Path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"{path}: schema {doc.get('schema')!r} "
                         f"!= {BENCH_SCHEMA!r}")
    return doc
