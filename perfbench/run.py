"""Host-time benchmark of the simulator: one workload per invocation.

    python3 perfbench/run.py --workload sriov_rx_exact --seed 0 \\
        --seconds 25 --trace 0

Each *execution* is one ``repro.api.run(Scenario(...))`` call, run to
completion in this process (cluster hosts serial, no worker pool).
With ``--trace 0`` the benchmark repeats executions for ``--seconds``
and reports the end-to-end metrics as medians.  With ``--trace 1`` it
alternates untraced and traced executions; a traced one wraps each
layer's public entry points (see ``layers.py``) before the scenario is
built, and its spans become the per-layer metrics.

Every execution's result is hashed and compared with the exact-mode
reference for the same inputs: pinned for seed 0; otherwise one untimed
exact run on the fluid workloads, and the first execution on the exact
ones (an extra exact run of the same inputs could only repeat it).  An
exception or a mismatch counts as a failed execution.  The last line of
standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.  See README.md for the workloads and what each
metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import layers
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = HERE / "out"

#: end-to-end metric -> unit (README.md gives their definitions).
END_TO_END = {"wall_s": "s", "setup_s": "s", "sim_rate": "1/s",
              "peak_rss_mb": "MB"}

#: One run's measuring time (seconds), as BENCHMARK.json states it.
RUN_SECONDS = 25

#: end-to-end metric -> (better, bound): the share of the parent's
#: median by which the metric may worsen before a change is rejected.
#: The host's speed drifts (README.md), so the time bounds are wide;
#: setup_s, the shortest and noisiest interval, has the widest.
BOUNDS = {"wall_s": ("lower", 0.24), "setup_s": ("lower", 0.25),
          "sim_rate": ("higher", 0.24), "peak_rss_mb": ("lower", 0.1)}

#: Why each workload is in the benchmark (README.md has the long form).
WHY = {
    "sriov_rx_exact": "fig15 exact: per-packet RX through devices, hw, "
                      "drivers, vmm, net.packet and the engine is almost "
                      "all the time; sim.fluid does no work",
    "sriov_rx_fluid": "fig15 fluid: every event collapses, so time goes to "
                      "set-up and sim.fluid replay; the per-packet layers "
                      "and the engine are bypassed",
    "cluster_fluid": "fig22 two hosts, fluid: core.host windows, cluster "
                     "coordination, net.fabric routing and sim.sync "
                     "lockstep, and the VF TX path",
    "pv_rx": "fig17 PV NIC: grant copies, event channels, netback and "
             "netfront carry the load; the only workload that measures "
             "them",
}

#: What :func:`calibrate` takes at nominal host speed (seconds).  Host
#: times are reported scaled to that speed; see README.md.
CALIBRATION_NOMINAL_S = 0.032


def _import_program():
    """Import the simulator from this checkout's ``src/`` only.

    ``workloads`` imports ``repro`` at module level, so functions here
    import it only after this has run.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


@dataclass
class Execution:
    wall_s: float
    setup_s: float
    result: object = None
    error: Optional[str] = None
    recorder: object = None
    #: Host speed around this execution relative to nominal (see
    #: :func:`calibrate`): multiply a host time by it to normalize.
    speed: float = 1.0
    #: Per-layer metrics of a traced execution, times normalized.
    layer: Optional[Dict[str, float]] = None


def calibrate() -> float:
    """Host seconds of a fixed pure-Python loop (heap and dict work).

    The benchmark host's speed drifts by tens of percent over seconds
    when neighbours load it, and the simulator is pure Python too, so
    each execution's times are scaled by nominal / measured speed of
    this loop, run right before and right after it.  The loop runs for
    about 50 ms: shorter samples tracked the simulator's speed worse.
    """
    import heapq
    start = time.perf_counter()
    heap: List[int] = []
    table: Dict[int, int] = {}
    for i in range(96000):
        heapq.heappush(heap, (i * 7919) % 10007)
        table[i & 1023] = i
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


def execute(scenario, trace: bool = False) -> Execution:
    """Run one scenario, timing ``run()`` and its set-up phase.

    Set-up ends at the first ``Simulator.run`` call; a one-line wrapper
    on that method stamps it.  With ``trace`` the layer wrappers are
    installed first, before anything is built, and removed afterwards.
    """
    from repro.api import run
    from repro.sim.engine import Simulator

    first_run: List[float] = []
    original = Simulator.__dict__["run"]

    def stamped(sim, *args, **kwargs):
        if not first_run:
            first_run.append(time.perf_counter())
        return original(sim, *args, **kwargs)

    recorder = SpanRecorder() if trace else None
    gc.collect()
    Simulator.run = stamped
    try:
        if recorder is not None:
            recorder.install(layers.targets(), layers.PER_INSTANCE)
        start = time.perf_counter()
        try:
            result = run(scenario)
            error = None
        except Exception as exc:  # a failed execution is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
    finally:
        if recorder is not None:
            recorder.uninstall()
        Simulator.run = original
    setup_end = first_run[0] if first_run else end
    return Execution(end - start, setup_end - start, result, error, recorder)


def _quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _fluid_frac(result) -> Optional[float]:
    fluid = result.fluid
    if fluid is None:
        return None
    total = fluid["collapsed_events"] + fluid["events_executed"]
    return fluid["collapsed_events"] / total if total else 0.0


def _failure(ex: Execution, reference: Optional[str],
             fluid_frac: Optional[float]) -> Optional[str]:
    """Why an execution failed the correctness check, or None.

    ``fluid_frac`` is the untraced runs' collapsed fraction, which a
    traced run must reproduce: observing must not force the slow path.
    """
    import workloads
    if ex.error is not None:
        return ex.error
    if reference is None:
        return "no reference digest"
    got = workloads.digest(ex.result)
    if got != reference:
        return f"result digest {got[:12]} != reference {reference[:12]}"
    if _fluid_frac(ex.result) != fluid_frac:
        return (f"collapsed_frac {_fluid_frac(ex.result)} != untraced "
                f"{fluid_frac}")
    return None


def _reference(workload: str, seed: int, scenario,
               untraced: List[Execution]) -> Optional[str]:
    """The digest every execution must match (see the module doc)."""
    import workloads
    if seed == workloads.DEFAULT_SEED:
        return workloads.PINNED_DIGESTS[workload] or None
    if scenario.sim_mode == "exact":
        ex = next((ex for ex in untraced if ex.error is None), untraced[0])
    else:
        ex = execute(workloads.reference_scenario(scenario))
    if ex.error is not None:
        print(f"reference run failed: {ex.error}", file=sys.stderr)
        return None
    return workloads.digest(ex.result)


def _measure(scenario, seconds: float, trace: bool):
    """Executions until ``seconds`` have passed: untraced only, or
    alternating untraced and traced (at least one of each), each
    between two calibration loops.

    A traced execution's spans are reduced to its per-layer metrics
    right away; only the last one keeps its spans, for writing out.
    """
    untraced: List[Execution] = []
    traced: List[Execution] = []
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while True:
        for bucket, traced_run in ((untraced, False), (traced, True)):
            if traced_run and not trace:
                continue
            ex = execute(scenario, trace=traced_run)
            after = calibrate()
            ex.speed = CALIBRATION_NOMINAL_S / ((before + after) / 2)
            before = after
            if traced_run and ex.error is None:
                ex.layer = layers.layer_metrics(ex.recorder, ex.result,
                                                ex.wall_s)
                for name, (unit, _better) in layers.METRICS.items():
                    if unit in ("s", "ns", "us"):
                        ex.layer[name] *= ex.speed
                if traced:
                    traced[-1].recorder = None
            bucket.append(ex)
        if time.perf_counter() >= deadline:
            return untraced, traced


def manifest() -> dict:
    """The BENCHMARK.json document for this benchmark."""
    import workloads
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]}
                      for name in workloads.WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit,
                        "better": BOUNDS[name][0], "bound": BOUNDS[name][1]}
                       for name, unit in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in layers.METRICS.items()],
    }


def _say(line: str) -> None:
    print(line, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root "
                             "and exit")
    args = parser.parse_args(argv)

    _import_program()
    import workloads
    if args.manifest:
        path = ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(manifest(), indent=2) + "\n")
        _say(f"wrote {path.relative_to(ROOT)}")
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}: use one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    scenario = workloads.scenario_for(args.workload, args.seed)
    simulated = scenario.warmup + scenario.duration

    # Untimed warm-up over a tiny window: pays lazy imports and first
    # calls so the first timed execution is not an outlier.  The
    # calibration loop's first pass in a process runs slow too.
    execute(workloads.smoke_scenario(scenario))
    calibrate()
    untraced, traced = _measure(scenario, args.seconds, args.trace == 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = _reference(args.workload, args.seed, scenario, untraced)

    good = [ex for ex in untraced if ex.error is None]
    fluid_frac = _fluid_frac(good[0].result) if good else None
    failed = 0
    for kind, executions in (("untraced", untraced), ("traced", traced)):
        for index, ex in enumerate(executions):
            reason = _failure(ex, reference, fluid_frac)
            if reason is not None:
                failed += 1
                print(f"FAILED {kind} execution {index}: {reason}",
                      file=sys.stderr)
    attempted = len(untraced) + len(traced)

    _say(f"workload {args.workload}  seed {args.seed}  "
         f"simulated {simulated:g} s  executions {attempted}  "
         f"failed {failed}  fail_rate {failed / attempted:.4f}")
    metrics: Dict[str, Dict[str, float]] = {}
    if good:
        raw = statistics.median(ex.wall_s for ex in good)
        _say(f"  raw host wall  {raw:12.6f} s      (median, unscaled)")
        samples = {
            "wall_s": [ex.wall_s * ex.speed for ex in good],
            "setup_s": [ex.setup_s * ex.speed for ex in good],
            "sim_rate": [simulated / ((ex.wall_s - ex.setup_s) * ex.speed)
                         for ex in good],
        }
        for name, values in samples.items():
            q1, median, q3 = _quartiles(values)
            _say(f"  {name:<14} {median:12.6f} {END_TO_END[name]:<6} "
                 f"q1 {q1:.6f}  q3 {q3:.6f}  n {len(values)}")
            metrics[name] = {"value": median, "unit": END_TO_END[name]}
        _say(f"  {'peak_rss_mb':<14} {peak_rss_mb:12.3f} MB")
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        result = good[0].result
        err = workloads.paper_err_pct(args.workload, result)
        if err is None:
            _say(f"  paper_err_pct  unvalidated (no paper reference; "
                 f"{result.throughput_gbps:.4f} Gbps simulated)")
        else:
            _say(f"  paper_err_pct  {err:12.6f} %      "
                 f"{result.throughput_gbps:.4f} Gbps vs paper "
                 f"{workloads.PAPER_GBPS[args.workload]} Gbps")

    if args.trace == 1:
        metrics = _layer_report(args.workload, untraced, traced)

    print(json.dumps({"correct": failed == 0 and bool(good),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_report(workload: str, untraced: List[Execution],
                  traced: List[Execution]) -> Dict[str, Dict[str, float]]:
    """Per-layer metrics: the median over traced executions."""
    good = [ex for ex in traced if ex.error is None]
    plain = [ex.wall_s * ex.speed for ex in untraced if ex.error is None]
    per_run = [ex.layer for ex in good]
    overhead = 0.0
    if good and plain:
        overhead = (statistics.median(ex.wall_s * ex.speed for ex in good)
                    / statistics.median(plain) - 1.0) * 100.0
    metrics: Dict[str, Dict[str, float]] = {}
    for name, (unit, _better) in layers.METRICS.items():
        if name == "trace.overhead_pct":
            value = overhead
        else:
            values = [run[name] for run in per_run]
            value = statistics.median(values) if values else 0.0
        metrics[name] = {"value": value, "unit": unit}
        if value:
            _say(f"  {name:<32} {value:16.6f} {unit}")
    if good:
        for gate, count in sorted(
                (good[-1].result.fluid or {}).get("rejections", {}).items()):
            _say(f"  sim.fluid.rejected.{gate:<13} {count:16d} count")
    if good and good[-1].recorder is not None:
        path = SPAN_DIR / f"spans-{workload}.json"
        good[-1].recorder.write(path)
        _say(f"  spans: {len(good[-1].recorder)} written to "
             f"{path.relative_to(ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
