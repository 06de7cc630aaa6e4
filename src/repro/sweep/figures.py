"""The figure registry: every paper figure as a named campaign.

Each entry maps a figure name ("fig06" … "fig22") to the labeled
scenarios that generate its data and a row builder that renders the
series the paper plots (fig22 extends the paper: cross-host scale-out
over the modeled ToR fabric).  The pytest-benchmark suite
(``benchmarks/bench_fig*.py``) and the ``repro figures`` CLI both run
through here, so there is exactly one definition of what each figure
measures.

``quick=True`` substitutes a smoke-scale variant of every campaign
(fewer VMs, shorter windows, earlier migrations): the runs stay valid
end-to-end exercises of the same code paths, but their numbers are NOT
the paper's — quick artifacts are for CI and cache plumbing, not for
EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import Scenario
from repro.core.costs import CostModel
from repro.core.experiment import RunResult
from repro.migration.timeline import series_from_timeline
from repro.sweep.cache import ResultCache
from repro.sweep.runner import SweepStats, run_sweep

#: Schema tag in every figure artifact.
FIGURE_SCHEMA = "repro-figure/1"

LabeledScenarios = List[Tuple[str, Scenario]]
Rows = Tuple[List[str], List[List[object]]]

_AIC = {"kind": "aic"}
_DYNAMIC = {"kind": "dynamic_itr"}
_FIXED_2K = {"kind": "fixed_itr", "hz": 2000}

#: The §5.3 policy ladder of Figs. 8-10.
_POLICY_LADDER = [("20kHz", {"kind": "fixed_itr", "hz": 20000}),
                  ("2kHz", _FIXED_2K),
                  ("AIC", _AIC),
                  ("1kHz", {"kind": "fixed_itr", "hz": 1000})]


@dataclass(frozen=True)
class Figure:
    """One registered figure."""

    name: str
    title: str
    scenarios: Callable[[bool], LabeledScenarios]
    rows: Callable[[Dict[str, RunResult]], Rows]


# ----------------------------------------------------------------------
# scenario builders (quick -> labeled scenarios)
# ----------------------------------------------------------------------
def _fig06_scenarios(quick: bool) -> LabeledScenarios:
    counts = [1, 2] if quick else [1, 3, 5, 7]
    base = Scenario(mode="sriov", ports=1, kernel="2.6.18",
                    policy=_DYNAMIC,
                    warmup=0.3 if quick else 1.2,
                    duration=0.15 if quick else 0.4)
    labeled: LabeledScenarios = []
    for count in counts:
        labeled.append((f"{count}-VM",
                        base.with_(vm_count=count, opts={})))
        labeled.append((f"{count}-VM-opt",
                        base.with_(vm_count=count,
                                   opts={"msi_acceleration": True})))
    return labeled


def _fig07_scenarios(quick: bool) -> LabeledScenarios:
    base = Scenario(mode="sriov", vm_count=1, ports=1, policy=_DYNAMIC,
                    warmup=0.3 if quick else 1.2,
                    duration=0.15 if quick else 0.5)
    return [("baseline", base.with_(opts={})),
            ("eoi-accelerated",
             base.with_(opts={"eoi_acceleration": True}))]


def _aic_ladder(quick: bool, **overrides) -> LabeledScenarios:
    base = Scenario(warmup=0.5 if quick else 2.2,
                    duration=0.15 if quick else 0.5,
                    **overrides)
    return [(label, base.with_(policy=policy))
            for label, policy in _POLICY_LADDER]


def _fig08_scenarios(quick: bool) -> LabeledScenarios:
    return _aic_ladder(quick, mode="sriov", vm_count=1, ports=1)


def _fig09_scenarios(quick: bool) -> LabeledScenarios:
    return _aic_ladder(quick, mode="sriov", vm_count=1, ports=1,
                       protocol="tcp")


def _fig10_scenarios(quick: bool) -> LabeledScenarios:
    ladder = _aic_ladder(quick, mode="intervm", variant="sriov",
                         sender="dom0")
    # The paper's Fig. 10 column order: 20kHz, AIC, 2kHz, 1kHz.
    order = {"20kHz": 0, "AIC": 1, "2kHz": 2, "1kHz": 3}
    return sorted(ladder, key=lambda pair: order[pair[0]])


def _fig12_scenarios(quick: bool) -> LabeledScenarios:
    vms = 2 if quick else 10
    base = Scenario(mode="sriov", vm_count=vms,
                    warmup=0.3 if quick else 1.2,
                    duration=0.15 if quick else 0.4)
    # AIC and the native baseline need the longer warmup for the
    # coalescing feedback to settle.
    settled = base.with_(warmup=0.5 if quick else 2.2)
    return [
        ("2.6.18 baseline", base.with_(kernel="2.6.18", opts={},
                                       policy=_DYNAMIC)),
        ("2.6.18 +msi", base.with_(kernel="2.6.18",
                                   opts={"msi_acceleration": True},
                                   policy=_DYNAMIC)),
        ("2.6.28 baseline", base.with_(opts={}, policy=_DYNAMIC)),
        ("2.6.28 +eoi", base.with_(opts={"eoi_acceleration": True},
                                   policy=_DYNAMIC)),
        ("2.6.28 +eoi+aic",
         settled.with_(opts={"eoi_acceleration": True,
                             "adaptive_coalescing": True})),
        ("native", settled.with_(mode="native")),
    ]


def _intervm_sizes(quick: bool) -> List[int]:
    return [1500, 4000] if quick else [1500, 2000, 2500, 3000, 4000]


def _fig13_scenarios(quick: bool) -> LabeledScenarios:
    base = Scenario(mode="intervm", variant="sriov",
                    warmup=0.5 if quick else 2.2,
                    duration=0.15 if quick else 0.5)
    return [(str(size), base.with_(message_bytes=size))
            for size in _intervm_sizes(quick)]


def _fig14_scenarios(quick: bool) -> LabeledScenarios:
    pv = Scenario(mode="intervm", variant="pv", kind="pvm",
                  warmup=0.3 if quick else 0.8,
                  duration=0.15 if quick else 0.5)
    labeled = [(f"pv-{size}", pv.with_(message_bytes=size))
               for size in _intervm_sizes(quick)]
    labeled.append(("sriov-1500",
                    Scenario(mode="intervm", variant="sriov",
                             message_bytes=1500,
                             warmup=0.5 if quick else 2.2,
                             duration=0.15 if quick else 0.5)))
    return labeled


def _scaling_counts(quick: bool) -> List[int]:
    return [1, 2] if quick else [10, 20, 40, 60]


def _fig15_scenarios(quick: bool) -> LabeledScenarios:
    # The VF driver's default 2 kHz ITR: the paper's per-VM slopes
    # (2.8% HVM / 1.76% PVM) imply ~2 kHz steady interrupt rates per
    # guest, below which AIC's lif floor would deflate the comparison.
    base = Scenario(mode="sriov", kind="hvm", policy=_FIXED_2K,
                    warmup=0.3 if quick else 0.6,
                    duration=0.15 if quick else 0.4)
    return [(str(count), base.with_(vm_count=count))
            for count in _scaling_counts(quick)]


def _fig16_scenarios(quick: bool) -> LabeledScenarios:
    counts = _scaling_counts(quick)
    base = Scenario(mode="sriov", policy=_FIXED_2K,
                    warmup=0.3 if quick else 0.6,
                    duration=0.15 if quick else 0.4)
    labeled = [(f"pvm-{count}", base.with_(kind="pvm", vm_count=count))
               for count in counts]
    labeled.append((f"hvm-{counts[0]}",
                    base.with_(kind="hvm", vm_count=counts[0])))
    labeled.append((f"hvm-{counts[-1]}",
                    base.with_(kind="hvm", vm_count=counts[-1])))
    return labeled


def _fig17_scenarios(quick: bool) -> LabeledScenarios:
    base = Scenario(mode="pv", kind="hvm",
                    warmup=0.3 if quick else 0.6,
                    duration=0.15 if quick else 0.4)
    return [(str(count), base.with_(vm_count=count))
            for count in _scaling_counts(quick)]


def _fig18_scenarios(quick: bool) -> LabeledScenarios:
    counts = _scaling_counts(quick)
    base = Scenario(mode="pv",
                    warmup=0.3 if quick else 0.6,
                    duration=0.15 if quick else 0.4)
    labeled = [(f"pvm-{count}", base.with_(kind="pvm", vm_count=count))
               for count in counts]
    labeled.append((f"hvm-{counts[0]}",
                    base.with_(kind="hvm", vm_count=counts[0])))
    return labeled


def _fig19_scenarios(quick: bool) -> LabeledScenarios:
    base = Scenario(mode="vmdq", kind="pvm",
                    warmup=0.3 if quick else 0.6,
                    duration=0.15 if quick else 0.4)
    return [(str(count), base.with_(vm_count=count))
            for count in _scaling_counts(quick)]


def _fig20_scenarios(quick: bool) -> LabeledScenarios:
    return [("timeline", Scenario(mode="migrate", variant="pv",
                                  start_at=0.5 if quick else 4.5))]


def _fig21_scenarios(quick: bool) -> LabeledScenarios:
    return [("timeline", Scenario(mode="migrate", variant="dnis",
                                  start_at=0.5 if quick else 4.5))]


def _fig22_hosts(pairs: int) -> List[dict]:
    # One VF port per guest, as in the paper's aggregate-10GbE rigs, so
    # the 1 GbE port links never cap the cross-host scaling curve.
    return [{"name": name, "vm_count": pairs, "ports": pairs}
            for name in ("h0", "h1")]


def _fig22_flows(pairs: int) -> List[dict]:
    flows = []
    for vm in range(pairs):
        flows.append({"src_host": "h0", "dst_host": "h1",
                      "src_vm": vm, "dst_vm": vm, "offered_bps": 400e6})
        flows.append({"src_host": "h1", "dst_host": "h0",
                      "src_vm": vm, "dst_vm": vm, "offered_bps": 400e6})
    return flows


def _fig22_scenarios(quick: bool) -> LabeledScenarios:
    # Beyond the paper: two SR-IOV hosts under one 10 GbE ToR, scaling
    # bidirectional 400 Mbps tenant pairs until the fabric matters.
    counts = [1, 2] if quick else [1, 2, 4, 7]
    base = Scenario(mode="cluster", hosts=_fig22_hosts(1),
                    flows=_fig22_flows(1),
                    fabric={"uplink_gbps": 10.0, "latency_s": 2e-5},
                    warmup=0.1 if quick else 0.3,
                    duration=0.05 if quick else 0.2)
    return [(str(count), base.with_(hosts=_fig22_hosts(count),
                                    flows=_fig22_flows(count)))
            for count in counts]


def _fig21f_scenarios(quick: bool) -> LabeledScenarios:
    # The DNIS timeline again, but the VF's physical line flaps while
    # the guest is still on the VF: the bond must fail over to the PV
    # standby, ride out the outage, and fall back when carrier returns.
    flap = {"kind": "link_flap", "at": 0.15 if quick else 2.0,
            "duration": 0.2 if quick else 1.0, "port": 0}
    return [("timeline", Scenario(mode="migrate", variant="dnis",
                                  start_at=0.5 if quick else 4.5,
                                  faults=[flap]))]


def _fig21c_flows() -> List[dict]:
    flows = []
    for vm in range(2):
        for src, dst in (("h0", "h1"), ("h1", "h0")):
            flows.append({"src_host": src, "dst_host": dst,
                          "src_vm": vm, "dst_vm": vm, "protocol": "tcp",
                          "offered_bps": 400e6})
    return flows


def _fig21c_scenarios(quick: bool) -> LabeledScenarios:
    # Graceful degradation, measured: the fig22 rig under cluster-scope
    # faults.  TCP flows, so a flapped uplink is ridden out by bond
    # failover plus the retransmit queue rather than counted straight
    # as loss, while a fabric partition can only surface as drops.
    warmup = 0.05 if quick else 0.1
    duration = 0.08 if quick else 0.2
    at = warmup + duration * 0.25
    outage = duration * 0.25
    hosts = [{"name": name, "vm_count": 2, "ports": 2}
             for name in ("h0", "h1")]
    base = Scenario(mode="cluster", hosts=hosts, flows=_fig21c_flows(),
                    fabric={"uplink_gbps": 10.0, "latency_s": 2e-5},
                    warmup=warmup, duration=duration)
    flap = {"kind": "uplink_down", "at": at, "duration": outage,
            "host": "h0", "port": 0}
    cut = {"kind": "fabric_partition", "at": at, "duration": outage,
           "groups": [["h0"], ["h1"]]}
    return [("baseline", base),
            ("uplink-flap", base.with_(faults=[flap])),
            ("partition", base.with_(faults=[cut]))]


# ----------------------------------------------------------------------
# row builders (results -> the table the paper's plot reads)
# ----------------------------------------------------------------------
def _fig06_rows(results: Dict[str, RunResult]) -> Rows:
    return (["config", "Mbps", "dom0%", "guest%", "xen%"],
            [[label, r.throughput_bps / 1e6, r.cpu["dom0"],
              r.cpu["guest"], r.cpu["xen"]]
             for label, r in results.items()])


def _fig07_rows(results: Dict[str, RunResult]) -> Rows:
    rows = []
    for label, result in results.items():
        for kind, rate in sorted(result.exit_cycles_per_second.items(),
                                 key=lambda kv: -kv[1]):
            rows.append([label, kind, rate / 1e6,
                         result.exit_counts.get(kind, 0)])
    return ["config", "exit kind", "Mcycles/s", "exits"], rows


def _fig08_rows(results: Dict[str, RunResult]) -> Rows:
    return (["policy", "Mbps", "CPU%", "loss%", "intr Hz", "lat us"],
            [[label, r.throughput_bps / 1e6, r.total_cpu_percent,
              r.loss_rate * 100, r.interrupt_hz, r.latency_mean * 1e6]
             for label, r in results.items()])


def _fig09_rows(results: Dict[str, RunResult]) -> Rows:
    return (["policy", "Mbps", "CPU%", "intr Hz"],
            [[label, r.throughput_bps / 1e6, r.total_cpu_percent,
              r.interrupt_hz] for label, r in results.items()])


def _fig10_rows(results: Dict[str, RunResult]) -> Rows:
    rows = []
    for label, r in results.items():
        tx_gbps = r.throughput_gbps / max(1e-9, 1 - r.loss_rate)
        rows.append([label, tx_gbps, r.throughput_gbps,
                     r.loss_rate * 100, r.interrupt_hz,
                     r.total_cpu_percent])
    return (["policy", "TX Gbps", "RX Gbps", "loss%", "intr Hz", "CPU%"],
            rows)


def _totals_rows(results: Dict[str, RunResult], first: str) -> Rows:
    return ([first, "Gbps", "dom0%", "guest%", "xen%", "total%"],
            [[label, r.throughput_gbps, r.cpu.get("dom0", 0.0),
              r.cpu.get("guest", r.cpu.get("native", 0.0)),
              r.cpu.get("xen", 0.0), r.total_cpu_percent]
             for label, r in results.items()])


def _fig12_rows(results: Dict[str, RunResult]) -> Rows:
    return _totals_rows(results, "config")


def _intervm_rows(results: Dict[str, RunResult]) -> Rows:
    return (["msg bytes", "Gbps", "CPU%", "Gbps/CPU%"],
            [[label, r.throughput_gbps, r.total_cpu_percent,
              r.throughput_gbps / r.total_cpu_percent
              if r.total_cpu_percent else 0.0]
             for label, r in results.items()])


def _scaling_rows(results: Dict[str, RunResult]) -> Rows:
    return _totals_rows(results, "VMs")


def _pv_scaling_rows(results: Dict[str, RunResult]) -> Rows:
    return (["VMs", "Gbps", "dom0%", "guest%", "loss%"],
            [[label, r.throughput_gbps, r.cpu["dom0"], r.cpu["guest"],
              r.loss_rate * 100] for label, r in results.items()])


def _fig19_rows(results: Dict[str, RunResult]) -> Rows:
    return (["VMs", "Gbps", "dom0%", "loss%"],
            [[label, r.throughput_gbps, r.cpu["dom0"],
              r.loss_rate * 100] for label, r in results.items()])


def migration_timeline_rows(result: RunResult,
                            bucket: float = 0.5) -> List[List[object]]:
    """The Figs. 20-21 table: per-bucket Mbps and dom0% around the
    migration, from the run's sampled timelines."""
    rx = series_from_timeline(result.extras["timeline"], "rx_bytes")
    dom0 = series_from_timeline(result.extras["timeline"], "dom0_cycles")
    clock_hz = CostModel().clock_hz
    rows: List[List[object]] = []
    if not rx.times:
        return rows
    index = 1
    while index * bucket <= rx.times[-1]:
        t = index * bucket
        mbps = rx.window_sum(t - bucket, t) * 8 / bucket / 1e6
        dom0_pct = dom0.window_sum(t - bucket, t) / bucket / clock_hz * 100
        rows.append([f"{t:.1f}", mbps, dom0_pct])
        index += 1
    return rows


def _fig22_rows(results: Dict[str, RunResult]) -> Rows:
    rows = []
    for label, r in results.items():
        fabric = r.extras["cluster"]["fabric"]
        rows.append([label, r.throughput_gbps, r.loss_rate * 100,
                     r.latency_mean * 1e6, fabric["forwarded"],
                     fabric["dropped"] + fabric["unknown_dst"]])
    return (["flow pairs", "Gbps", "loss%", "lat us", "fabric frames",
             "fabric drops"], rows)


def _fig21c_rows(results: Dict[str, RunResult]) -> Rows:
    rows = []
    for label, r in results.items():
        fabric = r.extras["cluster"]["fabric"]
        faults = r.extras.get("faults", {})
        rows.append([label, r.throughput_gbps, r.loss_rate * 100,
                     fabric["dropped"] + fabric["unknown_dst"],
                     faults.get("fabric_drained", 0),
                     faults.get("uplink_failovers", 0)])
    return (["fault", "Gbps", "loss%", "fabric drops", "drained",
             "failovers"], rows)


def _migration_rows(results: Dict[str, RunResult]) -> Rows:
    timeline = results.get("timeline")
    return (["t (s)", "Mbps", "dom0%"],
            migration_timeline_rows(timeline) if timeline is not None
            else [])


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
FIGURES: Dict[str, Figure] = {
    figure.name: figure for figure in [
        Figure("fig06", "SR-IOV with 2.6.18 HVM guests, single 1 GbE port",
               _fig06_scenarios, _fig06_rows),
        Figure("fig07", "VM-exit cycles/second by exit kind",
               _fig07_scenarios, _fig07_rows),
        Figure("fig08", "UDP_STREAM vs interrupt-coalescing policy",
               _fig08_scenarios, _fig08_rows),
        Figure("fig09", "TCP_STREAM vs interrupt-coalescing policy",
               _fig09_scenarios, _fig09_rows),
        Figure("fig10", "inter-VM RX under coalescing policies",
               _fig10_scenarios, _fig10_rows),
        Figure("fig12", "optimizations at aggregate 10 GbE (10 VMs)",
               _fig12_scenarios, _fig12_rows),
        Figure("fig13", "SR-IOV inter-VM throughput vs message size",
               _fig13_scenarios, _intervm_rows),
        Figure("fig14", "PV inter-VM throughput vs message size",
               _fig14_scenarios, _intervm_rows),
        Figure("fig15", "SR-IOV scalability, HVM guests, aggregate 10 GbE",
               _fig15_scenarios, _scaling_rows),
        Figure("fig16", "SR-IOV scalability, PVM guests, aggregate 10 GbE",
               _fig16_scenarios, _scaling_rows),
        Figure("fig17", "PV NIC scalability, HVM guests",
               _fig17_scenarios, _pv_scaling_rows),
        Figure("fig18", "PV NIC scalability, PVM guests",
               _fig18_scenarios, _pv_scaling_rows),
        Figure("fig19", "VMDq scalability (82598, 8 queue pairs)",
               _fig19_scenarios, _fig19_rows),
        Figure("fig20", "PV migration timeline (0.5 s buckets)",
               _fig20_scenarios, _migration_rows),
        Figure("fig21", "DNIS migration timeline (0.5 s buckets)",
               _fig21_scenarios, _migration_rows),
        Figure("fig21f", "DNIS migration timeline under an injected "
                         "VF link flap",
               _fig21f_scenarios, _migration_rows),
        Figure("fig21c", "two-host cluster throughput under injected "
                         "uplink flap and fabric partition",
               _fig21c_scenarios, _fig21c_rows),
        Figure("fig22", "cross-host SR-IOV scaling over a 10 GbE ToR "
                        "(extension beyond the paper)",
               _fig22_scenarios, _fig22_rows),
    ]
}


def resolve_names(only: Optional[Sequence[str]] = None) -> List[str]:
    """Validated figure names, in registry order."""
    if not only:
        return list(FIGURES)
    unknown = [name for name in only if name not in FIGURES]
    if unknown:
        raise ValueError(f"unknown figures: {', '.join(unknown)} "
                         f"(available: {', '.join(FIGURES)})")
    return [name for name in FIGURES if name in set(only)]


def run_figure(name: str, *, quick: bool = False, jobs: int = 1,
               cache: Optional[ResultCache] = None,
               costs: Optional[CostModel] = None,
               audit: bool = True) -> Dict[str, RunResult]:
    """One figure's results, keyed by series label (the benchmarks'
    entrypoint).  Labels whose task failed under supervision are
    absent from the mapping."""
    labeled = FIGURES[name].scenarios(quick)
    outcomes, _ = run_sweep([scenario for _, scenario in labeled],
                            costs=costs, jobs=jobs, cache=cache,
                            audit=audit)
    return {label: outcome.result
            for (label, _), outcome in zip(labeled, outcomes)
            if outcome.result is not None}


def figure_artifact(name: str, results: Dict[str, RunResult],
                    quick: bool) -> Dict[str, object]:
    """The JSON document ``repro figures`` writes for one figure."""
    figure = FIGURES[name]
    columns, rows = figure.rows(results)
    return {
        "schema": FIGURE_SCHEMA,
        "figure": name,
        "title": figure.title,
        "quick": quick,
        "columns": columns,
        "rows": rows,
        "results": {label: result.to_dict()
                    for label, result in results.items()},
    }


def generate_figures(
    names: Sequence[str],
    *,
    quick: bool = False,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    costs: Optional[CostModel] = None,
    out_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    supervise=None,
    audit: bool = True,
    hub=None,
) -> tuple[Dict[str, Dict[str, object]], SweepStats]:
    """Regenerate a batch of figures through one shared campaign.

    All selected figures' scenarios go into a single :func:`run_sweep`
    call, so the pool parallelizes *across* figures and configurations
    shared by two figures simulate once.  Artifacts are written as
    ``<out_dir>/<name>.json`` with canonical formatting — byte-identical
    across ``--jobs`` settings and cache states.

    A cell whose task terminally failed under supervision is *missing*
    from its figure (warned through ``progress``) rather than fatal:
    the remaining cells still render, and a later ``--resume`` of the
    same campaign fills the hole without recomputing the rest.
    """
    say = progress or (lambda message: None)
    batches: List[Tuple[str, LabeledScenarios]] = [
        (name, FIGURES[name].scenarios(quick)) for name in names]
    flat: List[Scenario] = [scenario
                            for _, labeled in batches
                            for _, scenario in labeled]
    outcomes, stats = run_sweep(flat, costs=costs, jobs=jobs, cache=cache,
                                progress=progress, supervise=supervise,
                                audit=audit, hub=hub)
    artifacts: Dict[str, Dict[str, object]] = {}
    cursor = 0
    for name, labeled in batches:
        window = outcomes[cursor:cursor + len(labeled)]
        cursor += len(labeled)
        results = {}
        for (label, _), outcome in zip(labeled, window):
            if outcome.result is None:
                why = outcome.task.error if outcome.task else "no result"
                say(f"warning: {name} is missing cell {label!r} ({why})")
                continue
            results[label] = outcome.result
        artifacts[name] = figure_artifact(name, results, quick)
        if out_dir is not None:
            root = Path(out_dir)
            root.mkdir(parents=True, exist_ok=True)
            path = root / f"{name}.json"
            path.write_text(json.dumps(artifacts[name], sort_keys=True,
                                       indent=1) + "\n")
    return artifacts, stats
