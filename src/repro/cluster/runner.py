"""The cluster coordinator: lockstep windows, ToR routing, aggregation.

One coordinator owns the :class:`~repro.net.fabric.ToRSwitch` and a set
of host runners — in-process :class:`~repro.core.host.Host` wrappers, or
:class:`~repro.cluster.process.ProcessHost` workers.  Each round it

1. asks the :class:`~repro.sim.sync.LockstepBarrier` for the next safe
   horizon: the smallest host egress frontier (an exact host's next
   event or pending fabric arrival, a collapsed host's transmit
   horizon) plus the fabric-latency lookahead,
2. hands every host its due deliveries and advances it to the horizon
   (all hosts at once in process mode — that is the intra-scenario
   parallelism), and
3. routes, through the ToR and in the global ``(t, source host,
   sequence)`` order, every egress frame below the smallest frontier,
   producing later rounds' arrivals.  Frames at or past it wait: a
   slower host may still emit an earlier frame for the same
   destination.

Egress and ingress travel as per-shape batches of plain floats and ints
(see :meth:`~repro.net.fabric.ToRSwitch.route`), one per flow and
round, never as per-frame records.

Every quantity that reaches the result is computed from plain data in
the coordinator or summed from per-host dicts, so serial and
process-per-host runs are byte-identical by construction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional

from repro.core.costs import CostModel
from repro.core.experiment import RunResult, reduce_windows
from repro.core.host import FlowSpec, Host, HostSpec
from repro.net.fabric import FabricSpec, ToRSwitch
from repro.sim.sync import LockstepBarrier


class InProcessHost:
    """The serial host runner: a thin veneer over :class:`Host` that
    matches the worker-process runner's begin/finish step protocol."""

    def __init__(self, spec: HostSpec, index: int, *, costs, base_seed,
                 audit, telemetry, sim_mode="exact", faults=None):
        self.host = Host(spec, index, costs=costs, base_seed=base_seed,
                         audit=audit, telemetry=telemetry,
                         sim_mode=sim_mode, faults=faults)
        self._step = None

    def mac_table(self) -> Dict[int, int]:
        return self.host.mac_table()

    def configure_flows(self, flows: List[dict]) -> None:
        self.host.configure_flows(flows)

    def peek(self) -> Optional[float]:
        return self.host.peek()

    def advance_begin(self, window_end: float, inbound: List[tuple],
                      until: float, rx_bps: float) -> None:
        self._step = self.host.advance(window_end, inbound, until, rx_bps)

    def advance_finish(self):
        step, self._step = self._step, None
        return step

    def start_measurement(self) -> None:
        self.host.start_measurement()

    def collect(self) -> dict:
        return self.host.collect()

    def close(self) -> None:
        pass


class ClusterTelemetry:
    """Merged observability over every host's namespaced facade.

    Supports the metrics-document surface the CLI exports; per-host
    instrument names arrive pre-prefixed (``host.<name>.…``) so a plain
    dict union is collision-free.
    """

    def __init__(self, hosts: List[Host]):
        self._hosts = hosts

    def metrics_document(self, elapsed: float) -> dict:
        metrics: Dict[str, dict] = {}
        cycles: Dict[str, dict] = {}
        exits: Dict[str, dict] = {}
        for host in self._hosts:
            telemetry = host.telemetry
            document = telemetry.metrics_document(elapsed)
            metrics.update(document["metrics"])
            cycles[host.spec.name] = document["cycles"]
            exits[host.spec.name] = document["exits"]
        return {
            "schema": "repro-obs/1",
            "window": {"elapsed": elapsed,
                       "sim_time_end": self._hosts[0].sim.now},
            "metrics": metrics,
            "cycles": cycles,
            "exits": exits,
        }

    def metrics_json(self, elapsed: float) -> str:
        import json
        return json.dumps(self.metrics_document(elapsed), indent=2,
                          sort_keys=True)

    def write_metrics(self, path: str, elapsed: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.metrics_json(elapsed))


class ClusterCoordinator:
    """Drives N host runners through conservative lockstep windows."""

    def __init__(self, runners, tor: ToRSwitch, lookahead: float,
                 crash_at: Optional[Dict[int, float]] = None):
        self.runners = runners
        self.tor = tor
        self.barrier = LockstepBarrier(lookahead)
        count = len(runners)
        #: Per destination host: routed batches not yet injected, in
        #: arrival order (each host's arrivals are strictly increasing
        #: in routing order — the ToR serializes its egress port).
        self.pending: List[List[tuple]] = [[] for _ in range(count)]
        #: Egress batches handed over but not yet routable (at or past
        #: the smallest frontier).
        self.held: List[tuple] = []
        self.frontiers: List[Optional[float]] = [r.peek() for r in runners]
        #: Hosts whose frontier ignores pending arrivals: a collapsed
        #: host's arrivals replay without emitting egress.
        self.collapsed: List[bool] = [False] * count
        #: host index -> simulated time its engine freezes (host_crash
        #: faults); plan data, identical in serial and process modes.
        self.crash_at: Dict[int, float] = dict(crash_at or {})
        #: Hosts whose engines have reached their crash time.
        self.dead: set = set()

    def _floor_inputs(self):
        """The barrier's inputs: every host's frontier, plus the first
        pending arrival of each host stepping event by event."""
        arrivals = [pending[0][2][0]
                    for index, pending in enumerate(self.pending)
                    if pending and not self.collapsed[index]]
        return self.frontiers, arrivals

    def run(self, until: float) -> None:
        """Advance every host exactly to ``until`` (resumable: pending
        fabric messages beyond ``until`` carry over to the next call)."""
        rx_bps = self.tor.spec.rate_bps
        while True:
            frontiers, arrivals = self._floor_inputs()
            window = self.barrier.next_window(until, frontiers, arrivals)
            # Fan out first, then gather: with process runners every
            # host simulates its window concurrently.  A crashed host's
            # engine is capped at its crash time and then never stepped
            # again; the ToR timeline already drains traffic to or from
            # it, so a dead host can have no due deliveries.
            for index, runner in enumerate(self.runners):
                if index in self.dead:
                    continue
                cap = self.crash_at.get(index)
                end = window if cap is None else min(window, cap)
                runner.advance_begin(end, self._take_due(index, window),
                                     until, rx_bps)
            for index, runner in enumerate(self.runners):
                if index in self.dead:
                    continue
                egress, frontier, collapsed = runner.advance_finish()
                cap = self.crash_at.get(index)
                if cap is not None and window >= cap:
                    self.dead.add(index)
                    frontier = None
                self.frontiers[index] = frontier
                self.collapsed[index] = collapsed
                self.held.extend(egress)
            self._route_held()
            if window >= until:
                return

    def _take_due(self, index: int, window: float) -> List[tuple]:
        """Split off host ``index``'s deliveries with arrival <=
        ``window`` (batches are in arrival order; one may straddle)."""
        pending = self.pending[index]
        due: List[tuple] = []
        while pending:
            batch = pending[0]
            arrivals = batch[2]
            if arrivals[-1] <= window:
                due.append(pending.pop(0))
                continue
            cut = bisect_right(arrivals, window)
            if cut:
                dst_host, shape, _arrivals, created, counts = batch
                due.append((dst_host, shape, arrivals[:cut], created[:cut],
                            None if counts is None else counts[:cut]))
                pending[0] = (dst_host, shape, arrivals[cut:],
                              created[cut:],
                              None if counts is None else counts[cut:])
            break
        return due

    def _route_held(self) -> None:
        """Route every held frame below the smallest frontier, per
        destination in ``(t, src_host, seq)`` order (the only order that
        reaches ToR state); the rest stay held."""
        frontiers, arrivals = self._floor_inputs()
        floor = min((f for f in list(frontiers) + arrivals
                     if f is not None), default=None)
        routable: Dict[Optional[int], List[tuple]] = {}
        held: List[tuple] = []
        for batch in self.held:
            times = batch[1]
            cut = (len(times) if floor is None
                   else bisect_left(times, floor))
            if cut < len(times):
                shape, _times, seqs, created = batch
                held.append((shape, times[cut:], seqs[cut:], created[cut:]))
                if not cut:
                    continue
                batch = (shape, times[:cut], seqs[:cut], created[:cut])
            routable.setdefault(self.tor.host_for(batch[0][2]),
                                []).append(batch)
        self.held = held
        for batches in routable.values():
            for run in _interleave(batches):
                routed = self.tor.route(run)
                if routed is not None:
                    self.pending[routed[0]].append(routed)


def _interleave(batches: List[tuple]) -> List[tuple]:
    """Batches bound for one destination, cut into single-shape runs in
    the global ``(t, src_host, seq)`` frame order."""
    if len(batches) == 1:
        return batches
    frames = sorted((t, batch[0][0], seq, index, created)
                    for index, batch in enumerate(batches)
                    for t, seq, created in zip(batch[1], batch[2],
                                               batch[3]))
    runs: List[tuple] = []
    last = None
    for t, _src_host, seq, index, created in frames:
        if index != last:
            run = (batches[index][0], [], [], [])
            runs.append(run)
            last = index
        run[1].append(t)
        run[2].append(seq)
        run[3].append(created)
    return runs


def run_cluster(scenario, *, costs: Optional[CostModel] = None,
                parallel_hosts: bool = False,
                telemetry: bool = False,
                audit: bool = True) -> RunResult:
    """Execute one ``mode="cluster"`` scenario.

    ``parallel_hosts`` selects process-per-host execution; it is a run
    input (like ``costs``), **not** a Scenario field, so both modes
    share one cache key — which is honest, because they produce
    byte-identical results.  ``telemetry`` wires a namespaced
    per-host facade (serial mode only: live registries cannot cross the
    worker pipes).
    """
    if scenario.mode != "cluster":
        raise ValueError(f"run_cluster needs mode='cluster', "
                         f"not {scenario.mode!r}")
    if telemetry and parallel_hosts:
        raise ValueError("telemetry is observation-only and lives in the "
                         "host processes: use serial mode "
                         "(parallel_hosts=False) to collect it")
    host_specs = [HostSpec.from_dict(h, i)
                  for i, h in enumerate(scenario.hosts)]
    fabric = FabricSpec.from_dict(scenario.fabric)
    flow_specs = [FlowSpec.from_dict(f) for f in (scenario.flows or ())]
    host_index = {spec.name: i for i, spec in enumerate(host_specs)}

    costs = (costs or CostModel()).validate()
    sim_mode = getattr(scenario, "sim_mode", "exact")
    faults = list(getattr(scenario, "faults", None) or ())
    cluster_plan = None
    if faults:
        from repro.faults.cluster import split_plan
        cluster_plan = split_plan(faults, host_specs)
        # Faults force the exact datapath (the collapsed-window replay
        # cannot express mid-window carrier or fabric perturbations),
        # counted below as one ``faults`` rejection per stream.
        sim_mode = "exact"

    def host_faults(spec):
        if cluster_plan is None:
            return None
        return cluster_plan.for_host(spec.name) or None

    if parallel_hosts:
        from repro.cluster.process import ProcessHost
        runners = [ProcessHost(spec, i, costs=costs,
                               base_seed=scenario.seed, audit=audit,
                               sim_mode=sim_mode,
                               faults=host_faults(spec))
                   for i, spec in enumerate(host_specs)]
    else:
        runners = [InProcessHost(spec, i, costs=costs,
                                 base_seed=scenario.seed, audit=audit,
                                 telemetry=telemetry, sim_mode=sim_mode,
                                 faults=host_faults(spec))
                   for i, spec in enumerate(host_specs)]
    try:
        # Program the ToR from every host's VF table, then resolve the
        # traffic matrix to concrete destination MACs per source host.
        tor = ToRSwitch(fabric, len(runners))
        mac_tables = [runner.mac_table() for runner in runners]
        for index, table in enumerate(mac_tables):
            for mac_value in table.values():
                tor.learn(mac_value, index)
        flows_by_host: Dict[int, List[dict]] = {}
        for flow_id, flow in enumerate(flow_specs, start=1):
            src = host_index[flow.src_host]
            dst = host_index[flow.dst_host]
            resolved = {
                "src_vm": flow.src_vm,
                "dst_mac": mac_tables[dst][flow.dst_vm],
                "offered_bps": flow.offered_bps,
                "message_bytes": flow.message_bytes,
                "protocol": flow.protocol,
                "flow_id": flow_id,
            }
            flows_by_host.setdefault(src, []).append(resolved)
        for index, runner in enumerate(runners):
            runner.configure_flows(flows_by_host.get(index, []))
        if cluster_plan is not None:
            tor.set_timeline(cluster_plan.timeline)
        coordinator = ClusterCoordinator(
            runners, tor, fabric.latency_s,
            crash_at=(cluster_plan.timeline.crash_at
                      if cluster_plan is not None else None))
        coordinator.run(scenario.warmup)
        tor.reset_counters()
        for runner in runners:
            runner.start_measurement()
        coordinator.run(scenario.warmup + scenario.duration)
        host_results = [runner.collect() for runner in runners]
    finally:
        for runner in runners:
            runner.close()

    return _aggregate(scenario, host_results, tor, coordinator,
                      fabric, runners if telemetry else None)


def _aggregate(scenario, host_results: List[dict], tor: ToRSwitch,
               coordinator: ClusterCoordinator, fabric: FabricSpec,
               telemetry_runners) -> RunResult:
    from repro.audit import check_fabric_conservation
    check_fabric_conservation(
        tor, sim_time=max(r["elapsed"] for r in host_results))
    fabric_counters = tor.counters()
    # Fabric tail-drops (and unroutable frames) were offered traffic
    # that never reached a receiver's books.  Under a fault plan the
    # same goes for frames drained at silenced endpoints and frames
    # the host uplink layer dropped or still holds for retransmit.
    fabric_lost = fabric_counters["dropped"] + fabric_counters["unknown_dst"]
    fabric_lost += fabric_counters.get("drained", 0)
    fault_totals: Dict[str, int] = {}
    for result in host_results:
        for key, value in (result.get("faults") or {}).items():
            fault_totals[key] = fault_totals.get(key, 0) + value
    uplink_lost = (fault_totals.get("uplink_tx_dropped", 0)
                   + fault_totals.get("uplink_retransmit_pending", 0))
    telemetry_facade = None
    if telemetry_runners is not None:
        hosts = [runner.host for runner in telemetry_runners]
        if all(host.telemetry is not None for host in hosts):
            telemetry_facade = ClusterTelemetry(hosts)
    # Fluid-datapath diagnostics ride as the RunResult sidecar, not in
    # extras: the per-host dicts embedded there must keep the exact
    # run's key set (events_executed aside, a fluid run's extras are
    # byte-identical to exact).
    fluid = None
    if getattr(scenario, "sim_mode", "exact") == "fluid":
        rejections: Dict[str, int] = (
            {"faults": len(scenario.flows or ())}
            if getattr(scenario, "faults", None) else {})
        collapsed_by_host: Dict[str, int] = {}
        collapsed = executed = flow_count = 0
        for result in host_results:
            host_collapsed = result.pop("events_collapsed", 0)
            collapsed_by_host[result["name"]] = host_collapsed
            collapsed += host_collapsed
            flow_count += result.pop("fluid_flows", 0)
            for gate, n in (result.pop("fluid_rejections", None)
                            or {}).items():
                rejections[gate] = rejections.get(gate, 0) + n
            executed += result["events_executed"]
        fluid = {
            "collapsed_events": collapsed,
            "events_executed": executed,
            "flows": flow_count,
            "rejections": rejections,
            "collapsed_by_host": collapsed_by_host,
        }
    extras = {
        "cluster": {
            "hosts": {result["name"]: result for result in host_results},
            "fabric": {**fabric_counters, **fabric.to_dict()},
            "sync_windows": coordinator.barrier.windows,
        },
    }
    if getattr(scenario, "faults", None):
        # Namespaced cluster-wide fault summary: per-host injector and
        # uplink-layer counters summed, plus the ToR's fault buckets.
        # Present only on faulted scenarios, so fault-free extras stay
        # byte-identical to every earlier release.
        extras["faults"] = {
            **fault_totals,
            "fabric_drained": fabric_counters.get("drained", 0),
            "fabric_dropped_partition":
                fabric_counters.get("dropped_partition", 0),
            "fabric_dropped_unreachable":
                fabric_counters.get("dropped_unreachable", 0),
            "hosts_crashed": len(coordinator.dead),
        }
    return reduce_windows(host_results, fabric_lost + uplink_lost,
                          extras=extras, telemetry=telemetry_facade,
                          fluid=fluid)
