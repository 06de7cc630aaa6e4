"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro sriov --vms 10 --kind hvm
    python -m repro sriov --vms 7 --ports 1 --kernel 2.6.18 --no-opts
    python -m repro pv --vms 20 --single-thread
    python -m repro vmdq --vms 40
    python -m repro intervm --mode sriov --message-bytes 4000
    python -m repro migrate --mode dnis
    python -m repro cluster --hosts 2 --vms-per-host 2 --process-hosts
    python -m repro figures --only fig15 --jobs 4
    python -m repro sweep campaign.json --jobs 8 --out results.json

The single-experiment subcommands build one :class:`repro.api.Scenario`
and run it; ``figures`` and ``sweep`` drive whole campaigns through the
:mod:`repro.sweep` engine — parallel across a process pool, and served
from the content-addressed result cache on reruns.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.api import Scenario, run
from repro.core.experiment import RunResult
from repro.drivers.coalescing import CoalescingPolicy, policy_from_spec

KIND_CHOICES = ("hvm", "pvm")
KERNEL_CHOICES = ("2.6.18", "2.6.28")
PROTOCOL_CHOICES = ("udp", "tcp")


def _telemetry_parent() -> argparse.ArgumentParser:
    """Shared observability flags, valid after every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    timing = parent.add_argument_group("measurement window")
    # SUPPRESS: only set when given after the subcommand, so the
    # top-level --warmup/--duration defaults still apply otherwise.
    timing.add_argument("--warmup", type=float, default=argparse.SUPPRESS,
                        help="simulated warmup seconds before measuring")
    timing.add_argument("--duration", type=float, default=argparse.SUPPRESS,
                        help="simulated measurement window seconds")
    group = parent.add_argument_group("observability")
    group.add_argument("--metrics-json", metavar="FILE", default=None,
                       help="write the deterministic metrics snapshot "
                            "(registry + cycle ledger + exit breakdown) "
                            "as JSON")
    group.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write the event trace; .jsonl gets JSONL, "
                            "anything else Chrome trace-event JSON "
                            "(chrome://tracing / Perfetto)")
    group.add_argument("--profile", action="store_true",
                       help="print a host-side wall-clock profile of "
                            "simulator callbacks after the run")
    faults = parent.add_argument_group("fault injection")
    faults.add_argument("--fault", action="append", default=[],
                        metavar="SPEC", dest="fault",
                        help="inject a fault, e.g. "
                             "'link_flap:at=2.0,duration=0.5,port=0' "
                             "(repeatable; see 'repro faults' for the "
                             "vocabulary)")
    audit = parent.add_argument_group("invariant auditing")
    audit.add_argument("--no-audit", action="store_true",
                       help="disable the runtime invariant auditor "
                            "(on by default; see docs/robustness.md)")
    audit.add_argument("--audit-interval", type=float, default=None,
                       metavar="SEC",
                       help="additionally audit every SEC simulated "
                            "seconds (default: audit at run end only)")
    return parent


def _campaign_parent() -> argparse.ArgumentParser:
    """Shared campaign-engine flags (figures / sweep)."""
    from repro.sweep.cache import default_cache_dir
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("campaign engine")
    group.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="process-pool width (1 = run in-process; "
                            "results are byte-identical either way)")
    group.add_argument("--cache-dir", default=default_cache_dir(),
                       metavar="DIR",
                       help="content-addressed result cache directory "
                            "(default: %(default)s, or $REPRO_CACHE_DIR)")
    group.add_argument("--no-cache", action="store_true",
                       help="simulate everything; neither read nor "
                            "write the cache")
    robust = parent.add_argument_group("supervision")
    robust.add_argument("--task-timeout", type=float, default=None,
                        metavar="SEC",
                        help="per-task wall-clock watchdog; an overdue "
                             "worker is terminated and the task retried "
                             "(default: no timeout)")
    robust.add_argument("--max-retries", type=int, default=2, metavar="N",
                        help="extra attempts after the first for worker "
                             "crashes/timeouts (default: %(default)s)")
    robust.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="write an atomic campaign checkpoint after "
                             "every task; resume an interrupted campaign "
                             "with --resume FILE")
    robust.add_argument("--resume", default=None, metavar="FILE",
                        help="resume the campaign recorded in a "
                             "checkpoint file; completed cells come from "
                             "the cache (zero recomputation)")
    robust.add_argument("--no-audit", action="store_true",
                        help="disable the runtime invariant auditor "
                             "inside executed jobs")
    obs = parent.add_argument_group("campaign observability")
    obs.add_argument("--dashboard", action="store_true",
                     help="live in-terminal campaign view (task grid, "
                          "throughput, ETA); degrades to periodic "
                          "one-line summaries when stderr is not a TTY")
    obs.add_argument("--journal", default=None, metavar="FILE",
                     help="append every telemetry record to a "
                          "campaign journal (JSONL; render it with "
                          "'repro report').  Default with --checkpoint/"
                          "--resume: campaign.jsonl next to the "
                          "checkpoint file")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'High Performance Network "
                    "Virtualization with SR-IOV' (HPCA 2010 / JPDC 2012)",
    )
    parser.add_argument("--warmup", type=float, default=1.2,
                        help="simulated warmup seconds before measuring")
    parser.add_argument("--duration", type=float, default=0.5,
                        help="simulated measurement window seconds")
    commands = parser.add_subparsers(dest="command", required=True)
    obs = [_telemetry_parent()]

    sriov = commands.add_parser("sriov", help="SR-IOV receive experiment",
                                parents=obs)
    _add_guest_args(sriov)
    sriov.add_argument("--native", action="store_true",
                       help="run the drivers on bare metal (Fig. 12's "
                            "native baseline)")
    sriov.add_argument("--sim-mode", choices=("exact", "fluid"),
                       default="exact", dest="sim_mode",
                       help="datapath: 'exact' replays every packet as "
                            "an event; 'fluid' collapses steady-state "
                            "windows into per-burst arithmetic with "
                            "byte-identical throughput anchors (see "
                            "docs/performance.md)")

    pv = commands.add_parser("pv", help="PV split-driver experiment",
                             parents=obs)
    pv.add_argument("--vms", type=int, default=10)
    pv.add_argument("--ports", type=int, default=10)
    pv.add_argument("--kind", choices=KIND_CHOICES, default="hvm")
    pv.add_argument("--single-thread", action="store_true",
                    help="use the stock single-threaded netback")

    vmdq = commands.add_parser("vmdq", help="VMDq experiment (Fig. 19)",
                               parents=obs)
    vmdq.add_argument("--vms", type=int, default=10)

    intervm = commands.add_parser("intervm",
                                  help="inter-VM experiment (Figs. 13-14)",
                                  parents=obs)
    intervm.add_argument("--mode", choices=["sriov", "pv"], default="sriov")
    intervm.add_argument("--message-bytes", type=int, default=1500)
    intervm.add_argument("--sim-mode", choices=("exact", "fluid"),
                         default="exact", dest="sim_mode",
                         help="datapath mode (sriov variant only; the "
                              "fluid fast path collapses the loopback "
                              "chain — see docs/performance.md)")

    migrate = commands.add_parser("migrate",
                                  help="live migration (Figs. 20-21)",
                                  parents=obs)
    migrate.add_argument("--mode", choices=["pv", "dnis"], default="dnis")
    migrate.add_argument("--start-at", type=float, default=4.5)

    cluster = commands.add_parser(
        "cluster", parents=obs,
        help="multi-host scale-out over a modeled ToR fabric (fig22)")
    cluster.add_argument("--hosts", type=int, default=2,
                         help="SR-IOV hosts under the ToR "
                              "(default: %(default)s)")
    cluster.add_argument("--vms-per-host", type=int, default=2,
                         help="guests per host, one VF port each "
                              "(default: %(default)s)")
    cluster.add_argument("--uplink-gbps", type=float, default=10.0,
                         help="per-host ToR uplink bandwidth "
                              "(default: %(default)s)")
    cluster.add_argument("--latency-us", type=float, default=20.0,
                         help="one-way fabric latency in microseconds; "
                              "also the engines' sync lookahead "
                              "(default: %(default)s)")
    cluster.add_argument("--offered-mbps", type=float, default=400.0,
                         help="offered load per tenant flow "
                              "(default: %(default)s)")
    cluster.add_argument("--message-bytes", type=int, default=1500,
                         help="tenant message size (default: %(default)s)")
    cluster.add_argument("--protocol", choices=PROTOCOL_CHOICES,
                         default="udp")
    cluster.add_argument("--process-hosts", action="store_true",
                         help="one worker process per host (byte-"
                              "identical to the default in-process mode)")
    cluster.add_argument("--seed", type=int, default=42,
                         help="base seed; each host derives its own "
                              "stream from it")
    cluster.add_argument("--sim-mode", choices=("exact", "fluid"),
                         default="exact", dest="sim_mode",
                         help="per-host datapath mode: 'fluid' collapses "
                              "eligible uplink TX and inbound RX flows "
                              "within each barrier window (byte-identical "
                              "results — see docs/performance.md)")

    campaign = [_campaign_parent()]
    figures = commands.add_parser(
        "figures", parents=campaign,
        help="regenerate the paper figures' series as JSON artifacts")
    figures.add_argument("--only", action="append", default=None,
                         metavar="FIGN",
                         help="figure selection, e.g. --only fig15 or "
                              "--only fig08,fig09 (repeatable; "
                              "default: all)")
    figures.add_argument("--out-dir", default="figures", metavar="DIR",
                         help="artifact directory (default: %(default)s)")
    figures.add_argument("--quick", action="store_true",
                         help="smoke-scale campaign: same code paths, "
                              "NOT the paper's numbers")

    sweep = commands.add_parser(
        "sweep", parents=campaign,
        help="run a declarative sweep spec (base/grid/list JSON)")
    sweep.add_argument("spec", metavar="SPEC.json", nargs="?", default=None,
                       help="sweep spec file, or '-' for stdin "
                            "(omit when resuming with --resume)")
    sweep.add_argument("--out", default=None, metavar="FILE",
                       help="write expanded scenarios + results as JSON")
    sweep.add_argument("--metrics-dir", default=None, metavar="DIR",
                       help="enable telemetry in every executed job and "
                            "write one <key>.metrics.json per job")

    report = commands.add_parser(
        "report",
        help="render a campaign journal as self-contained static HTML")
    report.add_argument("journal", metavar="JOURNAL.jsonl",
                        help="the campaign.jsonl a --journal/--dashboard "
                             "campaign wrote")
    report.add_argument("--out", default=None, metavar="FILE",
                        help="output HTML path (default: the journal "
                             "path with .html)")
    report.add_argument("--baseline", default=None,
                        metavar="JOURNAL.jsonl",
                        help="a prior campaign journal to diff against "
                             "(per-cell throughput/runtime deltas)")
    report.add_argument("--check", action="store_true",
                        help="strictly validate the journal's schema "
                             "and exit without writing HTML")

    faults = commands.add_parser(
        "faults", parents=campaign,
        help="show the fault-injection vocabulary, validate a plan, "
             "or run a seeded fault-fuzzing campaign")
    faults.add_argument("--check", metavar="PLAN.json", default=None,
                        help="validate a JSON fault plan (a list of "
                             "spec dicts; '-' reads stdin) and print "
                             "its normalized form")
    faults.add_argument("--fuzz", type=int, default=None, metavar="N",
                        help="run N random faulted scenarios (single-host "
                             "and cluster mixes) under the supervised "
                             "campaign engine with the invariant auditor "
                             "armed — a conservation-violation hunter")
    faults.add_argument("--seed", type=int, default=42,
                        help="fuzz generation seed; (N, seed) fully "
                             "determines the scenario list "
                             "(default: %(default)s)")

    return parser


def _add_guest_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--vms", type=int, default=10,
                     help="number of guests")
    sub.add_argument("--ports", type=int, default=10,
                     help="1 GbE ports in the testbed")
    sub.add_argument("--kind", choices=KIND_CHOICES, default="hvm")
    sub.add_argument("--kernel", choices=KERNEL_CHOICES, default="2.6.28")
    sub.add_argument("--protocol", choices=PROTOCOL_CHOICES, default="udp")
    sub.add_argument("--no-opts", action="store_true",
                     help="disable all §5 optimizations")
    sub.add_argument("--itr", default="aic",
                     help="coalescing policy: 'aic', 'dynamic', or a "
                          "fixed frequency in Hz (e.g. 2000)")
    sub.add_argument("--seed", type=int, default=42,
                     help="testbed random-stream seed")


def parse_policy_spec(spec: str) -> Dict[str, object]:
    """``--itr`` shorthand -> the declarative policy spec dict."""
    if spec == "aic":
        return {"kind": "aic"}
    if spec == "dynamic":
        return {"kind": "dynamic_itr"}
    try:
        return {"kind": "fixed_itr", "hz": float(spec)}
    except ValueError:
        raise SystemExit(f"unknown ITR policy {spec!r}: use 'aic', "
                         "'dynamic', or a frequency in Hz")


def parse_policy(spec: str) -> CoalescingPolicy:
    """``--itr`` shorthand -> a live policy object."""
    return policy_from_spec(parse_policy_spec(spec))


def parse_fault_spec(text: str) -> Dict[str, object]:
    """``--fault`` shorthand -> a normalized fault spec dict.

    Format: ``kind`` or ``kind:key=value,key=value``.  Values parse as
    JSON when they can (numbers, null) and fall back to strings.
    """
    from repro.faults import FaultSpecError, validate_spec

    kind, _, rest = text.partition(":")
    spec: Dict[str, object] = {"kind": kind.strip()}
    if rest.strip():
        for pair in rest.split(","):
            key, sep, value = pair.partition("=")
            if not sep or not key.strip():
                raise SystemExit(f"bad --fault field {pair!r} in "
                                 f"{text!r}: expected key=value")
            try:
                spec[key.strip()] = json.loads(value)
            except ValueError:
                spec[key.strip()] = value.strip()
    try:
        return validate_spec(spec)
    except FaultSpecError as exc:
        raise SystemExit(f"bad --fault {text!r}: {exc}")


def print_result(result: RunResult) -> None:
    from repro.core.report import format_run_result
    print(format_run_result(result))


def _wants_telemetry(args) -> bool:
    return bool(args.metrics_json or args.trace_out)


def _export_observability(args, telemetry, profiler, elapsed: float) -> None:
    """Write --metrics-json / --trace-out and print --profile output.

    The results are on stdout by now; an unwritable path ends the
    command with one line naming the flag and the path."""
    def export(flag, write, path, *rest):
        try:
            return write(path, *rest)
        except OSError as exc:
            raise SystemExit(f"{flag}: cannot write {path}: "
                             f"{exc.strerror or exc}")

    if args.metrics_json and telemetry is not None:
        export("--metrics-json", telemetry.write_metrics, args.metrics_json,
               elapsed)
        print(f"metrics    : wrote {args.metrics_json}", file=sys.stderr)
    if args.trace_out and telemetry is not None:
        fmt = export("--trace-out", telemetry.write_trace, args.trace_out)
        print(f"trace      : wrote {args.trace_out} ({fmt})",
              file=sys.stderr)
    if getattr(args, "profile", False) and profiler is not None:
        print(profiler.table(), file=sys.stderr)


def _scenario_for(args) -> Scenario:
    """The Scenario a single-experiment subcommand describes."""
    faults = [parse_fault_spec(text) for text in args.fault] or None
    common = dict(warmup=args.warmup, duration=args.duration,
                  faults=faults)
    if args.command == "sriov":
        return Scenario(
            mode="native" if args.native else "sriov",
            vm_count=args.vms, kind=args.kind, kernel=args.kernel,
            protocol=args.protocol, ports=args.ports,
            opts={} if args.no_opts else None,
            policy=parse_policy_spec(args.itr), seed=args.seed,
            sim_mode=args.sim_mode, **common)
    if args.command == "pv":
        return Scenario(mode="pv", vm_count=args.vms, kind=args.kind,
                        single_thread_backend=args.single_thread,
                        ports=args.ports, **common)
    if args.command == "vmdq":
        return Scenario(mode="vmdq", vm_count=args.vms, kind="pvm",
                        **common)
    if args.command == "intervm":
        # PV inter-VM rides dom0's copy path; the paper measures it
        # with PVM guests (HVM adds the interrupt-conversion layer).
        return Scenario(mode="intervm", variant=args.mode,
                        kind="pvm" if args.mode == "pv" else "hvm",
                        message_bytes=args.message_bytes,
                        sim_mode=args.sim_mode, **common)
    if args.command == "migrate":
        return Scenario(mode="migrate", variant=args.mode,
                        start_at=args.start_at, faults=faults)
    if args.command == "cluster":
        # Ring traffic matrix: every guest j on host i streams to
        # guest j on host i+1, so each uplink carries symmetric load.
        hosts = [{"name": f"h{i}", "vm_count": args.vms_per_host,
                  "ports": args.vms_per_host}
                 for i in range(args.hosts)]
        flows = [{"src_host": f"h{i}",
                  "dst_host": f"h{(i + 1) % args.hosts}",
                  "src_vm": j, "dst_vm": j,
                  "offered_bps": args.offered_mbps * 1e6,
                  "message_bytes": args.message_bytes,
                  "protocol": args.protocol}
                 for i in range(args.hosts)
                 for j in range(args.vms_per_host)]
        return Scenario(mode="cluster", hosts=hosts, flows=flows,
                        fabric={"uplink_gbps": args.uplink_gbps,
                                "latency_s": args.latency_us * 1e-6},
                        seed=args.seed, sim_mode=args.sim_mode, **common)
    raise AssertionError(f"no scenario for {args.command!r}")


def _print_migration(result: RunResult, variant: str) -> None:
    migration = result.extras["migration"]
    print(f"migration events ({variant}):")
    for time, name in migration["events"]:
        print(f"  {time:7.2f}s  {name}")
    print(f"downtime: {migration['downtime']:.2f}s "
          f"(blackout {migration['blackout_start']:.2f}s -> "
          f"{migration['blackout_end']:.2f}s)")


def run_cli(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "figures":
        return _run_figures(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "faults":
        return _run_faults(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "cluster":
        return _run_cluster(args)
    result = run(_scenario_for(args), telemetry=_wants_telemetry(args),
                 profile=args.profile, audit=not args.no_audit,
                 audit_interval=args.audit_interval)
    if args.command == "migrate":
        _print_migration(result, args.mode)
    else:
        print_result(result)
        _print_fluid(result)
    _export_observability(args, result.telemetry, result.profiler,
                          result.duration)
    return 0


def _print_fluid(result) -> None:
    """One stderr line of fast-path diagnostics for --sim-mode=fluid:
    how much of the run collapsed, and which eligibility gate refused
    the flows that stayed exact."""
    fluid = getattr(result, "fluid", None)
    if fluid is None:
        return
    collapsed = fluid["collapsed_events"]
    total = collapsed + fluid["events_executed"]
    frac = collapsed / total if total else 0.0
    line = (f"fluid      : {collapsed} of {total} events collapsed "
            f"({frac:.1%}) across {fluid['flows']} flow(s)")
    rejections = fluid.get("rejections") or {}
    if rejections:
        gates = ", ".join(f"{gate}={count}" for gate, count
                          in sorted(rejections.items()))
        line += f"; rejected: {gates}"
    print(line, file=sys.stderr)


def _run_cluster(args) -> int:
    """The ``cluster`` subcommand: one multi-host scenario, with a
    per-host breakdown and fabric counters after the aggregate."""
    from repro.core.report import format_table
    if args.trace_out:
        raise SystemExit("--trace-out is single-host only: per-host "
                         "event traces are not merged (use "
                         "--metrics-json for cluster observability)")
    if args.profile:
        raise SystemExit("--profile is single-host only: each cluster "
                         "host runs its own engine")
    if args.audit_interval is not None:
        raise SystemExit("--audit-interval is single-host only; "
                         "cluster hosts audit at run end (drop the "
                         "flag or use --no-audit)")
    if args.metrics_json and args.process_hosts:
        raise SystemExit("--metrics-json needs the in-process mode: "
                         "drop --process-hosts (results are "
                         "byte-identical either way)")
    result = run(_scenario_for(args), telemetry=bool(args.metrics_json),
                 audit=not args.no_audit,
                 parallel_hosts=args.process_hosts)
    print_result(result)
    _print_fluid(result)
    cluster = result.extras["cluster"]
    # The events column counts simulated work, executed plus collapsed,
    # so a fluid run's stdout stays byte-identical to exact; the
    # collapse split is the stderr line.
    collapsed_by_host = (getattr(result, "fluid", None)
                         or {}).get("collapsed_by_host") or {}
    rows = [[name, host["vm_count"], host["throughput_bps"] / 1e9,
             sum(host["cpu"].values()), host["dropped_packets"],
             host["uplink_tx_frames"],
             host["events_executed"] + collapsed_by_host.get(name, 0)]
            for name, host in sorted(cluster["hosts"].items())]
    print(format_table("per-host", ["host", "VMs", "Gbps", "CPU%",
                                    "drops", "uplink TX", "events"],
                       rows))
    fabric = cluster["fabric"]
    print(f"fabric     : {fabric['uplink_gbps']:g} Gbps uplinks, "
          f"{fabric['latency_s'] * 1e6:g} us latency; "
          f"forwarded {fabric['forwarded']} frames "
          f"({fabric['forwarded_bytes']} B), dropped "
          f"{fabric['dropped']}, unknown-dst {fabric['unknown_dst']}; "
          f"{cluster['sync_windows']} sync windows "
          f"({'process' if args.process_hosts else 'in-process'} hosts)",
          file=sys.stderr)
    _export_observability(args, result.telemetry, None, result.duration)
    return 0


def _cache_for(args):
    from repro.sweep.cache import ResultCache
    return None if args.no_cache else ResultCache(args.cache_dir)


def _supervise_for(args):
    from repro.sweep.supervise import SuperviseConfig
    return SuperviseConfig(task_timeout=args.task_timeout,
                           max_retries=args.max_retries)


def _load_resume(args, kind: str):
    """The checkpoint behind ``--resume``, validated for this command."""
    from repro.sweep.checkpoint import CampaignCheckpoint, CheckpointError
    if args.checkpoint:
        raise SystemExit("--resume already names the checkpoint file; "
                         "drop --checkpoint")
    try:
        checkpoint = CampaignCheckpoint.load(args.resume)
    except CheckpointError as exc:
        raise SystemExit(str(exc))
    if checkpoint.command.get("kind") != kind:
        raise SystemExit(
            f"checkpoint {args.resume} records a "
            f"'{checkpoint.command.get('kind')}' campaign; resume it "
            f"with 'repro {checkpoint.command.get('kind')}'")
    return checkpoint


def _hub_for(args):
    """The TelemetryHub behind --dashboard/--journal (None without)."""
    if not (args.dashboard or args.journal):
        return None
    from pathlib import Path

    from repro.obs.campaign import TelemetryHub
    from repro.obs.campaign.dashboard import Dashboard
    journal = args.journal
    anchor = args.resume or args.checkpoint
    if journal is None and anchor:
        journal = str(Path(anchor).resolve().parent / "campaign.jsonl")
    spool = None
    if journal is None:
        # Dashboard without a journal: worker telemetry still streams,
        # through a throwaway spool the hub removes on finalize.
        import tempfile
        spool = tempfile.mkdtemp(prefix="repro-spool-")
    dashboard = Dashboard() if args.dashboard else None
    if journal:
        _say(f"journal    : {journal}")
    return TelemetryHub(journal_path=journal, spool_dir=spool,
                        dashboard=dashboard)


def _finish_campaign(stats, hub=None) -> int:
    """The shared summary/exit-code tail of figures and sweep."""
    if hub is not None:
        hub.finalize(stats)
        if hub.journal_errors:
            print(f"warning: {hub.journal_errors} journal write "
                  "error(s); the campaign journal is incomplete",
                  file=sys.stderr)
    print(stats.summary())
    print(stats.task_summary())
    if stats.failures:
        print(f"error: {stats.failures} task(s) did not produce a "
              "result (see task summary)", file=sys.stderr)
        return 1
    return 0


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _run_figures(args) -> int:
    from repro.core.report import format_table
    from repro.sweep.checkpoint import CampaignCheckpoint
    from repro.sweep.figures import generate_figures, resolve_names

    quick = args.quick
    checkpoint = None
    if args.resume:
        if args.only:
            raise SystemExit("--resume replays the checkpoint's figure "
                             "selection; drop --only")
        checkpoint = _load_resume(args, "figures")
        names = list(checkpoint.command.get("names") or [])
        quick = bool(checkpoint.command.get("quick"))
        _say(f"resuming {len(checkpoint.completed)}/{checkpoint.total} "
             f"completed tasks from {args.resume}")
    else:
        only: Optional[List[str]] = None
        if args.only:
            only = [name for chunk in args.only
                    for name in chunk.split(",") if name]
        try:
            names = resolve_names(only)
        except ValueError as exc:
            raise SystemExit(str(exc))
        if args.checkpoint:
            checkpoint = CampaignCheckpoint(
                args.checkpoint,
                {"kind": "figures", "names": names, "quick": bool(quick)})
    hub = _hub_for(args)
    artifacts, stats = generate_figures(
        names, quick=quick, jobs=args.jobs, cache=_cache_for(args),
        out_dir=args.out_dir, progress=_say,
        supervise=_supervise_for(args), checkpoint=checkpoint,
        audit=not args.no_audit, hub=hub)
    for name in names:
        artifact = artifacts[name]
        print(format_table(f"{name}: {artifact['title']}",
                           artifact["columns"], artifact["rows"]))
    print(f"\nwrote {len(names)} artifacts to {args.out_dir}/",
          file=sys.stderr)
    return _finish_campaign(stats, hub)


def _run_report(args) -> int:
    from repro.obs.campaign.report import (JournalError, load_journal,
                                           write_report)

    try:
        if args.check:
            records = load_journal(args.journal, strict=True)
            print(f"ok: {len(records)} journal records")
            return 0
        out = write_report(args.journal, args.out, args.baseline)
    except JournalError as exc:
        raise SystemExit(str(exc))
    print(f"report     : wrote {out}", file=sys.stderr)
    return 0


def _run_faults(args) -> int:
    from repro.faults import FAULT_FIELDS, FaultPlan, FaultSpecError
    from repro.faults.plan import REQUIRED

    if args.fuzz is not None or args.resume:
        return _run_fault_fuzz(args)
    if args.check is not None:
        if args.check == "-":
            document = json.load(sys.stdin)
        else:
            with open(args.check) as handle:
                document = json.load(handle)
        if not isinstance(document, list):
            raise SystemExit("a fault plan is a JSON *list* of spec "
                             f"dicts, not {type(document).__name__}")
        try:
            plan = FaultPlan.from_specs(document)
        except FaultSpecError as exc:
            raise SystemExit(f"invalid fault plan: {exc}")
        print(json.dumps(plan.to_list(), indent=1, sort_keys=True))
        print(f"ok: {len(plan)} fault(s)", file=sys.stderr)
        return 0
    print("fault kinds (see docs/faults.md):")
    for kind, fields in FAULT_FIELDS.items():
        parts = [f"{name}=<required>" if default is REQUIRED
                 else f"{name}={default!r}"
                 for name, (default, _) in fields.items()]
        print(f"  {kind:18s} {', '.join(parts)}")
    print("\nusage: --fault 'link_flap:at=2.0,duration=0.5,port=0' "
          "(repeatable),\nor a JSON list in a Scenario's 'faults' field "
          "(validate with --check).\nFuzz mode: repro faults --fuzz N "
          "[--seed S] hunts conservation violations.")
    return 0


def _run_fault_fuzz(args) -> int:
    from repro.faults.fuzz import generate_fuzz_scenarios, violation_outcomes
    from repro.sweep.checkpoint import CampaignCheckpoint
    from repro.sweep.runner import run_sweep

    checkpoint = None
    if args.resume:
        if args.fuzz is not None:
            raise SystemExit("--resume replays the checkpoint's "
                             "(count, seed); drop --fuzz")
        checkpoint = _load_resume(args, "faults-fuzz")
        count = int(checkpoint.command["count"])
        seed = int(checkpoint.command["seed"])
        _say(f"resuming {len(checkpoint.completed)}/{checkpoint.total} "
             f"completed tasks from {args.resume}")
    else:
        count, seed = args.fuzz, args.seed
        if args.checkpoint:
            checkpoint = CampaignCheckpoint(
                args.checkpoint,
                {"kind": "faults-fuzz", "count": count, "seed": seed})
    try:
        scenarios = generate_fuzz_scenarios(count, seed)
    except ValueError as exc:
        raise SystemExit(str(exc))
    _say(f"fuzzing    : {count} faulted scenario(s), seed {seed} "
         "(auditor armed)")
    hub = _hub_for(args)
    outcomes, stats = run_sweep(
        scenarios, jobs=args.jobs, cache=_cache_for(args), progress=_say,
        supervise=_supervise_for(args), checkpoint=checkpoint,
        audit=not args.no_audit, hub=hub)
    code = _finish_campaign(stats, hub)
    violations = violation_outcomes(outcomes)
    if violations:
        print(f"FUZZ: {len(violations)} invariant violation(s) found "
              f"(seed {seed}):", file=sys.stderr)
        for outcome in violations:
            scenario = outcome.scenario
            print(f"  [{outcome.index}] key={outcome.key[:16]} "
                  f"seed={scenario.seed} mode={scenario.mode}: "
                  f"{outcome.task.error}", file=sys.stderr)
            replay = json.dumps(scenario.to_dict(), sort_keys=True)
            print(f"    replay: {replay}", file=sys.stderr)
        return 1
    if code == 0:
        print(f"fuzz clean: {count} scenario(s), zero invariant "
              "violations")
    return code


def _run_sweep(args) -> int:
    from repro.core.report import format_table
    from repro.sweep.checkpoint import CampaignCheckpoint
    from repro.sweep.runner import run_sweep
    from repro.sweep.spec import SweepSpec

    checkpoint = None
    if args.resume:
        if args.spec is not None:
            raise SystemExit("--resume replays the checkpoint's spec; "
                             "drop the SPEC.json argument")
        checkpoint = _load_resume(args, "sweep")
        document = checkpoint.command.get("spec")
        _say(f"resuming {len(checkpoint.completed)}/{checkpoint.total} "
             f"completed tasks from {args.resume}")
    elif args.spec is None:
        raise SystemExit("a sweep needs SPEC.json (or --resume FILE)")
    else:
        try:
            if args.spec == "-":
                document = json.load(sys.stdin)
            else:
                with open(args.spec) as handle:
                    document = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read sweep spec {args.spec}: {exc}")
    try:
        spec = SweepSpec.from_dict(document)
        scenarios = spec.expand()
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad sweep spec: {exc}")
    if checkpoint is None and args.checkpoint:
        checkpoint = CampaignCheckpoint(args.checkpoint,
                                        {"kind": "sweep",
                                         "spec": document})
    hub = _hub_for(args)
    outcomes, stats = run_sweep(scenarios, jobs=args.jobs,
                                cache=_cache_for(args),
                                metrics_dir=args.metrics_dir,
                                progress=_say,
                                supervise=_supervise_for(args),
                                checkpoint=checkpoint,
                                audit=not args.no_audit,
                                hub=hub)
    rows = []
    for o in outcomes:
        if o.result is not None:
            rows.append([o.index, o.scenario.mode, o.key[:8],
                         "hit" if o.cached else "run",
                         o.result.throughput_gbps,
                         o.result.total_cpu_percent,
                         o.result.loss_rate * 100])
        else:
            status = o.task.status if o.task else "missing"
            rows.append([o.index, o.scenario.mode, o.key[:8],
                         status.upper(), "-", "-", "-"])
    print(format_table(f"sweep: {len(outcomes)} scenarios",
                       ["#", "mode", "key", "cache", "Gbps", "CPU%",
                        "loss%"], rows))
    if args.out:
        payload = {
            "schema": "repro-sweep-results/1",
            "results": [{"scenario": o.scenario.to_dict(), "key": o.key,
                         "cached": o.cached,
                         "result": o.result.to_dict()
                         if o.result is not None else None}
                        for o in outcomes],
        }
        with open(args.out, "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
            handle.write("\n")
        print(f"results    : wrote {args.out}", file=sys.stderr)
    return _finish_campaign(stats, hub)


def main() -> None:  # pragma: no cover - thin entry point
    sys.exit(run_cli())
