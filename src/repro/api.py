"""The declarative experiment API: one value type, one entrypoint.

Every experiment the paper's evaluation runs — and every point of every
figure — is a :class:`Scenario`: a frozen bundle of JSON-able fields
naming *what* to simulate, with no live objects inside.  :func:`run`
executes one.  Because a Scenario is plain data it round-trips through
``to_dict``/``from_dict``, pickles into the sweep engine's process
pool, hashes into the result cache's content key, and diffs cleanly in
a JSON sweep spec.

Quick start::

    from repro.api import Scenario, run

    result = run(Scenario(mode="sriov", vm_count=10,
                          policy={"kind": "fixed_itr", "hz": 2000}))
    print(f"{result.throughput_gbps:.2f} Gbps")

The older imperative surface (:class:`repro.core.experiment
.ExperimentRunner` and its ``run_*`` methods) remains the execution
layer underneath; this module is the stable, serializable face in
front of it.
"""

from __future__ import annotations

import dataclasses
import difflib
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.core.costs import CostModel
from repro.faults.plan import FaultPlan
from repro.core.experiment import (
    DEFAULT_DURATION,
    DEFAULT_WARMUP,
    ExperimentRunner,
    RunResult,
)
from repro.core.optimizations import OptimizationConfig
from repro.drivers.coalescing import policy_from_spec
from repro.net.fabric import require_int
from repro.net.packet import Protocol
from repro.vmm.domain import DomainKind, GuestKernel

__all__ = [
    "MODES",
    "SCHEMA_VERSION",
    "VARIANTS",
    "RunResult",
    "Scenario",
    "run",
]

#: Experiment families (which measurement loop runs).
MODES = ("sriov", "sriov_tx", "native", "pv", "vmdq", "intervm", "migrate",
         "cluster")

#: The Scenario dict-schema version this build reads and writes.
#: Version 1 is the original single-host surface; version 2 added the
#: multi-host fields (``hosts``/``fabric``/``flows``).  Single-host
#: dicts are emitted *without* a version tag — they are identical under
#: both versions, and omitting it keeps their cache keys byte-identical
#: to every result ever cached.
SCHEMA_VERSION = 2

#: Modes that take a ``variant`` refinement, and its allowed values
#: (first entry is the default).
VARIANTS = {"intervm": ("sriov", "pv"), "migrate": ("dnis", "pv")}

_KINDS = {"hvm": DomainKind.HVM, "pvm": DomainKind.PVM}
_KERNELS = {k.value: k for k in GuestKernel}
_PROTOCOLS = {p.value: p for p in Protocol}


@dataclass(frozen=True)
class Scenario:
    """A complete, serializable description of one experiment run.

    Enum-like fields are stored as their string values (``kind="hvm"``,
    not ``DomainKind.HVM``) so ``to_dict()`` is the identity on every
    field and the dict form *is* the canonical form the sweep cache
    hashes.  ``policy`` and ``opts`` are plain dicts for the same
    reason — see :func:`repro.drivers.coalescing.policy_from_spec` for
    the policy spec vocabulary.
    """

    #: Which measurement loop: one of :data:`MODES`.
    mode: str = "sriov"
    #: Refinement for intervm ("sriov"/"pv") and migrate ("dnis"/"pv");
    #: must be omitted for every other mode (it is filled with the
    #: mode's default at construction).
    variant: Optional[str] = None
    vm_count: int = 10
    #: Guest flavour: "hvm" or "pvm".
    kind: str = "hvm"
    #: Guest kernel: "2.6.18" (masks MSI per interrupt) or "2.6.28".
    kernel: str = "2.6.28"
    #: SR-IOV NIC family: "82576" or "82599".
    nic: str = "82576"
    protocol: str = "udp"
    #: netperf message size for the inter-VM experiments.
    message_bytes: int = 1500
    ports: int = 10
    vfs_per_port: int = 7
    #: PV mode: use the stock single-threaded netback.
    single_thread_backend: bool = False
    #: intervm/sriov: transmitting side, "guest" or "dom0".
    sender: str = "guest"
    #: Offered load override (bps): per-VM for sriov/native, total for
    #: intervm.  None picks each experiment's calibrated default.
    offered_bps: Optional[float] = None
    #: Declarative coalescing-policy spec, e.g.
    #: ``{"kind": "fixed_itr", "hz": 2000}``; None picks the
    #: experiment's default policy.
    policy: Optional[Mapping] = None
    #: §5 optimization switches as a dict of
    #: :class:`~repro.core.optimizations.OptimizationConfig` fields;
    #: None means the experiment default (everything on).
    opts: Optional[Mapping] = None
    #: migrate: when the migration is requested (simulated seconds).
    start_at: float = 4.5
    #: Seed for the testbed's random streams.  Part of the cache key:
    #: sweeping it is how you get independent replicas of a scenario.
    seed: int = 42
    warmup: float = DEFAULT_WARMUP
    duration: float = DEFAULT_DURATION
    #: Simulation datapath: "exact" (per-packet events, the reference)
    #: or "fluid" (collapsed-window fast path, :mod:`repro.sim.fluid`).
    #: Fluid results are byte-identical to exact: each flow either
    #: collapses or stays exact under a named eligibility gate, counted
    #: per gate in ``RunResult.fluid["rejections"]``.  Part of the
    #: cache key when "fluid"; omitted from :meth:`to_dict` when
    #: "exact" so existing cache keys never move.
    sim_mode: str = "exact"
    #: Declarative fault-injection plan: a list of spec dicts (see
    #: :mod:`repro.faults` and docs/faults.md).  None or empty means
    #: no faults — and is *omitted* from :meth:`to_dict`, so fault-free
    #: scenarios hash to exactly the cache keys they always had.
    faults: Optional[Sequence[Mapping]] = None
    #: cluster mode: per-host placement, a list of
    #: :class:`repro.core.host.HostSpec` dicts.  Required for (and
    #: exclusive to) ``mode="cluster"``; omitted from :meth:`to_dict`
    #: when absent so single-host cache keys never move.
    hosts: Optional[Sequence[Mapping]] = None
    #: cluster mode: the ToR fabric, a
    #: :class:`repro.net.fabric.FabricSpec` dict (None = defaults).
    fabric: Optional[Mapping] = None
    #: cluster mode: the tenant traffic matrix, a list of
    #: :class:`repro.core.host.FlowSpec` dicts.
    flows: Optional[Sequence[Mapping]] = None
    #: Dict-schema version (see :data:`SCHEMA_VERSION`).  Accepted on
    #: input as 1 or 2 and normalized to the current version; emitted
    #: only for multi-host scenarios.
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version not in (1, SCHEMA_VERSION):
            raise ValueError(
                f"unsupported scenario schema_version "
                f"{self.schema_version!r}: this build reads versions 1 "
                f"and {SCHEMA_VERSION} (a newer repro wrote this dict?)")
        object.__setattr__(self, "schema_version", SCHEMA_VERSION)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}: "
                             f"use one of {', '.join(MODES)}")
        allowed = VARIANTS.get(self.mode)
        if allowed is None:
            if self.variant is not None:
                raise ValueError(f"mode {self.mode!r} takes no variant")
        else:
            variant = self.variant if self.variant is not None else allowed[0]
            if variant not in allowed:
                raise ValueError(f"mode {self.mode!r} variant must be one "
                                 f"of {allowed}, not {variant!r}")
            object.__setattr__(self, "variant", variant)
        for fname, choices in [("kind", _KINDS), ("kernel", _KERNELS),
                               ("protocol", _PROTOCOLS)]:
            if getattr(self, fname) not in choices:
                raise ValueError(f"{fname} must be one of "
                                 f"{sorted(choices)}, not "
                                 f"{getattr(self, fname)!r}")
        if self.sender not in ("guest", "dom0"):
            raise ValueError(f"sender must be 'guest' or 'dom0', "
                             f"not {self.sender!r}")
        if self.sim_mode not in ("exact", "fluid"):
            raise ValueError(f"sim_mode must be 'exact' or 'fluid', "
                             f"not {self.sim_mode!r}")
        if not (math.isfinite(self.warmup) and self.warmup >= 0):
            raise ValueError(f"warmup must be finite and >= 0, "
                             f"not {self.warmup!r}")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"duration must be finite and > 0, "
                             f"not {self.duration!r}")
        for fname in ("vm_count", "ports", "vfs_per_port", "message_bytes"):
            value = getattr(self, fname)
            require_int(fname, value)
            if value < 1:
                raise ValueError(f"{fname} must be >= 1, not {value!r}")
        # Part of the cache key: True, 7.5 or "3" would run under a key
        # of its own.
        require_int("seed", self.seed)
        if self.offered_bps is not None and not (
                math.isfinite(self.offered_bps) and self.offered_bps > 0):
            raise ValueError(f"offered_bps must be None or finite and > 0, "
                             f"not {self.offered_bps!r}")
        if not math.isfinite(self.start_at):
            raise ValueError(f"start_at must be finite, "
                             f"not {self.start_at!r}")
        # Normalize the mapping fields to plain dicts so equality,
        # pickling and JSON hashing see one representation.
        for fname in ("policy", "opts"):
            value = getattr(self, fname)
            if value is not None:
                object.__setattr__(self, fname, dict(value))
        # Fail at construction, not at run time in a pool worker.
        if self.policy is not None:
            policy_from_spec(self.policy)
        if self.opts is not None:
            OptimizationConfig(**self.opts)
        # Normalize the fault plan: validated, defaults filled, empty
        # collapsed to None so "no faults" has one representation.
        if self.faults:
            plan = FaultPlan.from_specs(self.faults)
            object.__setattr__(self, "faults", plan.to_list())
        else:
            object.__setattr__(self, "faults", None)
        self._normalize_cluster_fields()

    def _normalize_cluster_fields(self) -> None:
        """Validate + canonicalize ``hosts``/``fabric``/``flows``.

        Like ``faults``, each is normalized through its spec dataclass
        (defaults filled, unknown keys rejected) and empty collapses to
        None, so every multi-host scenario has exactly one dict form.
        """
        from repro.core.host import FlowSpec, HostSpec
        from repro.faults.plan import CLUSTER_FAULT_KINDS
        from repro.net.fabric import FabricSpec
        if self.mode != "cluster":
            for fname in ("hosts", "fabric", "flows"):
                if getattr(self, fname):
                    raise ValueError(
                        f"{fname}= is a cluster-mode field; mode "
                        f"{self.mode!r} does not take it")
                object.__setattr__(self, fname, None)
            for fault in (self.faults or ()):
                if fault["kind"] in CLUSTER_FAULT_KINDS:
                    raise ValueError(
                        f"fault kind {fault['kind']!r} is cluster-scope: "
                        f"it needs mode='cluster' with hosts=")
                if fault.get("host") is not None:
                    raise ValueError(
                        f"fault host= targets a cluster host; mode "
                        f"{self.mode!r} has no hosts")
            return
        if not self.hosts:
            raise ValueError("mode='cluster' needs hosts=: a list of "
                             "host spec dicts, e.g. "
                             "[{'name': 'h0', 'vm_count': 2}, ...]")
        host_specs = [HostSpec.from_dict(entry, index)
                      for index, entry in enumerate(self.hosts)]
        names = [spec.name for spec in host_specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate host names: {sorted(names)}")
        self._validate_cluster_faults(host_specs)
        vm_counts = {spec.name: spec.vm_count for spec in host_specs}
        flow_specs = [FlowSpec.from_dict(entry)
                      for entry in (self.flows or ())]
        for flow in flow_specs:
            for role, host, vm in (("src", flow.src_host, flow.src_vm),
                                   ("dst", flow.dst_host, flow.dst_vm)):
                if host not in vm_counts:
                    raise ValueError(
                        f"flow {role}_host {host!r} is not a declared "
                        f"host (hosts: {sorted(vm_counts)})")
                if vm >= vm_counts[host]:
                    raise ValueError(
                        f"flow {role}_vm {vm} out of range: host "
                        f"{host!r} places {vm_counts[host]} VMs")
        object.__setattr__(self, "hosts",
                           [spec.to_dict() for spec in host_specs])
        object.__setattr__(self, "fabric",
                           FabricSpec.from_dict(self.fabric).to_dict())
        object.__setattr__(self, "flows",
                           [spec.to_dict() for spec in flow_specs]
                           if flow_specs else None)

    def _validate_cluster_faults(self, host_specs) -> None:
        """Cluster-mode fault checks that need the host list: every
        ``host=`` reference (and partition group member) must name a
        declared host, port indexes must exist, and single-host-only
        kinds are rejected.  Runs at construction so a bad plan fails
        here, not inside a sweep-pool worker."""
        if not self.faults:
            return
        names = {spec.name for spec in host_specs}
        ports_by_host = {spec.name: spec.ports for spec in host_specs}

        def check_host(kind, host):
            if host not in names:
                match = difflib.get_close_matches(str(host),
                                                  sorted(names), n=1)
                hint = (f" (did you mean {match[0]!r}?)" if match else "")
                raise ValueError(
                    f"fault {kind!r} targets host {host!r} but the "
                    f"scenario declares {sorted(names)}{hint}")

        for fault in self.faults:
            kind = fault["kind"]
            if kind == "migration_degrade":
                raise ValueError(
                    "migration_degrade targets the single-host "
                    "migration harness; cluster mode does not take it")
            if kind == "fabric_partition":
                seen = set()
                for group in fault["groups"]:
                    for host in group:
                        check_host(kind, host)
                        seen.add(host)
                continue
            host = fault.get("host")
            if host is None:
                raise ValueError(
                    f"cluster-mode fault {kind!r} needs host=<name> "
                    f"(one of {sorted(names)})")
            check_host(kind, host)
            port = fault.get("port")
            if port is not None and port >= ports_by_host[host]:
                raise ValueError(
                    f"fault {kind!r} targets port {port} but host "
                    f"{host!r} has {ports_by_host[host]} port(s)")

    def with_(self, **changes) -> "Scenario":
        """A copy with the given fields changed (sweep-axis helper)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, object]:
        """All fields, as the canonical JSON-able dict.

        Fields that postdate the result cache — ``faults``, the
        multi-host trio, and ``sim_mode`` — are omitted when
        empty/default, and the version tag only appears alongside
        multi-host fields: every single-host, fault-free, exact-mode
        scenario keeps the exact content key it hashed before those
        fields existed.
        """
        data = dataclasses.asdict(self)
        for fname in ("faults", "hosts", "fabric", "flows"):
            if not data.get(fname):
                del data[fname]
        if "hosts" not in data:
            del data["schema_version"]
        if data.get("sim_mode") == "exact":
            del data["sim_mode"]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Scenario":
        """Inverse of :meth:`to_dict`; unknown keys are an error (a
        typo'd sweep axis must not silently no-op)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            hints = []
            for name in sorted(unknown):
                match = difflib.get_close_matches(name, known, n=1)
                hints.append(f"{name!r}" +
                             (f" (did you mean {match[0]!r}?)"
                              if match else ""))
            raise ValueError(
                f"unknown scenario fields: {', '.join(hints)} — valid "
                f"fields are {', '.join(sorted(known))}")
        return cls(**data)


def run(scenario: Scenario, *, costs: Optional[CostModel] = None,
        telemetry: bool = False, profile: bool = False,
        audit: bool = True,
        audit_interval: Optional[float] = None,
        observer=None,
        parallel_hosts: bool = False) -> RunResult:
    """Execute one scenario and return its :class:`RunResult`.

    ``costs`` overrides the calibrated :class:`CostModel`; it is the
    only run input outside the Scenario itself, which is why the sweep
    cache keys on exactly (scenario dict, cost-model dict, schema
    version).  Its per-event cycle costs must be whole numbers
    (:meth:`CostModel.validate` raises ``ValueError`` otherwise).  ``telemetry``/``profile`` attach observers without
    changing the simulation (they never enter the cache key), and
    ``audit``/``audit_interval`` control the runtime invariant auditor
    (:mod:`repro.audit`) — also outside the key: the default
    end-of-run audit is observation-only and fault-free audited runs
    are byte-identical to unaudited ones.  ``observer`` is a
    testbed-construction hook called as ``observer(bed)`` (the
    campaign telemetry streamer attaches its heartbeat through it);
    like telemetry it must never touch the simulation.

    ``parallel_hosts`` applies to ``mode="cluster"`` only: it moves
    each host's engine into its own worker process.  It is an execution
    knob, not part of the scenario — serial and parallel runs return
    byte-identical results and share one cache key.
    """
    if scenario.mode == "cluster":
        from repro.cluster import run_cluster
        return run_cluster(scenario, costs=costs, telemetry=telemetry,
                           audit=audit, parallel_hosts=parallel_hosts)
    runner = ExperimentRunner(costs=costs, warmup=scenario.warmup,
                              duration=scenario.duration,
                              telemetry=telemetry, profile=profile,
                              seed=scenario.seed, faults=scenario.faults,
                              sim_mode=scenario.sim_mode,
                              audit=audit, audit_interval=audit_interval,
                              audit_context={"scenario": scenario.to_dict(),
                                             "seed": scenario.seed},
                              observer=observer)
    kind = _KINDS[scenario.kind]
    opts = (OptimizationConfig(**scenario.opts)
            if scenario.opts is not None else None)
    if scenario.mode in ("sriov", "native"):
        return runner.run_sriov(
            scenario.vm_count, kind=kind,
            kernel=_KERNELS[scenario.kernel], opts=opts,
            policy=scenario.policy,
            protocol=_PROTOCOLS[scenario.protocol],
            ports=scenario.ports, vfs_per_port=scenario.vfs_per_port,
            native=scenario.mode == "native",
            offered_bps_per_vm=scenario.offered_bps, nic=scenario.nic)
    if scenario.mode == "sriov_tx":
        return runner.run_sriov_tx(scenario.vm_count, kind=kind,
                                   policy=scenario.policy,
                                   ports=scenario.ports)
    if scenario.mode == "pv":
        return runner.run_pv(
            scenario.vm_count, kind=kind,
            single_thread_backend=scenario.single_thread_backend,
            protocol=_PROTOCOLS[scenario.protocol], ports=scenario.ports)
    if scenario.mode == "vmdq":
        return runner.run_vmdq(scenario.vm_count, kind=kind)
    if scenario.mode == "intervm":
        if scenario.variant == "pv":
            return runner.run_intervm_pv(
                scenario.message_bytes,
                offered_bps=(scenario.offered_bps
                             if scenario.offered_bps is not None else 8e9),
                kind=kind)
        return runner.run_intervm_sriov(
            scenario.message_bytes,
            offered_bps=(scenario.offered_bps
                         if scenario.offered_bps is not None else 5e9),
            policy=scenario.policy, kind=kind, sender=scenario.sender)
    if scenario.mode == "migrate":
        return runner.run_migrate(scenario.variant, kind=kind,
                                  start_at=scenario.start_at)
    raise AssertionError(f"unhandled mode {scenario.mode!r}")
