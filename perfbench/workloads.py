"""The four workloads: seed -> Scenario, and the correctness digest.

Seed 0 is the canonical shape of each workload.  Any other seed draws
the offered rate(s) from a narrow band around it, chosen so that the
layer mix stays the same: the per-VM rate on ``sriov_rx_*`` keeps the
netperf burst interval at its 100 us floor, so every seed has the same
event schedule and the fluid run still collapses all of it; the cluster
flows stay unsaturated and fully collapsed.  The scenario ``seed`` field
(the testbed's random streams) is drawn too.  ``pv_rx`` has no
offered-rate field in :class:`~repro.api.Scenario` (PV runs always offer
each guest its line share), so its seed changes only that field.

The program only ever receives the generated Scenario.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, Dict, Optional

from repro.api import Scenario
from repro.net.packet import udp_goodput_bps

DEFAULT_SEED = 0

_FIXED_2K = {"kind": "fixed_itr", "hz": 2000}

#: Windows (simulated seconds): ``repro bench``'s full-scale fig15 and
#: fig22 windows, the fig15 one reused for fig17.
_SRIOV_WINDOW = {"warmup": 0.3, "duration": 0.4}
_CLUSTER_WINDOW = {"warmup": 0.3, "duration": 0.5}

#: Per-VM offered load band for the fig15 shape, as a share of the
#: per-port UDP line share.  At 0.99 the netperf burst interval is
#: still clamped to its 100 us floor (it leaves the floor below ~0.984).
_SRIOV_RATE_BAND = (0.99, 1.0)
#: Per-flow offered load band for the fig22 shape (bps).
_CLUSTER_RATE_BAND = (890e6, 910e6)

#: Paper reference for aggregate throughput (EXPERIMENTS.md, Fig. 15
#: and Fig. 17 at 10 VMs).  ``cluster_fluid`` extends the paper and has
#: no reference: it is reported as unvalidated.
PAPER_GBPS = {"sriov_rx_exact": 9.57, "sriov_rx_fluid": 9.57,
              "pv_rx": 9.57, "cluster_fluid": None}

#: sha256 of the normalized result for seed 0, pinned.  Exact and
#: fluid runs of one shape share a digest: that is the fluid contract.
PINNED_DIGESTS = {
    "sriov_rx_exact":
        "158dba5a6c21c1d76e7daf187c8bc508f4ac461c5288afe6f2b71426d54f9965",
    "sriov_rx_fluid":
        "158dba5a6c21c1d76e7daf187c8bc508f4ac461c5288afe6f2b71426d54f9965",
    "cluster_fluid":
        "cc1ea4b5c48ca0888d0ee1b147891a2682e78ddb441fd53585b8b227813d46d7",
    "pv_rx":
        "f4336da4a57fb077f18ac4c4d85970e6843bc9cf9e451bdeef48959774332b13",
}


def _fig15(rng: Optional[random.Random], sim_mode: str) -> Scenario:
    scenario = Scenario(mode="sriov", kind="hvm", policy=_FIXED_2K,
                        vm_count=10, ports=10, sim_mode=sim_mode,
                        **_SRIOV_WINDOW)
    if rng is None:
        return scenario
    share = rng.uniform(*_SRIOV_RATE_BAND)
    return scenario.with_(offered_bps=share * udp_goodput_bps(1e9),
                          seed=rng.randrange(1, 2**31))


def _sriov_rx_exact(rng):
    return _fig15(rng, "exact")


def _sriov_rx_fluid(rng):
    return _fig15(rng, "fluid")


def _pv_rx(rng):
    scenario = Scenario(mode="pv", kind="hvm", vm_count=10, ports=10,
                        **_SRIOV_WINDOW)
    if rng is None:
        return scenario
    return scenario.with_(seed=rng.randrange(1, 2**31))


def _cluster_fluid(rng):
    rates = [900e6, 900e6]
    seed = 42
    if rng is not None:
        rates = [rng.uniform(*_CLUSTER_RATE_BAND) for _ in rates]
        seed = rng.randrange(1, 2**31)
    return Scenario(
        mode="cluster",
        hosts=[{"name": "h0", "vm_count": 1, "ports": 1},
               {"name": "h1", "vm_count": 1, "ports": 1}],
        flows=[{"src_host": "h0", "dst_host": "h1", "offered_bps": rates[0]},
               {"src_host": "h1", "dst_host": "h0", "offered_bps": rates[1]}],
        fabric={"uplink_gbps": 10.0, "latency_s": 2e-5},
        sim_mode="fluid", seed=seed, **_CLUSTER_WINDOW)


WORKLOADS: Dict[str, Callable[[Optional[random.Random]], Scenario]] = {
    "sriov_rx_exact": _sriov_rx_exact,
    "sriov_rx_fluid": _sriov_rx_fluid,
    "cluster_fluid": _cluster_fluid,
    "pv_rx": _pv_rx,
}


def scenario_for(workload: str, seed: int) -> Scenario:
    """The Scenario a workload runs for ``seed`` (0: canonical)."""
    make = WORKLOADS[workload]
    if seed == DEFAULT_SEED:
        return make(None)
    return make(random.Random(f"{workload}/{seed}"))


def reference_scenario(scenario: Scenario) -> Scenario:
    """The exact-mode run whose result a run of ``scenario`` must equal."""
    return scenario.with_(sim_mode="exact")


def smoke_scenario(scenario: Scenario) -> Scenario:
    """The same shape over a tiny window (warm-up and smoke tests)."""
    return scenario.with_(warmup=0.01, duration=0.01)


def normalized(result) -> dict:
    """``RunResult.to_dict()`` minus the two cluster fields that record
    run shape, not results: per-host ``events_executed`` and
    ``sync_windows`` (a fluid run executes fewer events in fewer, wider
    lockstep windows than exact)."""
    payload = result.to_dict()
    cluster = payload["extras"].get("cluster")
    if cluster is not None:
        for host in cluster["hosts"].values():
            host.pop("events_executed", None)
        cluster.pop("sync_windows", None)
    return payload


def digest(result) -> str:
    return hashlib.sha256(json.dumps(normalized(result), sort_keys=True)
                          .encode()).hexdigest()


def paper_err_pct(workload: str, result) -> Optional[float]:
    """Simulated aggregate throughput's error against the paper, in
    percent; None for a workload with no paper reference."""
    reference = PAPER_GBPS[workload]
    if reference is None:
        return None
    return abs(result.throughput_gbps - reference) / reference * 100.0
