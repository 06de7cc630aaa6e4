"""Results pinned: the whole ``RunResult`` of one short run per mode.

Every mode below measures through the shared window and reduction
(``MeasurementWindow`` and ``reduce_windows`` in
:mod:`repro.core.experiment`), so these digests pin that arithmetic as
well as each mode's datapath.  The fluid == exact tests cannot: both
sides of each comparison go through the same reduction.

- PV: every packet goes through netback's grant copy, an event-channel
  notify and netfront.  Ten HVM guests on the multi-thread backend, and
  four PVM guests on the stock single-thread backend, which saturates
  and drops bursts (``loss_rate`` about 0.45).
- SR-IOV: unoptimized 2.6.18 HVM guests, which take every exit kind
  including ``msix-mask``/``msix-unmask``; PVM guests, which take
  ``hypercall`` exits.
- The native baseline, VMDq, both inter-VM variants, and a two-host
  serial cluster with flows both ways.

Any change to one of these results fails here.  Re-record (only) for
an intentional change:

    PYTHONPATH=src python -c "from repro.api import run; \\
        from tests.integration.test_pinned_results import SCENARIOS, \\
        digest; print({n: digest(run(s)) for n, s in SCENARIOS.items()})"
"""

import hashlib
import json

import pytest

from repro.api import Scenario, run

WINDOW = {"warmup": 0.02, "duration": 0.03}

SCENARIOS = {
    "hvm_multi_thread": Scenario(mode="pv", kind="hvm", vm_count=10,
                                 ports=10, **WINDOW),
    "pvm_single_thread": Scenario(mode="pv", vm_count=4, ports=4,
                                  single_thread_backend=True, **WINDOW),
    "sriov_hvm_2618_unoptimized": Scenario(
        mode="sriov", kernel="2.6.18", opts={}, vm_count=3, ports=2,
        **WINDOW),
    "sriov_pvm": Scenario(mode="sriov", kind="pvm", vm_count=3, ports=2,
                          **WINDOW),
    "native": Scenario(mode="native", vm_count=2, ports=2, **WINDOW),
    "vmdq": Scenario(mode="vmdq", vm_count=4, **WINDOW),
    "intervm_sriov": Scenario(mode="intervm", variant="sriov", **WINDOW),
    "intervm_pv_pvm": Scenario(mode="intervm", variant="pv", kind="pvm",
                               **WINDOW),
    "cluster_two_hosts": Scenario(
        mode="cluster",
        hosts=[{"name": "h0", "vm_count": 1, "ports": 1},
               {"name": "h1", "vm_count": 1, "ports": 1}],
        flows=[{"src_host": "h0", "dst_host": "h1"},
               {"src_host": "h1", "dst_host": "h0"}],
        **WINDOW),
}

PINNED = {
    "hvm_multi_thread":
        "08d0c909e361c4503775a7c65accd6ad5854fadbbae1f74d12ad218abe493557",
    "pvm_single_thread":
        "0a9353bfa7c38ccb958458a8d43bcb20b539d2d9d3c1e326b0e5f31fd206d5e0",
    "sriov_hvm_2618_unoptimized":
        "50d0fac41cc9a935926c4d51ab04119ef28395e607de6ea97e69cd12cba1cf51",
    "sriov_pvm":
        "0724caf9ea22ded12ac179d9961151c78d86604a6437dd4974e18acf3662f676",
    "native":
        "eb4f34beaa2084ad56fcf133b849449ac4e61fa8bdff7342409788c36645775a",
    "vmdq":
        "8dbd35e674a85032d24542360efb6c74e313cab01292ac9d0bcff23506c882a9",
    "intervm_sriov":
        "854e7878d86d14c447fe54339ac00dd66bb580308fb8e4299879d0bc9eabf97f",
    "intervm_pv_pvm":
        "2519ddc7d5ac53026fbb9f727d72bb021afbf8110890e980e006e48976579447",
    "cluster_two_hosts":
        "de3b594bedd2fc9317ee40889e1f882a82e28f7dd3da55bfbd1a286f2b090789",
}


def digest(result):
    """sha256 of the result's JSON, keys sorted."""
    payload = json.dumps(result.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.fixture(scope="module")
def results():
    return {name: run(scenario) for name, scenario in SCENARIOS.items()}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_result_matches_its_pinned_digest(results, name):
    assert digest(results[name]) == PINNED[name]


def test_single_thread_backend_saturates(results):
    # The PV single-thread shape must keep exercising netback's drop
    # path.
    assert results["pvm_single_thread"].loss_rate > 0.3


def test_shapes_cover_every_exit_kind_they_pin(results):
    # The SR-IOV shapes must keep reaching the exit kinds they are
    # here for.
    assert {"msix-mask", "msix-unmask", "apic-access-eoi",
            "apic-access-other", "external-interrupt"} <= set(
        results["sriov_hvm_2618_unoptimized"].exit_counts)
    assert "hypercall" in results["sriov_pvm"].exit_counts
