"""PV results pinned: the whole ``RunResult`` of two short PV runs.

Every packet a PV guest receives goes through netback's grant copy,
an event-channel notify and netfront.  These digests pin that path's
results in the tier-1 suite: ten HVM guests on the multi-thread
backend, and four PVM guests on the stock single-thread backend, which
saturates and drops bursts (``loss_rate`` about 0.45).  Any change to
a PV result fails here.  Re-record (only) for an intentional change:

    PYTHONPATH=src python -c "from repro.api import run; \\
        from tests.integration.test_pv_pinned import SCENARIOS, digest; \\
        print({n: digest(run(s)) for n, s in SCENARIOS.items()})"
"""

import hashlib
import json

import pytest

from repro.api import Scenario, run

SCENARIOS = {
    "hvm_multi_thread": Scenario(mode="pv", kind="hvm", vm_count=10,
                                 ports=10, warmup=0.02, duration=0.03),
    "pvm_single_thread": Scenario(mode="pv", vm_count=4, ports=4,
                                  single_thread_backend=True,
                                  warmup=0.02, duration=0.03),
}

PINNED = {
    "hvm_multi_thread":
        "08d0c909e361c4503775a7c65accd6ad5854fadbbae1f74d12ad218abe493557",
    "pvm_single_thread":
        "0a9353bfa7c38ccb958458a8d43bcb20b539d2d9d3c1e326b0e5f31fd206d5e0",
}


def digest(result):
    """sha256 of the result's JSON, keys sorted."""
    payload = json.dumps(result.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.fixture(scope="module")
def results():
    return {name: run(scenario) for name, scenario in SCENARIOS.items()}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_pv_result_matches_its_pinned_digest(results, name):
    assert digest(results[name]) == PINNED[name]


def test_single_thread_backend_saturates(results):
    # The second shape must keep exercising netback's drop path.
    assert results["pvm_single_thread"].loss_rate > 0.3
