"""The hot trace sites: a live tracer sees every event, a null one no call.

The per-burst and per-interrupt sites (DMA bookings, MSI delivery, the
VF ISR, vLAPIC injection and EOI, netback batches, netfront receives)
test ``trace.live`` before they build an event.  The ``--trace-out``
files of one short run per receive path are pinned, so a guard that
drops, adds or reorders an event fails here; so does any change to what
the runs do.  Each run gets a fresh interpreter: netfront ids come from
one process-wide counter, and netback's batch events name the thread
``id % threads``.  Re-record (only) for an intentional change:

    PYTHONPATH=src python -m repro --warmup 0.01 --duration 0.02 \\
        sriov --vms 2 --trace-out t.json && sha256sum t.json

and likewise ``pv --vms 2`` and ``vmdq --vms 9``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.testbed import Testbed, TestbedConfig
from repro.vmm.domain import DomainKind

SRC = Path(__file__).resolve().parents[2] / "src"
WINDOW = ["--warmup", "0.01", "--duration", "0.02"]

#: Receive paths: SR-IOV HVM guests on two ports (dma, irq, apic),
#: PV guests (netback, netfront), and VMDq with two guests on the
#: default queue.
RUNS = {
    "sriov": ["sriov", "--vms", "2"],
    "pv": ["pv", "--vms", "2"],
    "vmdq": ["vmdq", "--vms", "9"],
}

PINNED = {
    "sriov":
        "9c580730921fb1f09b58aecf963b99ab4286caaf9e40ee87352cef2dc21c45ac",
    "pv":
        "92d53f4c03f6b7ed40a7bf81e8d61d963011fc3d3ca553fc652ae99232e4b8b9",
    "vmdq":
        "fb3c2f45b47108a7a1bdbe8ce8d12fc0d5b42db7444cd6b2e837fd996b2c6e94",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_file_matches_its_pinned_digest(tmp_path, name):
    path = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, "-m", "repro", *WINDOW, *RUNS[name],
         "--trace-out", str(path)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
        capture_output=True, timeout=120)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[name]


class SilentTracer:
    """Not live, and fails the test if anything calls it anyway."""

    live = False

    def emit(self, category, name, **detail):
        raise AssertionError(f"traced {category}:{name} while not live")

    begin = end = emit

    def is_enabled(self, category):
        return False


def test_a_tracer_that_is_not_live_gets_no_call():
    """Every hot site runs, none calls the tracer: SR-IOV HVM and PVM
    guests, a PV guest and a VMDq guest, with the tracer installed
    after they are built (as a cluster host installs its telemetry).
    A 2.6.18 guest would reach the device model's MSI-X mask emulation,
    a cold site that traces unconditionally."""
    bed = Testbed(TestbedConfig(ports=2))
    guests = [bed.add_sriov_guest(DomainKind.HVM),
              bed.add_sriov_guest(DomainKind.PVM)]
    streams = [bed.attach_client_to_sriov(guest, 500e6) for guest in guests]
    pv = bed.add_pv_guest()
    streams.append(bed.attach_client_to_pv(pv, 500e6))
    vmdq = bed.add_vmdq_guest()
    streams.append(bed.attach_client_to_vmdq(vmdq, 500e6))
    silent = SilentTracer()
    bed.platform.trace = silent
    for port in bed.ports:
        port.datapath.trace = silent
    for stream in streams:
        stream.start()
    bed.sim.run(until=0.01)
    for guest in guests:
        assert guest.driver.interrupts_handled > 0
        assert guest.app.rx_packets > 0
    assert pv.app.rx_packets > 0 and vmdq.app.rx_packets > 0
