"""Golden determinism: the executed event stream is reproducible.

The engine's whole value is that a (scenario, seed) pair replays
exactly.  These tests pin that at the strongest level we can observe:
the sha256 over every executed event's ``(time, seq, callback
qualname)`` on a fixed multi-VM scenario.

* The replay test guards the contract itself: two runs in one process
  produce identical digests (catches hidden global state — module
  sequences, shared pools, dict-order leaks).
* The golden test pins the digest to a recorded constant, so *any*
  change to event ordering — a reordered schedule call, a tie broken
  differently, a float computed another way — fails loudly.
  If you changed scheduling **on purpose**, re-record the constant
  (run the helper below) and say so in the commit; if you didn't, the
  failure is a real regression.
"""

import hashlib

from repro.core.testbed import Testbed

#: Recorded digest of the fixed scenario below.  Re-record (only) for
#: intentional event-order changes:
#:   PYTHONPATH=src python -c "from tests.sim.test_determinism import \
#:       _run_fixed_scenario; print(_run_fixed_scenario())"
GOLDEN_DIGEST = (
    "6c9ab734935430dcb95adadca131b379145da7b16417d3868f02798caa493bb1")


def _run_fixed_scenario() -> str:
    """Run the fixed three-VM scenario, hashing every executed event."""
    bed = Testbed()
    for index in range(3):
        guest = bed.add_sriov_guest(name=f"vm{index}")
        bed.attach_client_to_sriov(guest, 300e6).start()
    digest = hashlib.sha256()
    update = digest.update

    def observe(handle):
        callback = handle.callback
        name = getattr(callback, "__qualname__", None) or repr(callback)
        update(f"{handle.time!r} {handle.seq} {name}\n".encode())
        callback(*handle.args)

    bed.sim.set_step_observer(observe)
    bed.sim.run(until=0.02)
    return digest.hexdigest()


def test_same_scenario_replays_the_same_event_stream():
    assert _run_fixed_scenario() == _run_fixed_scenario()


def test_event_stream_matches_golden_digest():
    assert _run_fixed_scenario() == GOLDEN_DIGEST
