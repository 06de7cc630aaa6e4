"""Process-per-host execution: one worker process per cluster host.

The sweep engine parallelizes *across* scenarios; this module
parallelizes *inside* one, following the same worker discipline
(:mod:`repro.sweep.jobs`): everything crossing the process boundary is
plain data — spec dicts down, egress batches and result dicts up — so the
parent never holds live simulator state and the pickled floats are
bit-exact.  Each worker builds its :class:`~repro.core.host.Host` from
the same derived seed the serial path uses, which is why the two modes
produce byte-identical results.

Workers are supervised like sweep workers: a hard per-command deadline
(:data:`COMMAND_TIMEOUT_S`) turns a hung or dead worker into a
diagnosable :class:`ClusterWorkerError` instead of a silent stall, and
``close()`` always reaps the child.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
from typing import Dict, List, Optional

from repro.core.costs import CostModel
from repro.core.host import HostSpec

#: Upper bound on one worker command round-trip (a lockstep window is
#: typically microseconds of simulated time; minutes of wall clock means
#: the worker is gone).
COMMAND_TIMEOUT_S = 300.0


class ClusterWorkerError(RuntimeError):
    """A host worker died or timed out mid-run."""


def host_worker(conn, spec_dict: dict, index: int, costs_dict: dict,
                base_seed: int, audit: bool,
                sim_mode: str = "exact",
                faults: Optional[List[dict]] = None) -> None:
    """Worker entrypoint (module-level so it imports under any start
    method).  Answers the parent's command tuples until ``close``."""
    from repro.core.host import Host
    try:
        host = Host(HostSpec.from_dict(spec_dict, index), index,
                    costs=CostModel(**costs_dict), base_seed=base_seed,
                    audit=audit, telemetry=False, sim_mode=sim_mode,
                    faults=faults)
        conn.send(("ok", None))
    except BaseException as exc:  # construction failures must surface
        conn.send(("error", repr(exc)))
        conn.close()
        return
    while True:
        try:
            command, args = conn.recv()
        except EOFError:
            break
        try:
            if command == "mac_table":
                conn.send(("ok", host.mac_table()))
            elif command == "flows":
                host.configure_flows(args)
                conn.send(("ok", None))
            elif command == "peek":
                conn.send(("ok", host.peek()))
            elif command == "advance":
                conn.send(("ok", host.advance(*args)))
            elif command == "start_measurement":
                host.start_measurement()
                conn.send(("ok", None))
            elif command == "collect":
                conn.send(("ok", host.collect()))
            elif command == "close":
                conn.send(("ok", None))
                break
            else:
                conn.send(("error", f"unknown command {command!r}"))
        except BaseException as exc:
            conn.send(("error", repr(exc)))
    conn.close()


class ProcessHost:
    """Parent-side handle on one host worker process.

    Matches :class:`~repro.cluster.runner.InProcessHost`'s protocol;
    ``advance_begin``/``advance_finish`` are genuinely asynchronous here,
    so the coordinator's fan-out/gather runs every host's window
    concurrently.
    """

    def __init__(self, spec: HostSpec, index: int, *,
                 costs: CostModel, base_seed: int, audit: bool,
                 sim_mode: str = "exact",
                 faults: Optional[List[dict]] = None):
        self.name = spec.name
        ctx = mp.get_context()
        self._conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=host_worker,
            args=(child_conn, spec.to_dict(), index,
                  dataclasses.asdict(costs), base_seed, audit, sim_mode,
                  faults),
            name=f"repro-host-{spec.name}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._awaiting = False
        self._receive()  # construction acknowledgement

    # ------------------------------------------------------------------
    # the wire protocol
    # ------------------------------------------------------------------
    def _receive(self):
        if not self._conn.poll(COMMAND_TIMEOUT_S):
            self._reap()
            raise ClusterWorkerError(
                f"host worker {self.name!r} timed out after "
                f"{COMMAND_TIMEOUT_S:.0f}s")
        try:
            status, value = self._conn.recv()
        except EOFError:
            self._reap()
            raise ClusterWorkerError(
                f"host worker {self.name!r} died (exit code "
                f"{self._process.exitcode})")
        if status != "ok":
            self._reap()
            raise ClusterWorkerError(
                f"host worker {self.name!r} failed: {value}")
        return value

    def _call(self, command: str, args=None):
        self._conn.send((command, args))
        return self._receive()

    # ------------------------------------------------------------------
    # the host-runner protocol
    # ------------------------------------------------------------------
    def mac_table(self) -> Dict[int, int]:
        return self._call("mac_table")

    def configure_flows(self, flows: List[dict]) -> None:
        self._call("flows", flows)

    def peek(self) -> Optional[float]:
        return self._call("peek")

    def advance_begin(self, window_end: float, inbound: List[tuple],
                      until: float, rx_bps: float) -> None:
        self._conn.send(("advance", (window_end, inbound, until, rx_bps)))
        self._awaiting = True

    def advance_finish(self):
        self._awaiting = False
        return self._receive()

    def start_measurement(self) -> None:
        self._call("start_measurement")

    def collect(self) -> dict:
        return self._call("collect")

    def close(self) -> None:
        if self._process.is_alive():
            try:
                if not self._awaiting:
                    self._conn.send(("close", None))
                    self._conn.poll(5.0)
            except (BrokenPipeError, OSError):
                pass
        self._reap()

    def _reap(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout=5.0)
