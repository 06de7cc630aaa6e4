"""Supervised task execution: watchdogs, retries, pool respawn.

The campaign engine hands each distinct job to :func:`run_supervised`,
which owns the ``ProcessPoolExecutor`` and survives everything a worker
can do to it:

* **Crashes** (``os._exit``, SIGKILL, a segfaulting extension) surface
  as ``BrokenProcessPool`` on every in-flight future.  The broken pool
  is discarded and respawned; the crashed task is retried with bounded
  exponential backoff (jitter seeded from the task key, so retry
  timing is reproducible), and innocent tasks that were sharing the
  pool are re-queued without being charged an attempt.
* **Hangs** are caught by a watchdog deadline per in-flight task
  (``task_timeout``).  A stock executor cannot cancel a *running*
  future, so the watchdog terminates the pool's worker processes —
  deliberately converting the hang into the crash path above — and the
  overdue task is retried (terminal status ``timed_out`` once retries
  are exhausted).
* **Deterministic failures** (an ordinary exception raised by the
  payload — an invalid scenario, an
  :class:`~repro.audit.InvariantViolation`) are *not* retried: the
  same inputs would fail the same way.  They produce a ``failed``
  outcome carrying the error text.

Every task ends with a structured :class:`TaskOutcome` — ``ok``,
``retried`` (ok, but needed more than one attempt), ``timed_out`` or
``failed`` — which the campaign summary and the CLI exit code consume.
Results remain keyed by task, never by completion order, so
supervision cannot perturb the engine's byte-identical determinism
contract.
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Terminal outcome statuses.
STATUS_OK = "ok"
STATUS_RETRIED = "retried"
STATUS_TIMED_OUT = "timed_out"
STATUS_FAILED = "failed"


@dataclass
class TaskOutcome:
    """How one supervised task ended."""

    key: str
    status: str = "pending"
    #: Submissions made (1 = clean first try).
    attempts: int = 0
    #: Terminal error text for timed_out/failed outcomes.
    error: Optional[str] = None
    #: Worker-pool respawns this task's crashes caused.
    respawns: int = 0

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_RETRIED)

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"key": self.key, "status": self.status,
                                   "attempts": self.attempts}
        if self.error is not None:
            data["error"] = self.error
        return data


@dataclass
class SuperviseConfig:
    """Supervision knobs (the CLI's --task-timeout / --max-retries)."""

    #: Per-task wall-clock timeout in seconds; None = no watchdog.
    task_timeout: Optional[float] = None
    #: Extra attempts after the first for crash-type failures
    #: (a task is submitted at most ``1 + max_retries`` times).
    max_retries: int = 2
    #: Exponential backoff: base * 2^(attempt-1), capped, ±50% jitter.
    backoff_base: float = 0.25
    backoff_cap: float = 5.0
    #: Future-polling cadence of the watchdog loop.
    poll_interval: float = 0.2

    def backoff(self, key: str, attempt: int) -> float:
        """Deterministic backoff-with-jitter for a task's retry.

        Jitter is seeded from (key, attempt) so a re-run of the same
        campaign retries on the same schedule — no global RNG state is
        consumed.
        """
        delay = min(self.backoff_cap,
                    self.backoff_base * (2 ** max(0, attempt - 1)))
        jitter = random.Random(f"{key}:{attempt}").uniform(0.5, 1.5)
        return delay * jitter


@dataclass
class SuperviseStats:
    """Aggregate counts across one supervised batch."""

    ok: int = 0
    retried: int = 0
    timed_out: int = 0
    failed: int = 0
    respawns: int = 0
    #: Total campaign wall-clock across the batch, in host seconds.
    wall_s: float = 0.0
    #: Most tasks observed in flight at once (1 for in-process runs).
    peak_workers: int = 0

    @property
    def failures(self) -> int:
        return self.timed_out + self.failed

    def summary(self) -> str:
        """One line, machine-parseable (the CLI prints it; CI greps).

        New fields append after ``respawns=`` — existing consumers
        match prefixes of this line, so the order is load-bearing.
        """
        return (f"task summary: ok={self.ok} retried={self.retried} "
                f"timed_out={self.timed_out} failed={self.failed} "
                f"respawns={self.respawns} wall_s={self.wall_s:.2f} "
                f"peak_workers={self.peak_workers}")

    @classmethod
    def of(cls, outcomes: Sequence[TaskOutcome],
           respawns: int = 0, wall_s: float = 0.0,
           peak_workers: int = 0) -> "SuperviseStats":
        stats = cls(respawns=respawns, wall_s=wall_s,
                    peak_workers=peak_workers)
        for outcome in outcomes:
            if outcome.status == STATUS_OK:
                stats.ok += 1
            elif outcome.status == STATUS_RETRIED:
                stats.retried += 1
            elif outcome.status == STATUS_TIMED_OUT:
                stats.timed_out += 1
            elif outcome.status == STATUS_FAILED:
                stats.failed += 1
        return stats


def run_supervised(
    fn: Callable[[dict], dict],
    tasks: Sequence[Tuple[str, dict]],
    *,
    jobs: int = 1,
    config: Optional[SuperviseConfig] = None,
    on_result: Optional[Callable[[str, TaskOutcome, Optional[dict]],
                                 None]] = None,
    say: Optional[Callable[[str], None]] = None,
    hub=None,
) -> Tuple[Dict[str, dict], Dict[str, TaskOutcome], SuperviseStats]:
    """Run ``fn(payload)`` for every (key, payload) task, supervised.

    Returns ``(results, outcomes, stats)``: results keyed by task key
    (absent for tasks that ultimately failed), a TaskOutcome per task,
    and the batch :class:`SuperviseStats` (outcome counts, pool
    respawns, total wall time, peak concurrent workers).  ``on_result``
    fires once per task as it reaches a terminal state — the runner
    uses it to write the cache entry and the campaign checkpoint
    immediately, so a kill mid-campaign preserves every completed
    cell.  ``hub`` is an optional
    :class:`~repro.obs.campaign.hub.TelemetryHub`: it is told about
    submissions and terminal outcomes and polled from the supervision
    loop so worker spool records stream in live.  Supervision is
    observation-only from the engine's view either way — results stay
    keyed by task, never by completion order.
    """
    cfg = config or SuperviseConfig()
    tell = say or (lambda message: None)
    started = time.monotonic()
    results: Dict[str, dict] = {}
    outcomes = {key: TaskOutcome(key=key) for key, _ in tasks}

    def finish(key: str, status: str, error: Optional[str] = None) -> None:
        outcome = outcomes[key]
        outcome.status = status
        outcome.error = error
        if on_result is not None:
            on_result(key, outcome, results.get(key))
        if hub is not None:
            hub.task_terminal(outcome)

    if jobs <= 1 or len(tasks) <= 1:
        # In-process: no watchdog (a thread cannot preempt itself) and
        # no crash-retry (a worker crash here is *our* crash), but the
        # same deterministic-failure capture and outcome surface.
        for key, payload in tasks:
            outcomes[key].attempts = 1
            if hub is not None:
                hub.task_running(key, 1)
            try:
                results[key] = fn(payload)
            except Exception as exc:  # noqa: BLE001 - outcome surface
                finish(key, STATUS_FAILED,
                       f"{type(exc).__name__}: {exc}")
            else:
                finish(key, STATUS_OK)
        return results, outcomes, SuperviseStats.of(
            list(outcomes.values()), wall_s=time.monotonic() - started,
            peak_workers=1 if tasks else 0)

    return _run_pool(fn, tasks, cfg, results, outcomes, finish, jobs,
                     tell, hub, started)


def _run_pool(fn, tasks, cfg, results, outcomes, finish, jobs, tell,
              hub=None, started: Optional[float] = None):
    started = time.monotonic() if started is None else started
    pending: List[Tuple[str, dict]] = list(tasks)
    # Backoff queue: (ready_time, tiebreak, key, payload).
    backoff: List[Tuple[float, int, str, dict]] = []
    tiebreak = itertools.count()
    payloads = dict(tasks)
    width = min(jobs, len(tasks))
    executor = ProcessPoolExecutor(max_workers=width)
    respawns = 0
    peak_workers = 0
    inflight: Dict[object, Tuple[str, float]] = {}

    def transient_failure(key: str, kind: str, charge: bool = True) -> None:
        """A crash/timeout: retry with backoff, or finish terminally."""
        outcome = outcomes[key]
        if not charge:
            # An innocent task killed by a pool-mate's crash or a
            # watchdog pool termination: re-queue free of charge.
            outcome.attempts -= 1
            pending.append((key, payloads[key]))
            return
        if outcome.attempts > cfg.max_retries:
            if kind == "timeout":
                finish(key, STATUS_TIMED_OUT,
                       f"timed out after {cfg.task_timeout}s x "
                       f"{outcome.attempts} attempts")
            else:
                finish(key, STATUS_FAILED,
                       f"worker crashed ({kind}) x {outcome.attempts} "
                       "attempts")
            return
        delay = cfg.backoff(key, outcome.attempts)
        tell(f"  retrying [{key[:12]}] in {delay:.2f}s "
             f"(attempt {outcome.attempts} {kind})")
        heapq.heappush(backoff, (time.monotonic() + delay,
                                 next(tiebreak), key, payloads[key]))

    def respawn_pool() -> None:
        nonlocal executor, respawns
        _shutdown_pool(executor)
        respawns += 1
        executor = ProcessPoolExecutor(max_workers=width)

    restore_sigterm = _shutdown_on_sigterm(lambda: executor)
    try:
        while pending or inflight or backoff:
            now = time.monotonic()
            while backoff and backoff[0][0] <= now:
                _, _, key, payload = heapq.heappop(backoff)
                pending.append((key, payload))
            while pending and len(inflight) < width:
                key, payload = pending.pop(0)
                outcomes[key].attempts += 1
                future = executor.submit(fn, payload)
                inflight[future] = (key, time.monotonic())
                if hub is not None:
                    hub.task_running(key, outcomes[key].attempts)
            peak_workers = max(peak_workers, len(inflight))
            if hub is not None:
                hub.poll()
            if not inflight:
                if backoff:
                    time.sleep(max(0.0, min(cfg.poll_interval,
                                            backoff[0][0]
                                            - time.monotonic())))
                continue
            done, _ = wait(list(inflight), timeout=cfg.poll_interval,
                           return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                key, _ = inflight.pop(future)
                try:
                    results[key] = future.result()
                except BrokenProcessPool:
                    broken = True
                    outcomes[key].respawns += 1
                    transient_failure(key, "BrokenProcessPool")
                except Exception as exc:  # noqa: BLE001 - outcome surface
                    # Deterministic payload failure: never retried.
                    finish(key, STATUS_FAILED,
                           f"{type(exc).__name__}: {exc}")
                else:
                    outcome = outcomes[key]
                    finish(key, STATUS_OK if outcome.attempts == 1
                           else STATUS_RETRIED)
            if broken:
                # Every other in-flight future on a broken pool is
                # doomed too; re-queue them without an attempt charge.
                for future, (key, _) in list(inflight.items()):
                    transient_failure(key, "pool-mate crash",
                                      charge=False)
                inflight.clear()
                respawn_pool()
                continue
            if cfg.task_timeout is None:
                continue
            now = time.monotonic()
            overdue = [(future, key) for future, (key, started)
                       in inflight.items()
                       if now - started > cfg.task_timeout]
            if not overdue:
                continue
            # A running future cannot be cancelled: terminate the
            # workers (everything in flight dies) and respawn.
            overdue_keys = {key for _, key in overdue}
            tell(f"  watchdog: {len(overdue)} task(s) over "
                 f"{cfg.task_timeout}s; terminating workers")
            for future, (key, _) in list(inflight.items()):
                transient_failure(key, "timeout",
                                  charge=key in overdue_keys)
            inflight.clear()
            respawn_pool()
    finally:
        _shutdown_pool(executor)
        restore_sigterm()
    return results, outcomes, SuperviseStats.of(
        list(outcomes.values()), respawns,
        wall_s=time.monotonic() - started, peak_workers=peak_workers)


def _shutdown_on_sigterm(
        pool: Callable[[], ProcessPoolExecutor]) -> Callable[[], None]:
    """Make a SIGTERM shut ``pool()`` down, then end us as before.

    Python's default SIGTERM action ends the process without unwinding,
    so ``_run_pool``'s ``finally`` never runs and the pool's workers
    outlive the campaign.  The handler shuts the pool down, restores
    the previous handler and re-raises the signal: the exit status and
    whatever the campaign wrote (checkpoint, journal) stay as they
    were.  Forked workers inherit the handler; in them it only
    re-raises.  Returns the call that restores the previous handler.
    Nothing is installed off the main thread, or when SIGTERM is
    ignored or handled outside Python.
    """
    previous = signal.getsignal(signal.SIGTERM)
    if (threading.current_thread() is not threading.main_thread()
            or previous in (None, signal.SIG_IGN)):
        return lambda: None
    owner = os.getpid()

    def on_sigterm(signum, frame) -> None:
        if os.getpid() == owner:
            _shutdown_pool(pool())
        signal.signal(signal.SIGTERM, previous)
        signal.raise_signal(signal.SIGTERM)

    signal.signal(signal.SIGTERM, on_sigterm)
    return lambda: signal.signal(signal.SIGTERM, previous)


def _shutdown_pool(executor: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on wedged workers."""
    processes = list(getattr(executor, "_processes", {}).values())
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - interpreter teardown races
        pass
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
