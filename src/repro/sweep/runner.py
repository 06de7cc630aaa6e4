"""The campaign engine: cache-aware, pool-parallel, supervised.

One call — :func:`run_sweep` — takes a list of scenarios and returns
their results in input order, having (1) served every previously-seen
configuration straight from the content-addressed cache, (2) executed
each *distinct* remaining configuration exactly once (duplicates within
a campaign collapse onto one simulation), and (3) fanned the distinct
misses out over a supervised ``ProcessPoolExecutor`` when ``jobs > 1``
— worker crashes are retried with backoff, hangs hit a watchdog
timeout, and a broken pool is respawned (see
:mod:`repro.sweep.supervise`).

Crash safety: each result is written to the cache *as it completes*,
not at the end — a campaign killed at any instant keeps every finished
cell, and ``repro sweep --resume`` recomputes none of them.

Determinism contract: the returned results — and therefore any JSON
artifact derived from them — are byte-identical across ``jobs=1`` and
``jobs=N`` and across cold and warm caches.  The simulator itself is
deterministic per seed; the engine's duty is not to launder that
through scheduling, so results are keyed by job index (never by
completion order) and every result, fresh or cached, passes through the
same ``to_dict``/``from_dict`` normalization.  Tasks that ultimately
fail return ``Outcome.result = None`` (plus a ``TaskOutcome`` saying
why) instead of poisoning the ordering.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.api import Scenario
from repro.core.costs import CostModel
from repro.core.experiment import RunResult
from repro.sweep.cache import ResultCache, costs_to_dict
from repro.sweep.jobs import Job, build_jobs, execute_payload
from repro.sweep.supervise import (STATUS_FAILED, STATUS_OK,
                                   STATUS_RETRIED, STATUS_TIMED_OUT,
                                   SuperviseConfig, TaskOutcome,
                                   run_supervised)


@dataclass
class SweepStats:
    """What the engine did, for the one-line summary CI parses."""

    total: int = 0
    hits: int = 0
    misses: int = 0
    #: distinct simulations actually executed (duplicate scenarios in
    #: one campaign collapse onto one run).
    executed: int = 0
    #: Task-outcome counts across the executed jobs (supervision).
    ok: int = 0
    retried: int = 0
    timed_out: int = 0
    failed: int = 0
    #: Worker-pool respawns caused by crashes/timeouts.
    respawns: int = 0
    #: Cache entries quarantined as corrupt during this campaign.
    corrupt: int = 0
    #: Total campaign wall-clock in host seconds (cache scan included).
    wall_s: float = 0.0
    #: Most tasks observed in flight at once.
    peak_workers: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    @property
    def failures(self) -> int:
        """Tasks that ended without a result."""
        return self.timed_out + self.failed

    def summary(self) -> str:
        """The stable, machine-parseable summary line."""
        return (f"cache summary: hits={self.hits} misses={self.misses} "
                f"executed={self.executed} total={self.total} "
                f"hit_rate={self.hit_rate * 100:.1f}%")

    def task_summary(self) -> str:
        """The supervision counterpart of :meth:`summary`.

        New fields append after ``corrupt=`` — CI greps match prefixes
        of this line, so the field order is load-bearing.
        """
        return (f"task summary: ok={self.ok} retried={self.retried} "
                f"timed_out={self.timed_out} failed={self.failed} "
                f"respawns={self.respawns} corrupt={self.corrupt} "
                f"wall_s={self.wall_s:.2f} "
                f"peak_workers={self.peak_workers}")


@dataclass
class Outcome:
    """One scenario's result, with its provenance.

    ``result`` is None when the task ultimately failed under
    supervision; ``task`` then carries the terminal
    :class:`~repro.sweep.supervise.TaskOutcome` (it is None for cache
    hits, which execute nothing).
    """

    index: int
    scenario: Scenario
    key: str
    result: Optional[RunResult]
    cached: bool
    task: Optional[TaskOutcome] = None


def run_sweep(
    scenarios: Sequence[Scenario],
    *,
    costs: Optional[CostModel] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    metrics_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    supervise: Optional[SuperviseConfig] = None,
    audit: bool = True,
    hub=None,
) -> tuple[List[Outcome], SweepStats]:
    """Execute a campaign; outcomes come back in input order.

    ``metrics_dir`` turns on telemetry inside each *executed* job and
    writes one ``<key>.metrics.json`` per job there (cache hits skip
    simulation, hence produce no new metrics file).  ``supervise``
    overrides the default watchdog/retry policy; ``audit=False``
    disables the runtime invariant auditor inside the executed jobs.
    ``hub`` attaches a :class:`~repro.obs.campaign.hub.TelemetryHub`:
    executed jobs stream worker telemetry into its spool, and
    cache/supervision events flow into its journal and dashboard.  The
    hub is observation-only — results, cache entries and every derived
    artifact are byte-identical with it on or off.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    started_wall = time.monotonic()
    say = progress or (lambda message: None)
    costs_dict = costs_to_dict(costs)
    job_list = build_jobs(scenarios, costs)
    stats = SweepStats(total=len(job_list))
    if hub is not None:
        hub.campaign_start(total=len({job.key for job in job_list}),
                           workers=jobs)
    results: Dict[int, RunResult] = {}
    cached: Dict[int, bool] = {}

    misses: List[Job] = []
    for job in job_list:
        corrupt_before = cache.corruption if cache is not None else 0
        entry = cache.get(job.key) if cache is not None else None
        if hub is not None and cache is not None \
                and cache.corruption > corrupt_before:
            hub.cache_quarantined(job.key)
        if entry is not None:
            try:
                results[job.index] = RunResult.from_dict(entry)
                cached[job.index] = True
                stats.hits += 1
                if hub is not None:
                    hub.cache_hit(job.key)
                continue
            except (KeyError, ValueError):
                pass  # unreadable entry: fall through to re-simulate
        misses.append(job)
    stats.misses = len(misses)

    # Collapse duplicate configurations: one simulation per distinct
    # key, its result shared by every job that asked for it.
    distinct: Dict[str, Job] = {}
    for job in misses:
        distinct.setdefault(job.key, job)
    ordered = list(distinct.values())
    stats.executed = len(ordered)
    if ordered:
        say(f"executing {len(ordered)} distinct jobs "
            f"({stats.hits} cached, jobs={jobs})")

    def metrics_path(job: Job) -> Optional[str]:
        if metrics_dir is None:
            return None
        from pathlib import Path
        root = Path(metrics_dir)
        root.mkdir(parents=True, exist_ok=True)
        return str(root / f"{job.key}.metrics.json")

    spool_dir = (str(hub.spool_dir)
                 if hub is not None and hub.spool_dir is not None else None)
    tasks = [(job.key, job.payload(costs_dict, metrics_path(job),
                                   audit=audit, spool_dir=spool_dir))
             for job in ordered]

    def on_result(key: str, task: TaskOutcome,
                  result_dict: Optional[dict]) -> None:
        """Persist each result the moment it lands (crash safety)."""
        job = distinct[key]
        if result_dict is not None:
            if cache is not None:
                cache.put(key, job.scenario.to_dict(), costs_dict,
                          result_dict)
            say(f"  done {job.scenario.mode}#{job.index} [{key[:12]}]")
        else:
            say(f"  FAILED {job.scenario.mode}#{job.index} [{key[:12]}]: "
                f"{task.error}")

    fresh, task_outcomes, stats.respawns, stats.peak_workers = \
        run_supervised(execute_payload, tasks, jobs=jobs,
                       config=supervise, on_result=on_result, say=say,
                       hub=hub)
    statuses = [task.status for task in task_outcomes.values()]
    stats.ok = statuses.count(STATUS_OK)
    stats.retried = statuses.count(STATUS_RETRIED)
    stats.timed_out = statuses.count(STATUS_TIMED_OUT)
    stats.failed = statuses.count(STATUS_FAILED)
    stats.wall_s = time.monotonic() - started_wall
    if cache is not None:
        stats.corrupt = cache.corruption

    for job in misses:
        if job.key in fresh:
            results[job.index] = RunResult.from_dict(fresh[job.key])
        cached[job.index] = False

    outcomes = [Outcome(index=job.index, scenario=job.scenario, key=job.key,
                        result=results.get(job.index),
                        cached=cached[job.index],
                        task=task_outcomes.get(job.key))
                for job in job_list]
    return outcomes, stats
