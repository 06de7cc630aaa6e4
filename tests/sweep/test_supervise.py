"""Unit tests for the supervised executor: crashes, hangs, retries.

Worker functions live at module level so they pickle into the pool by
reference.  Crash-once workers coordinate through a marker directory
(the same trick the CI chaos hook uses): the first attempt dies with
``os._exit`` *after* dropping its marker, so the retry runs clean.
"""

import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.sweep import supervise
from repro.sweep.supervise import (STATUS_FAILED, STATUS_OK,
                                   STATUS_RETRIED, STATUS_TIMED_OUT,
                                   SuperviseConfig, TaskOutcome,
                                   run_supervised)

#: Fast supervision for tests: tight watchdog polling, near-zero
#: backoff so retries don't slow the suite down.
FAST = dict(backoff_base=0.01, backoff_cap=0.02, poll_interval=0.05)


def _double(payload):
    return {"value": payload["value"] * 2}


def _crash_once(payload):
    marker = Path(payload["dir"]) / f"{payload['key']}.crashed"
    if not marker.exists():
        marker.touch()
        os._exit(13)  # hard worker death: no exception crosses the pipe
    return {"value": payload["value"]}


def _always_crash(payload):
    os._exit(13)


def _hang(payload):
    time.sleep(120)
    return {}


def _deterministic_error(payload):
    raise ValueError(f"bad payload {payload['value']}")


def _tasks(count, **extra):
    return [(f"task{i}", {"key": f"task{i}", "value": i, **extra})
            for i in range(count)]


class TestSerialPath:
    def test_results_and_outcomes(self):
        results, outcomes, respawns, peak_workers = run_supervised(
            _double, _tasks(3), jobs=1)
        assert results == {f"task{i}": {"value": i * 2} for i in range(3)}
        assert all(o.status == STATUS_OK and o.attempts == 1
                   for o in outcomes.values())
        assert respawns == 0
        assert peak_workers == 1

    def test_exception_becomes_failed_outcome(self):
        results, outcomes, _, _ = run_supervised(
            _deterministic_error, _tasks(2), jobs=1)
        assert results == {}
        for outcome in outcomes.values():
            assert outcome.status == STATUS_FAILED
            assert "ValueError" in outcome.error

    def test_on_result_fires_per_task(self):
        seen = []
        run_supervised(_double, _tasks(2), jobs=1,
                       on_result=lambda key, task, result:
                       seen.append((key, task.status, result)))
        assert seen == [("task0", STATUS_OK, {"value": 0}),
                        ("task1", STATUS_OK, {"value": 2})]


class TestPool:
    def test_clean_pool_run(self):
        results, outcomes, respawns, peak_workers = run_supervised(
            _double, _tasks(4), jobs=2, config=SuperviseConfig(**FAST))
        assert results == {f"task{i}": {"value": i * 2} for i in range(4)}
        assert all(o.status == STATUS_OK for o in outcomes.values())
        assert respawns == 0
        assert 1 <= peak_workers <= 2

    def test_worker_crash_is_retried_and_recovers(self, tmp_path):
        results, outcomes, respawns, _ = run_supervised(
            _crash_once, _tasks(2, dir=str(tmp_path)), jobs=2,
            config=SuperviseConfig(**FAST))
        assert results == {f"task{i}": {"value": i} for i in range(2)}
        assert respawns >= 1
        # At least one task died and came back; none terminally failed.
        assert any(o.status == STATUS_RETRIED for o in outcomes.values())
        assert all(o.ok for o in outcomes.values())

    def test_persistent_crash_exhausts_retries(self):
        results, outcomes, respawns, _ = run_supervised(
            _always_crash, _tasks(2), jobs=2,
            config=SuperviseConfig(max_retries=1, **FAST))
        assert results == {}
        assert respawns >= 1
        for outcome in outcomes.values():
            assert outcome.status == STATUS_FAILED
            assert outcome.attempts == 2  # first try + one retry

    def test_hang_hits_the_watchdog(self):
        # Two tasks: a single task takes the serial in-process path,
        # which has no watchdog (a thread cannot preempt itself).
        results, outcomes, respawns, _ = run_supervised(
            _hang, _tasks(2), jobs=2,
            config=SuperviseConfig(task_timeout=0.5, max_retries=0,
                                   **FAST))
        assert results == {}
        assert respawns >= 1
        for outcome in outcomes.values():
            assert outcome.status == STATUS_TIMED_OUT
            assert "timed out" in outcome.error

    def test_deterministic_error_is_never_retried(self):
        results, outcomes, _, _ = run_supervised(
            _deterministic_error, _tasks(2), jobs=2,
            config=SuperviseConfig(**FAST))
        assert results == {}
        for outcome in outcomes.values():
            assert outcome.status == STATUS_FAILED
            assert outcome.attempts == 1  # same inputs fail the same way
            assert "ValueError" in outcome.error

    def test_on_result_persists_as_results_land(self, tmp_path):
        landed = []
        run_supervised(_crash_once, _tasks(2, dir=str(tmp_path)), jobs=2,
                       config=SuperviseConfig(**FAST),
                       on_result=lambda key, task, result:
                       landed.append((key, result is not None)))
        assert sorted(landed) == [("task0", True), ("task1", True)]


class _SubmitBreaksOnce:
    """A pool stand-in that runs each task inline.  The first pool
    takes one task, then its next ``submit`` raises
    ``BrokenProcessPool``: a worker died after the last ``wait()``."""

    pools = 0

    def __init__(self, max_workers):
        type(self).pools += 1
        self.accepts = 1 if type(self).pools == 1 else None

    def submit(self, fn, payload):
        if self.accepts is not None:
            if self.accepts == 0:
                raise BrokenProcessPool("a worker died")
            self.accepts -= 1
        future = Future()
        future.set_result(fn(payload))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestBrokenAtSubmit:
    def test_task_and_pool_mates_requeue_free(self, monkeypatch):
        monkeypatch.setattr(supervise, "ProcessPoolExecutor",
                            _SubmitBreaksOnce)
        monkeypatch.setattr(_SubmitBreaksOnce, "pools", 0)
        said = []
        results, outcomes, respawns, _ = run_supervised(
            _double, _tasks(3), jobs=2, config=SuperviseConfig(**FAST),
            say=said.append)
        assert results == {f"task{i}": {"value": i * 2} for i in range(3)}
        assert all(o.status == STATUS_OK and o.attempts == 1
                   for o in outcomes.values())
        assert respawns == 1
        assert _SubmitBreaksOnce.pools == 2
        assert not said  # nothing was retried with backoff


class TestConfig:
    def test_backoff_is_deterministic_per_key_and_attempt(self):
        cfg = SuperviseConfig()
        assert cfg.backoff("k", 1) == cfg.backoff("k", 1)
        assert cfg.backoff("k", 1) != cfg.backoff("other", 1)

    def test_backoff_grows_and_caps(self):
        cfg = SuperviseConfig(backoff_base=1.0, backoff_cap=4.0)
        # Jitter spans x0.5..x1.5, so compare against the envelope.
        assert cfg.backoff("k", 1) <= 1.5
        assert cfg.backoff("k", 10) <= 4.0 * 1.5


class TestOutcome:
    def test_to_dict_omits_absent_error(self):
        assert TaskOutcome(key="k", status=STATUS_OK,
                           attempts=1).to_dict() == {
            "key": "k", "status": STATUS_OK, "attempts": 1}
        with_error = TaskOutcome(key="k", status=STATUS_FAILED,
                                 attempts=2, error="boom").to_dict()
        assert with_error["error"] == "boom"

    def test_ok_property(self):
        assert TaskOutcome(key="k", status=STATUS_OK).ok
        assert TaskOutcome(key="k", status=STATUS_RETRIED).ok
        assert not TaskOutcome(key="k", status=STATUS_FAILED).ok
        assert not TaskOutcome(key="k", status=STATUS_TIMED_OUT).ok


def test_rejecting_pool_width_happens_in_runner():
    # run_supervised itself accepts jobs<=1 (serial); the engine
    # validates jobs>=1 before calling in.
    results, _, _, _ = run_supervised(_double, _tasks(1), jobs=0)
    assert results["task0"] == {"value": 0}
