"""Checkpoint/resume: atomic progress records and zero recomputation.

The integration test at the bottom does the full robustness loop the
CI chaos-harness also exercises: start a figure campaign in a
subprocess, SIGTERM it mid-flight, resume from the checkpoint, and
assert the resumed artifact is byte-identical to an uninterrupted
run's — with the completed cells served from the cache, not re-run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import Scenario
from repro.sweep import ResultCache, run_sweep
from repro.sweep.checkpoint import (CHECKPOINT_SCHEMA, CampaignCheckpoint,
                                    CheckpointError)


class TestCampaignCheckpoint:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = CampaignCheckpoint(path, {"kind": "sweep",
                                               "spec": {"base": {}}},
                                        total=3)
        checkpoint.mark_completed("aaa")
        checkpoint.mark_failed("bbb", {"key": "bbb", "status": "failed",
                                       "attempts": 3, "error": "boom"})
        loaded = CampaignCheckpoint.load(path)
        assert loaded.command == {"kind": "sweep", "spec": {"base": {}}}
        assert loaded.total == 3
        assert loaded.completed == ["aaa"]
        assert loaded.failed["bbb"]["error"] == "boom"

    def test_mark_completed_is_idempotent_and_clears_failed(self,
                                                            tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "ck.json",
                                        {"kind": "sweep"})
        checkpoint.mark_failed("k", {"status": "failed"})
        checkpoint.mark_completed("k")  # a later retry succeeded
        checkpoint.mark_completed("k")
        assert checkpoint.completed == ["k"]
        assert checkpoint.failed == {}

    def test_completed_key_cannot_regress_to_failed(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "ck.json",
                                        {"kind": "sweep"})
        checkpoint.mark_completed("k")
        checkpoint.mark_failed("k", {"status": "failed"})
        assert checkpoint.failed == {}

    def test_schema_is_versioned(self, tmp_path):
        path = tmp_path / "ck.json"
        CampaignCheckpoint(path, {"kind": "sweep"}).save()
        assert json.loads(path.read_text())["schema"] == CHECKPOINT_SCHEMA

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"schema": "not-a-checkpoint/9"}))
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.load(path)

    def test_load_rejects_garbage_and_missing(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ torn wri")
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.load(bad)
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.load(tmp_path / "absent.json")

    def test_load_rejects_commandless_checkpoint(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"schema": CHECKPOINT_SCHEMA,
                                    "completed": []}))
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.load(path)

    def test_save_leaves_no_tmp_debris(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "ck.json",
                                        {"kind": "sweep"})
        for index in range(5):
            checkpoint.mark_completed(f"key{index}")
        assert list(tmp_path.glob("*.tmp.*")) == []


class TestRunnerIntegration:
    def _scenarios(self, count=3):
        base = Scenario(mode="sriov", vm_count=1, warmup=0.05,
                        duration=0.05)
        return [base.with_(seed=40 + index) for index in range(count)]

    def test_checkpoint_tracks_a_campaign(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        checkpoint = CampaignCheckpoint(tmp_path / "ck.json",
                                        {"kind": "sweep"})
        outcomes, stats = run_sweep(self._scenarios(), cache=cache,
                                    checkpoint=checkpoint)
        assert checkpoint.total == 3
        assert sorted(checkpoint.completed) == sorted(
            outcome.key for outcome in outcomes)
        assert checkpoint.failed == {}

    def test_interrupted_campaign_resumes_with_zero_recomputation(
            self, tmp_path):
        # "Interrupt" by running a prefix of the campaign, as a kill
        # after two completions would leave things: cache + checkpoint
        # agree on what's done.
        cache_dir = tmp_path / "cache"
        scenarios = self._scenarios()
        checkpoint = CampaignCheckpoint(tmp_path / "ck.json",
                                        {"kind": "sweep"})
        run_sweep(scenarios[:2], cache=ResultCache(cache_dir),
                  checkpoint=checkpoint)
        resumed = CampaignCheckpoint.load(tmp_path / "ck.json")
        outcomes, stats = run_sweep(scenarios,
                                    cache=ResultCache(cache_dir),
                                    checkpoint=resumed)
        assert stats.hits == 2 and stats.executed == 1
        assert len(resumed.completed) == 3
        # Byte-identity: the resumed campaign's results match a fresh
        # uninterrupted run in a clean cache.
        fresh, _ = run_sweep(scenarios,
                             cache=ResultCache(tmp_path / "cache2"))
        assert ([outcome.result.to_dict() for outcome in outcomes]
                == [outcome.result.to_dict() for outcome in fresh])


REPO = Path(__file__).resolve().parents[2]


def _figures_cmd(out_dir, cache_dir, extra, select=True):
    cmd = [sys.executable, "-m", "repro", "figures", "--jobs", "2",
           "--out-dir", str(out_dir), "--cache-dir", str(cache_dir)]
    if select:  # --resume carries the selection; fresh runs name it
        cmd += ["--only", "fig06", "--quick"]
    return cmd + extra


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _stat_fields(pid):
    """The /proc stat fields after the command name, or None if gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name in field 2 may hold spaces: split after it.
    return stat.rsplit(")", 1)[1].split()


def _children(pid):
    """Pids whose parent is ``pid``."""
    kids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat_fields(entry.name)
            if fields is not None and int(fields[1]) == pid:
                kids.append(int(entry.name))
    return kids


def _alive(pid):
    """Running, not merely a zombie awaiting its reaper."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


@pytest.mark.slow
def test_sigterm_then_resume_is_byte_identical(tmp_path):
    """Kill a figure campaign mid-flight; resume must finish it with
    the completed cells cached and the artifact byte-identical to an
    uninterrupted run."""
    ck = tmp_path / "ck.json"
    out_a = tmp_path / "out-interrupted"
    cache_a = tmp_path / "cache-a"
    # DEVNULL, not PIPE: should pool workers ever outlive the parent
    # again, a pipe they inherited would stay open and wedge a reader
    # instead of failing the worker check below.
    process = subprocess.Popen(
        _figures_cmd(out_a, cache_a, ["--checkpoint", str(ck)]),
        cwd=REPO, env=_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    # SIGTERM once the campaign is mid-flight: some tasks done, not all.
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline and process.poll() is None:
        if ck.exists():
            try:
                done = len(json.loads(ck.read_text())["completed"])
            except (ValueError, KeyError):
                done = 0
            if done >= 1:
                break
        time.sleep(0.05)
    workers = []
    if process.poll() is None:
        workers = _children(process.pid)
        process.send_signal(signal.SIGTERM)
    process.wait(timeout=60)
    # The campaign's pool workers die with it, not linger reparented.
    deadline = time.monotonic() + 5
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in workers if _alive(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"pool workers outlived SIGTERM: {survivors}"

    completed_before = len(json.loads(ck.read_text())["completed"])
    resume = subprocess.run(
        _figures_cmd(out_a, cache_a, ["--resume", str(ck)], select=False),
        cwd=REPO, env=_env(), capture_output=True, text=True, timeout=300)
    assert resume.returncode == 0, resume.stdout + resume.stderr
    # Zero recomputation: every cell completed before the kill is a
    # cache hit on resume.
    summary = [line for line in resume.stdout.splitlines()
               if line.startswith("cache summary:")][0]
    hits = int(summary.split("hits=")[1].split()[0])
    assert hits >= completed_before

    # The reference: one uninterrupted run, separate cache.
    out_b = tmp_path / "out-clean"
    clean = subprocess.run(
        _figures_cmd(out_b, tmp_path / "cache-b", []),
        cwd=REPO, env=_env(), capture_output=True, text=True, timeout=300)
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert ((out_a / "fig06.json").read_bytes()
            == (out_b / "fig06.json").read_bytes())
