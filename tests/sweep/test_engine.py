"""The engine's determinism and caching contracts, end to end.

Small real simulations (fractions of a second of simulated time) so the
guarantees are checked against the actual pool/cache plumbing, not
mocks.
"""

import json

import pytest

from repro.api import Scenario
from repro.sweep import ResultCache, SweepStats, run_sweep
from repro.sweep import jobs as jobs_module
from repro.sweep.figures import generate_figures

QUICK = dict(warmup=0.2, duration=0.1)


def _scenarios():
    base = Scenario(mode="sriov", vm_count=1, ports=1,
                    policy={"kind": "fixed_itr", "hz": 2000}, **QUICK)
    return [base, base.with_(vm_count=2), base.with_(seed=7)]


def _dumps(outcomes):
    return json.dumps([o.result.to_dict() for o in outcomes],
                      sort_keys=True)


class TestDeterminism:
    def test_parallel_equals_serial_byte_for_byte(self):
        serial, _ = run_sweep(_scenarios(), jobs=1)
        parallel, _ = run_sweep(_scenarios(), jobs=4)
        assert _dumps(serial) == _dumps(parallel)

    def test_warm_cache_equals_cold_byte_for_byte(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold, cold_stats = run_sweep(_scenarios(), cache=cache)
        warm, warm_stats = run_sweep(_scenarios(), cache=cache)
        assert _dumps(cold) == _dumps(warm)
        assert cold_stats.hits == 0 and cold_stats.executed == 3
        assert warm_stats.hits == 3 and warm_stats.executed == 0

    def test_outcomes_keep_input_order(self):
        outcomes, _ = run_sweep(_scenarios(), jobs=4)
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.scenario for o in outcomes] == _scenarios()


class TestCacheSemantics:
    def test_duplicate_scenarios_execute_once(self, tmp_path):
        base = _scenarios()[0]
        outcomes, stats = run_sweep([base, base, base],
                                    cache=ResultCache(tmp_path))
        assert stats.total == 3 and stats.executed == 1
        assert len({_dumps([o]) for o in outcomes}) == 1

    def test_seed_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = _scenarios()[0]
        run_sweep([base], cache=cache)
        _, stats = run_sweep([base.with_(seed=99)], cache=cache)
        assert stats.hits == 0 and stats.executed == 1

    def test_corrupt_entry_resimulated(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = _scenarios()[0]
        outcomes, _ = run_sweep([base], cache=cache)
        cache.path_for(outcomes[0].key).write_text('{"broken": true}')
        redone, stats = run_sweep([base], cache=cache)
        assert stats.executed == 1
        assert _dumps(outcomes) == _dumps(redone)

    def test_metrics_dir_writes_one_file_per_executed_job(self, tmp_path):
        metrics = tmp_path / "metrics"
        outcomes, _ = run_sweep(_scenarios(), cache=ResultCache(tmp_path),
                                metrics_dir=str(metrics))
        files = sorted(p.name for p in metrics.glob("*.metrics.json"))
        assert files == sorted(f"{o.key}.metrics.json" for o in outcomes)
        # Warm rerun executes nothing, so no new metrics appear.
        for path in metrics.glob("*.metrics.json"):
            path.unlink()
        run_sweep(_scenarios(), cache=ResultCache(tmp_path),
                  metrics_dir=str(metrics))
        assert list(metrics.glob("*.metrics.json")) == []

    def test_jobs_zero_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(_scenarios(), jobs=0)


class TestSummaryLines:
    """Every campaign ends with these two lines, and CI greps both, so
    their fields and order are pinned byte for byte."""

    STATS = SweepStats(total=5, hits=1, misses=4, executed=4, ok=1,
                       retried=1, timed_out=1, failed=1, respawns=4,
                       corrupt=1, wall_s=12.345, peak_workers=2)

    def test_cache_summary_line_format(self):
        assert self.STATS.summary() == (
            "cache summary: hits=1 misses=4 executed=4 total=5 "
            "hit_rate=20.0%")

    def test_task_summary_line_format(self):
        assert self.STATS.task_summary() == (
            "task summary: ok=1 retried=1 timed_out=1 failed=1 "
            "respawns=4 corrupt=1 wall_s=12.35 peak_workers=2")

    def test_stats_count_each_task_outcome_once(self, tmp_path,
                                                monkeypatch):
        def fails_seed_7(payload):
            if payload["scenario"]["seed"] == 7:
                raise ValueError("seeded failure")
            return jobs_module.execute_payload(payload)

        monkeypatch.setattr("repro.sweep.runner.execute_payload",
                            fails_seed_7)
        cache = ResultCache(tmp_path)
        run_sweep(_scenarios()[:1], cache=cache)
        outcomes, stats = run_sweep(_scenarios(), cache=cache)
        assert [o.task.status if o.task else "hit" for o in outcomes] \
            == ["hit", "ok", "failed"]
        assert (stats.hits, stats.executed, stats.ok, stats.retried,
                stats.timed_out, stats.failed, stats.respawns,
                stats.peak_workers) == (1, 2, 1, 0, 0, 1, 0, 1)
        assert stats.failures == 1


class TestFigureArtifacts:
    def test_jobs_do_not_change_artifact_bytes(self, tmp_path):
        serial_dir, pool_dir = tmp_path / "serial", tmp_path / "pool"
        generate_figures(["fig15"], quick=True, jobs=1,
                         out_dir=str(serial_dir))
        generate_figures(["fig15"], quick=True, jobs=4,
                         out_dir=str(pool_dir))
        serial = (serial_dir / "fig15.json").read_bytes()
        pool = (pool_dir / "fig15.json").read_bytes()
        assert serial == pool

    def test_artifact_shape(self, tmp_path):
        artifacts, _ = generate_figures(["fig15"], quick=True,
                                        out_dir=str(tmp_path))
        artifact = json.loads((tmp_path / "fig15.json").read_text())
        assert artifact == json.loads(
            json.dumps(artifacts["fig15"], sort_keys=True))
        assert artifact["schema"] == "repro-figure/1"
        assert artifact["figure"] == "fig15"
        assert artifact["quick"] is True
        assert artifact["columns"][0] == "VMs"
        assert len(artifact["rows"]) == len(artifact["results"]) == 2
