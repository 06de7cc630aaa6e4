"""Unit tests for the parent-side TelemetryHub and the Dashboard."""

import io
import json
from pathlib import Path

from repro.obs.campaign.dashboard import (Dashboard, format_eta,
                                          format_rate, sparkline)
from repro.obs.campaign.hub import TelemetryHub
from repro.obs.campaign.report import aggregate_metrics, load_journal, replay
from repro.obs.campaign.snapshot import JOURNAL_SCHEMA, SNAPSHOT_SCHEMA
from repro.sweep.supervise import TaskOutcome


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, seconds=1.0):
        self.now += seconds
        return self.now


class SteppingClock(FakeClock):
    """Advances on every call, so no two stamps are equal."""

    def __call__(self):
        return self.tick(0.25)


def read_journal(path):
    return [json.loads(line)
            for line in Path(path).read_text().splitlines()]


def spool_write(spool_dir, key, records, pid=111):
    """Append worker-style records to a spool file, like an emitter."""
    path = Path(spool_dir) / f"{key}.{pid}.jsonl"
    with open(path, "a") as handle:
        for record in records:
            handle.write(json.dumps(
                {"schema": SNAPSHOT_SCHEMA, "key": key, **record}) + "\n")
    return path


class TestJournal:
    def test_records_are_stamped_and_ordered(self, tmp_path):
        clock = FakeClock()
        hub = TelemetryHub(tmp_path / "campaign.jsonl", clock=clock)
        hub.campaign_start(total=2, workers=2)
        clock.tick()
        hub.task_running("a", 1)
        hub.task_terminal(TaskOutcome(key="a", status="ok", attempts=1))
        hub.finalize()
        records = read_journal(tmp_path / "campaign.jsonl")
        assert [r["kind"] for r in records] == [
            "campaign_start", "task_running", "task_terminal",
            "campaign_end"]
        assert [r["seq"] for r in records] == [1, 2, 3, 4]
        assert records[0]["schema"] == JOURNAL_SCHEMA
        assert records[1]["wall"] == 101.0

    def test_failed_terminal_keeps_error(self, tmp_path):
        hub = TelemetryHub(tmp_path / "c.jsonl")
        hub.campaign_start(total=1)
        hub.task_terminal(TaskOutcome(key="a", status="failed",
                                      attempts=3, error="boom"))
        hub.finalize()
        terminal = read_journal(tmp_path / "c.jsonl")[1]
        assert terminal["status"] == "failed"
        assert terminal["error"] == "boom"

    def test_finalize_journals_stats_fields(self, tmp_path):
        class Stats:
            total, hits, ok, failed = 4, 1, 3, 1
            wall_s, peak_workers = 9.5, 2

        hub = TelemetryHub(tmp_path / "c.jsonl")
        hub.campaign_start(total=4)
        hub.finalize(Stats())
        end = read_journal(tmp_path / "c.jsonl")[-1]
        assert end["kind"] == "campaign_end"
        assert end["stats"] == {"total": 4, "hits": 1, "ok": 3,
                                "failed": 1, "wall_s": 9.5,
                                "peak_workers": 2}

    def test_journalless_hub_still_aggregates(self):
        hub = TelemetryHub()  # dashboard-only, no journal, no spool
        hub.campaign_start(total=1)
        hub.task_running("a", 1)
        hub.task_terminal(TaskOutcome(key="a", status="ok", attempts=1))
        assert hub.status_counts()["ok"] == 1
        hub.finalize()
        assert hub.journal_errors == 0

    def test_unwritable_journal_counts_not_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        hub = TelemetryHub(blocker / "campaign.jsonl")
        assert hub.journal_errors == 1
        hub.campaign_start(total=1)  # still must not raise
        hub.finalize()


class TestResume:
    def test_settled_keys_are_not_rejournaled(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        first = TelemetryHub(journal)
        first.campaign_start(total=2)
        first.task_running("a", 1)
        first.task_terminal(TaskOutcome(key="a", status="ok", attempts=1))
        first.finalize()
        before = read_journal(journal)

        second = TelemetryHub(journal)
        assert second._settled == {"a"}
        second.campaign_start(total=2)
        second.cache_hit("a")       # settled: no new record
        second.task_running("b", 1)
        second.task_terminal(TaskOutcome(key="b", status="ok", attempts=1))
        second.finalize()

        after = read_journal(journal)
        assert after[:len(before)] == before  # append-only
        new_kinds = [r["kind"] for r in after[len(before):]]
        assert new_kinds == ["campaign_start", "task_running",
                             "task_terminal", "campaign_end"]
        # Exactly one successful terminal record per key, ever.
        terminal_keys = [r["key"] for r in after
                         if r["kind"] in ("task_terminal", "cache_hit")]
        assert sorted(terminal_keys) == ["a", "b"]
        # The resumed campaign_start flags itself.
        assert after[len(before)]["resumed"] is True

    def test_failed_cells_are_not_settled(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        first = TelemetryHub(journal)
        first.campaign_start(total=1)
        first.task_terminal(TaskOutcome(key="a", status="failed",
                                        attempts=2, error="x"))
        first.finalize()
        second = TelemetryHub(journal)
        assert second._settled == set()  # failure deserves a retry record

    def test_torn_tail_is_ignored_on_load(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        hub = TelemetryHub(journal)
        hub.campaign_start(total=1)
        hub.task_terminal(TaskOutcome(key="a", status="ok", attempts=1))
        hub.finalize()
        with open(journal, "a") as handle:
            handle.write('{"kind": "task_term')  # SIGKILL mid-write
        resumed = TelemetryHub(journal)
        assert resumed._settled == {"a"}

    def test_foreign_json_lines_are_skipped_on_load(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        journal.write_text('5\n["a"]\n{"kind": "cache_hit", "key": "a", '
                           '"seq": 7}\n')
        hub = TelemetryHub(journal)
        assert hub._settled == {"a"} and hub._seq == 7

    def test_resume_cuts_a_torn_tail_and_continues_seq(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        first = TelemetryHub(journal)
        first.campaign_start(total=2)
        first.task_running("a", 1)
        first.task_terminal(TaskOutcome(key="a", status="ok", attempts=1))
        first.finalize()
        with open(journal, "a") as handle:
            handle.write('{"kind": "task_runn')  # SIGKILL mid-write

        second = TelemetryHub(journal)
        second.campaign_start(total=2)
        second.cache_hit("a")       # settled: no new record
        second.task_running("b", 1)
        second.task_terminal(TaskOutcome(key="b", status="ok", attempts=1))
        second.finalize()

        records = load_journal(journal, strict=True)
        assert [r["kind"] for r in records].count("campaign_start") == 2
        assert [r["seq"] for r in records] == list(range(1, 9))
        assert second.journal_errors == 0

    def test_failed_cut_is_a_journal_error_not_a_lost_resume(
            self, tmp_path, monkeypatch):
        from repro.obs.campaign import hub as hub_module
        journal = tmp_path / "campaign.jsonl"
        first = TelemetryHub(journal)
        first.campaign_start(total=1)
        first.task_terminal(TaskOutcome(key="a", status="ok", attempts=1))
        first.finalize()
        with open(journal, "a") as handle:
            handle.write('{"kind": "task_term')

        def no_truncate(path, length):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(hub_module.os, "truncate", no_truncate)
        resumed = TelemetryHub(journal)
        assert resumed.journal_errors == 1
        assert resumed._settled == {"a"}
        assert resumed._seq == 3


class TestSpoolIngestion:
    def test_poll_ingests_and_journals_worker_records(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        hub = TelemetryHub(journal)
        hub.campaign_start(total=1)
        hub.spool_dir.mkdir(parents=True, exist_ok=True)
        spool_write(hub.spool_dir, "a", [
            {"kind": "task_start", "scenario": {"vm_count": 1}},
            {"kind": "progress", "sim_now": 0.5, "events_executed": 100,
             "events_per_sec": 2000.0},
        ])
        assert hub.poll() == 2
        assert hub.cells["a"].events_per_sec == 2000.0
        assert hub.cells["a"].sim_now == 0.5
        kinds = [r["kind"] for r in read_journal(journal)]
        assert kinds == ["campaign_start", "task_start", "progress"]

    def test_tail_is_incremental_and_torn_line_safe(self, tmp_path):
        hub = TelemetryHub(tmp_path / "c.jsonl")
        hub.spool_dir.mkdir(parents=True)
        path = spool_write(hub.spool_dir, "a",
                           [{"kind": "task_start", "scenario": {}}])
        with open(path, "a") as handle:
            handle.write('{"kind": "progre')  # incomplete line
        assert hub.poll() == 1
        with open(path, "a") as handle:
            handle.write('ss", "schema": "%s", "key": "a",'
                         ' "events_per_sec": 7.0}\n' % SNAPSHOT_SCHEMA)
        assert hub.poll() == 1  # the completed line, exactly once
        assert hub.poll() == 0  # nothing re-read
        assert hub.cells["a"].events_per_sec == 7.0

    def test_task_end_folds_metrics_and_faults(self, tmp_path):
        hub = TelemetryHub(tmp_path / "c.jsonl")
        hub.spool_dir.mkdir(parents=True)
        for key, gbps in (("a", 9.0), ("b", 5.0)):
            spool_write(hub.spool_dir, key, [{
                "kind": "task_end",
                "result": {"throughput_bps": gbps * 1e9},
                "metrics": {
                    "net.throughput": {"value": gbps * 1e9},
                    "faults.drop": {"value": 2.0},
                    "notes": {"value": "text, skipped"},
                },
            }])
        hub.poll()
        summary = hub.aggregate_metrics()["net.throughput"]
        assert summary["count"] == 2
        assert summary["min"] == 5e9
        assert summary["max"] == 9e9
        assert summary["p50"] == 7e9
        assert "notes" not in hub.aggregate_metrics()
        assert hub.fault_counts == {"faults.drop": 4.0}

    def test_quarantine_and_cache_hit_states(self, tmp_path):
        hub = TelemetryHub(tmp_path / "c.jsonl")
        hub.campaign_start(total=3)
        hub.cache_quarantined("bad")
        hub.cache_hit("warm")
        counts = hub.status_counts()
        assert counts["quarantined"] == 1
        assert counts["ok"] == 1
        assert counts["pending"] == 1
        assert hub.cache_hits() == 1

    def test_finalize_sweeps_spool(self, tmp_path):
        hub = TelemetryHub(tmp_path / "c.jsonl")
        hub.spool_dir.mkdir(parents=True)
        spool_write(hub.spool_dir, "a",
                    [{"kind": "task_start", "scenario": {}}])
        hub.campaign_start(total=1)
        hub.finalize()
        assert not hub.spool_dir.exists()


class TestLiveViewIsTheJournal:
    def test_replayed_journal_equals_the_live_cells(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        hub = TelemetryHub(journal, clock=SteppingClock())
        hub.campaign_start(total=4, workers=2)
        hub.cache_hit("hit")
        hub.cache_quarantined("requeued")
        hub.task_running("requeued", 1)
        hub.spool_dir.mkdir(parents=True)
        spool_write(hub.spool_dir, "requeued", [
            {"kind": "task_start", "scenario": {"vm_count": 1}},
            {"kind": "progress", "sim_now": 0.2, "events_executed": 100,
             "events_per_sec": 1000.0},
            {"kind": "progress", "sim_now": 0.4, "events_executed": 300,
             "events_per_sec": 3000.0},
            {"kind": "task_end", "sim_now": 0.5,
             "result": {"throughput_bps": 9e9},
             "metrics": {"faults.drop": {"value": 2.0},
                         "net.latency": {"type": "histogram", "count": 3,
                                         "mean": 1.5e-5}}},
        ])
        hub.poll()
        hub.task_terminal(TaskOutcome(key="requeued", status="ok",
                                      attempts=1))
        hub.task_running("flaky", 1)
        hub.task_running("flaky", 2)
        hub.task_terminal(TaskOutcome(key="flaky", status="retried",
                                      attempts=2))
        hub.task_running("broken", 1)
        hub.task_terminal(TaskOutcome(key="broken", status="failed",
                                      attempts=3, error="boom"))
        hub.finalize()

        cells = replay(load_journal(journal, strict=True))
        # Key order and every field (status, cached, attempts, error,
        # start and end walls, sim_now, result, metrics, timeline).
        assert list(cells.items()) == list(hub.cells.items())
        assert aggregate_metrics(cells) == hub.aggregate_metrics()
        assert set(hub.aggregate_metrics()) == {"faults.drop",
                                                "net.latency"}
        assert hub.fault_counts == {"faults.drop": 2.0}

        # The live cells are the scripted campaign, not an empty match.
        assert list(hub.cells) == ["hit", "requeued", "flaky", "broken"]
        assert [cell.status for cell in hub.cells.values()] == [
            "ok", "ok", "retried", "failed"]
        assert hub.cells["hit"].cached
        requeued = hub.cells["requeued"]
        assert requeued.sim_now == 0.5
        assert requeued.events_per_sec == 3000.0
        assert [rate for _, rate in requeued.timeline] == [1000.0, 3000.0]
        assert requeued.runtime > 0
        assert hub.cells["flaky"].attempts == 2
        assert hub.cells["broken"].error == "boom"


class TestAggregates:
    def test_eta_from_completed_runtimes(self, tmp_path):
        clock = FakeClock()
        hub = TelemetryHub(tmp_path / "c.jsonl", clock=clock)
        hub.campaign_start(total=4, workers=2)
        hub.task_running("a", 1)
        clock.tick(10.0)
        hub.task_terminal(TaskOutcome(key="a", status="ok", attempts=1))
        # 3 remaining * 10s mean / 2 workers = 15s.
        assert hub.eta_seconds() == 15.0
        assert hub.completed_runtimes() == [("a", 10.0)]

    def test_cached_cells_do_not_skew_eta(self, tmp_path):
        hub = TelemetryHub(tmp_path / "c.jsonl", clock=FakeClock())
        hub.campaign_start(total=2)
        hub.cache_hit("a")  # zero-runtime, must not enter the mean
        assert hub.completed_runtimes() == []
        assert hub.eta_seconds() is None

    def test_throughput_history_sums_running_cells(self, tmp_path):
        hub = TelemetryHub(tmp_path / "c.jsonl")
        hub.spool_dir.mkdir(parents=True)
        hub.task_running("a", 1)
        hub.task_running("b", 1)
        for key, rate in (("a", 100.0), ("b", 50.0)):
            spool_write(hub.spool_dir, key, [
                {"kind": "progress", "events_per_sec": rate}])
        hub.poll()
        assert hub.fleet_events_per_sec() == 150.0


class TestDashboard:
    def _hub(self, tmp_path):
        hub = TelemetryHub(tmp_path / "c.jsonl", clock=FakeClock())
        hub.campaign_start(total=4, workers=2)
        return hub

    def test_non_tty_emits_summary_lines(self, tmp_path):
        stream = io.StringIO()
        clock = FakeClock()
        dash = Dashboard(stream, force_tty=False, line_interval=1.0,
                         clock=clock)
        hub = self._hub(tmp_path)
        hub.dashboard = dash
        clock.tick(2.0)
        hub.task_running("a", 1)
        clock.tick(2.0)
        hub.task_terminal(TaskOutcome(key="a", status="ok", attempts=1))
        hub.finalize()
        lines = [line for line in stream.getvalue().splitlines() if line]
        assert lines
        assert all(line.startswith("campaign: ") for line in lines)
        assert "\x1b[" not in stream.getvalue()  # no ANSI in line mode
        assert lines[-1].startswith("campaign: 1/4 done")

    def test_summary_line_contents(self, tmp_path):
        hub = self._hub(tmp_path)
        hub.task_running("a", 1)
        hub.task_terminal(TaskOutcome(key="b", status="failed",
                                      attempts=1, error="x"))
        hub.cache_hit("c")
        line = Dashboard(io.StringIO(), force_tty=False).summary_line(hub)
        assert line.startswith("campaign: 2/4 done (1 running, 1 failed)")
        assert "1 cached" in line
        assert line.endswith("eta ?")

    def test_renders_are_throttled(self, tmp_path):
        stream = io.StringIO()
        clock = FakeClock()
        dash = Dashboard(stream, force_tty=False, line_interval=10.0,
                         clock=clock)
        hub = self._hub(tmp_path)
        hub.dashboard = dash
        clock.tick(20.0)
        for i in range(50):  # a burst of events inside one interval
            hub.task_running(f"k{i}", 1)
        assert len(stream.getvalue().splitlines()) == 1

    def test_tty_panel_redraws_in_place(self, tmp_path):
        stream = io.StringIO()
        clock = FakeClock()
        dash = Dashboard(stream, force_tty=True, min_interval=0.0,
                         clock=clock)
        hub = self._hub(tmp_path)
        hub.dashboard = dash
        clock.tick()
        hub.task_running("a", 1)
        first_height = dash._lines_drawn
        assert first_height > 0
        clock.tick()
        hub.task_terminal(TaskOutcome(key="a", status="ok", attempts=1))
        output = stream.getvalue()
        assert "campaign dashboard" in output
        assert f"\x1b[{first_height}F" in output  # cursor-up re-home
        assert "\x1b[2K" in output                # erase-line redraw

    def test_sparkline_and_formatting_helpers(self):
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == "▁▁"
        line = sparkline([1.0, 5.0, 10.0])
        assert len(line) == 3
        assert line[-1] == "█"
        assert set(line) <= set("▁▂▃▄▅▆▇█")
        assert format_rate(57_300.0) == "57.3k ev/s"
        assert format_rate(2.5e6) == "2.5M ev/s"
        assert format_rate(12.0) == "12 ev/s"
        assert format_eta(None) == "eta ?"
        assert format_eta(41.0) == "eta 41s"
        assert format_eta(150.0) == "eta 2.5m"
