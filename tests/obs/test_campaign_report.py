"""Unit tests for journal loading, replay and HTML report rendering."""

import json

import pytest

from repro.obs.campaign.report import (JournalError, aggregate_metrics,
                                       load_journal, regression_rows,
                                       render_report, replay, write_report)
from repro.obs.campaign.snapshot import JOURNAL_SCHEMA, SNAPSHOT_SCHEMA


def journal_records(throughput_gbps=9.0, wall0=100.0, closed=True):
    """A minimal but complete synthetic campaign journal."""
    records = [
        {"schema": JOURNAL_SCHEMA, "kind": "campaign_start", "total": 2,
         "workers": 2, "resumed": False, "wall": wall0, "seq": 1},
        {"kind": "cache_hit", "key": "warm", "wall": wall0 + 0.1,
         "seq": 2},
        {"kind": "task_running", "key": "cell", "attempt": 1,
         "wall": wall0 + 1.0, "seq": 3},
        {"schema": SNAPSHOT_SCHEMA, "kind": "task_start", "key": "cell",
         "scenario": {"vm_count": 1}, "wall": wall0 + 1.1, "seq": 4},
        {"schema": SNAPSHOT_SCHEMA, "kind": "progress", "key": "cell",
         "sim_now": 0.2, "events_per_sec": 1000.0,
         "wall": wall0 + 1.5, "seq": 5},
        {"schema": SNAPSHOT_SCHEMA, "kind": "progress", "key": "cell",
         "sim_now": 0.4, "events_per_sec": 3000.0,
         "wall": wall0 + 2.0, "seq": 6},
        {"schema": SNAPSHOT_SCHEMA, "kind": "task_end", "key": "cell",
         "sim_now": 0.5,
         "result": {"throughput_bps": throughput_gbps * 1e9,
                    "cpu_percent": 42.0, "loss_rate": 0.01},
         "metrics": {"net.rx": {"value": 100.0},
                     "faults.drop": {"value": 1.0}},
         "wall": wall0 + 2.4, "seq": 7},
        {"kind": "task_terminal", "key": "cell", "status": "ok",
         "attempts": 1, "wall": wall0 + 2.5, "seq": 8},
    ]
    if closed:
        records.append({"kind": "campaign_end",
                        "stats": {"total": 2, "ok": 2, "wall_s": 2.5,
                                  "peak_workers": 2},
                        "wall": wall0 + 2.6, "seq": 9})
    return records


def write_journal(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class TestLoadJournal:
    def test_roundtrip(self, tmp_path):
        path = write_journal(tmp_path / "c.jsonl", journal_records())
        records = load_journal(path)
        assert len(records) == 9
        assert records[0]["kind"] == "campaign_start"

    def test_strict_raises_with_line_number(self, tmp_path):
        records = journal_records()
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(records[0]) + "\n" + "not json\n")
        with pytest.raises(JournalError, match="c.jsonl:2"):
            load_journal(path)

    def test_tolerant_skips_torn_tail(self, tmp_path):
        records = journal_records(closed=False)
        path = write_journal(tmp_path / "c.jsonl", records)
        with open(path, "a") as handle:
            handle.write('{"kind": "campaign_e')  # killed mid-write
        loaded = load_journal(path, strict=False)
        assert len(loaded) == len(records)

    def test_rejects_foreign_file_even_tolerantly(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(JournalError):
            load_journal(path, strict=False)

    def test_rejects_empty_and_missing(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(JournalError, match="no records"):
            load_journal(empty)
        with pytest.raises(JournalError, match="cannot read"):
            load_journal(tmp_path / "absent.jsonl")

    def test_rejects_journal_not_opening_with_campaign_start(
            self, tmp_path):
        records = journal_records()[1:]  # decapitated
        path = write_journal(tmp_path / "c.jsonl", records)
        with pytest.raises(JournalError, match="campaign_start"):
            load_journal(path)


    def test_non_utf8_file_is_a_journal_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\xff\xfe{}\n\x00")
        with pytest.raises(JournalError, match="c.jsonl:1: .*utf-8"):
            load_journal(path)
        with pytest.raises(JournalError, match="no records"):
            load_journal(path, strict=False)

    def test_non_utf8_line_is_skipped_tolerantly(self, tmp_path):
        path = write_journal(tmp_path / "c.jsonl", journal_records())
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "campaign_end\xff\n')
        with pytest.raises(JournalError, match="c.jsonl:10:"):
            load_journal(path)
        assert len(load_journal(path, strict=False)) == 9

    def test_report_check_exits_1_on_non_utf8_file(self, tmp_path, capsys):
        from repro.cli import run_cli
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\xff\xfe\x00\x01")
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["report", str(path), "--check"])
        assert exit_info.value.code != 0
        assert "c.jsonl:1:" in str(exit_info.value.code)


class TestReplay:
    def test_full_cell_lifecycle(self):
        cells = replay(journal_records())
        assert set(cells) == {"warm", "cell"}
        warm = cells["warm"]
        assert warm.status == "ok" and warm.cached
        cell = cells["cell"]
        assert cell.status == "ok"
        assert not cell.cached
        assert cell.attempts == 1
        assert cell.runtime == pytest.approx(1.5)  # 101.0 -> 102.5
        assert cell.sim_now == 0.5
        assert cell.throughput_bps == 9e9
        assert cell.timeline == [(101.5, 1000.0), (102.0, 3000.0)]

    def test_unclosed_journal_still_replays(self):
        records = journal_records(closed=False)[:-1]  # no terminal either
        cells = replay(records)
        assert cells["cell"].status == "running"
        assert cells["cell"].ended_wall is None
        assert cells["cell"].runtime is None

    def test_failed_cell_keeps_error(self):
        records = journal_records()[:3] + [
            {"kind": "task_terminal", "key": "cell", "status": "failed",
             "attempts": 3, "error": "boom", "wall": 105.0, "seq": 4}]
        cell = replay(records)["cell"]
        assert cell.status == "failed"
        assert cell.attempts == 3
        assert cell.error == "boom"

    def test_aggregate_metrics_summarises_across_cells(self):
        cells = replay(journal_records())
        summary = aggregate_metrics(cells)
        assert summary["net.rx"]["count"] == 1
        assert summary["net.rx"]["mean"] == 100.0
        assert set(summary) == {"net.rx", "faults.drop"}


class TestRegressionRows:
    def test_deltas_sorted_worst_drop_first(self):
        now = replay(journal_records(throughput_gbps=8.0))
        base = replay(journal_records(throughput_gbps=10.0))
        rows = regression_rows(now, base)
        [row] = rows  # "warm" has no result payload: excluded
        key, base_gbps, now_gbps, delta_bps, delta_rt = row
        assert key == "cell"
        assert base_gbps == pytest.approx(10.0)
        assert now_gbps == pytest.approx(8.0)
        assert delta_bps == pytest.approx(-20.0)
        assert delta_rt == pytest.approx(0.0)  # identical walls

    def test_disjoint_journals_produce_no_rows(self):
        now = replay(journal_records())
        assert regression_rows(now, {}) == []


class TestRenderReport:
    def test_report_is_self_contained_html(self):
        doc = render_report(journal_records())
        assert doc.startswith("<!doctype html>")
        assert "<style>" in doc and "<script>" in doc
        assert "http://" not in doc and "https://" not in doc  # no CDN
        assert "<svg" in doc  # the per-cell timeline sparkline
        assert 'class="badge ok">ok</span>' in doc
        assert "(cached)" in doc        # the warm cell row
        assert "net.rx" in doc          # aggregate metric table
        assert "peak_workers=2" in doc  # closing stats line

    def test_unclosed_campaign_is_flagged(self):
        doc = render_report(journal_records(closed=False))
        assert "campaign did not close" in doc

    def test_baseline_section(self):
        doc = render_report(journal_records(throughput_gbps=8.0),
                            journal_records(throughput_gbps=10.0))
        assert "deltas vs baseline" in doc
        assert "-20.00" in doc
        assert "class=bad" in doc  # >1% throughput drop is highlighted

    def test_error_text_is_escaped(self):
        records = journal_records()[:3] + [
            {"kind": "task_terminal", "key": "cell", "status": "failed",
             "attempts": 1, "error": "<script>alert(1)</script>",
             "wall": 105.0, "seq": 4}]
        doc = render_report(records)
        assert "<script>alert(1)</script>" not in doc
        assert "&lt;script&gt;" in doc


class TestWriteReport:
    def test_default_output_path(self, tmp_path):
        journal = write_journal(tmp_path / "campaign.jsonl",
                                journal_records())
        out = write_report(journal)
        assert out == tmp_path / "campaign.html"
        assert out.read_text().startswith("<!doctype html>")

    def test_explicit_out_and_baseline(self, tmp_path):
        journal = write_journal(tmp_path / "now.jsonl",
                                journal_records(throughput_gbps=8.0))
        base = write_journal(tmp_path / "base.jsonl",
                             journal_records(throughput_gbps=10.0))
        out = write_report(journal, tmp_path / "r.html", base)
        assert "deltas vs baseline" in out.read_text()
