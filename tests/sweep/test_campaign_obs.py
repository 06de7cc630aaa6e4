"""Campaign observability, end to end through the real engine.

The hard contract under test: the telemetry hub is *observation only*.
Results and cache entries must be byte-identical with the hub enabled
or disabled, and a resumed campaign must append to the same journal
without duplicating or losing task records.
"""

import json
from pathlib import Path

from repro.api import Scenario
from repro.cli import run_cli
from repro.obs.campaign import TelemetryHub
from repro.obs.campaign.report import load_journal, replay, write_report
from repro.sweep import ResultCache, run_sweep

QUICK = dict(warmup=0.2, duration=0.1)


def _scenarios():
    base = Scenario(mode="sriov", vm_count=1, ports=1,
                    policy={"kind": "fixed_itr", "hz": 2000}, **QUICK)
    return [base, base.with_(vm_count=2)]


def _cache_bytes(cache_dir):
    return {path.name: path.read_bytes()
            for path in sorted(Path(cache_dir).rglob("*.json"))}


def _read_journal(path):
    return [json.loads(line)
            for line in Path(path).read_text().splitlines()]


class TestByteIdentity:
    def test_results_cache_and_checkpoint_identical_hub_on_vs_off(
            self, tmp_path, capsys):
        # Through the CLI, which writes the checkpoint; --journal turns
        # the hub on.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"base": _scenarios()[0].to_dict(),
                                    "grid": {"vm_count": [1, 2]}}))
        plain_dir = tmp_path / "plain"
        hubbed_dir = tmp_path / "hubbed"
        journal = hubbed_dir / "campaign.jsonl"
        for root, extra in ((plain_dir, []),
                            (hubbed_dir, ["--journal", str(journal)])):
            root.mkdir()
            assert run_cli(["sweep", str(spec), "--jobs", "2",
                            "--cache-dir", str(root / "cache"),
                            "--checkpoint", str(root / "ckpt.json"),
                            "--out", str(root / "results.json")]
                           + extra) == 0

        for name in ("results.json", "ckpt.json"):
            assert (plain_dir / name).read_bytes() == \
                (hubbed_dir / name).read_bytes()
        assert _cache_bytes(plain_dir / "cache") == \
            _cache_bytes(hubbed_dir / "cache")
        # And the journal is real: it validates and replays both cells.
        records = load_journal(journal)
        cells = replay(records)
        assert len(cells) == 2
        assert all(cell.status == "ok" for cell in cells.values())

    def test_spool_telemetry_does_not_leak_into_cache_keys(
            self, tmp_path):
        # Same scenarios, hub on then hub off, one shared cache: the
        # second run must be 100% hits (same keys, same entries).
        cache = ResultCache(tmp_path / "cache")
        hub = TelemetryHub(tmp_path / "campaign.jsonl")
        _, cold = run_sweep(_scenarios(), cache=cache, hub=hub)
        hub.finalize(cold)
        _, warm = run_sweep(_scenarios(), cache=cache)
        assert cold.executed == 2 and cold.hits == 0
        assert warm.hits == 2 and warm.executed == 0


class TestJournalThroughEngine:
    def test_sweep_writes_a_complete_journal(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        hub = TelemetryHub(journal)
        _, stats = run_sweep(_scenarios(), jobs=2, hub=hub)
        hub.finalize(stats)
        records = _read_journal(journal)
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_end"
        assert kinds.count("task_terminal") == 2
        assert kinds.count("task_end") == 2      # worker spool ingested
        assert records[0]["total"] == 2
        assert records[-1]["stats"]["ok"] == 2
        assert records[-1]["stats"]["peak_workers"] >= 1
        # Sequence numbers are strictly increasing; every record has a
        # host wall stamp (the journal's only clock).
        seqs = [record["seq"] for record in records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert all("wall" in record for record in records)
        # The spool was swept after a clean finalize.
        assert not hub.spool_dir.exists()

    def test_worker_task_end_carries_result_and_metrics(self, tmp_path):
        hub = TelemetryHub(tmp_path / "campaign.jsonl")
        _, stats = run_sweep(_scenarios()[:1], hub=hub)
        hub.finalize(stats)
        [end] = [record for record in
                 _read_journal(tmp_path / "campaign.jsonl")
                 if record["kind"] == "task_end"]
        assert end["result"]["throughput_bps"] > 0
        assert end["metrics"]  # registry snapshot folded in
        assert end["sim_now"] > 0

    def test_report_renders_from_engine_journal(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        hub = TelemetryHub(journal)
        _, stats = run_sweep(_scenarios(), jobs=2, hub=hub)
        hub.finalize(stats)
        out = write_report(journal)
        doc = out.read_text()
        assert doc.startswith("<!doctype html>")
        assert 'class="badge ok">ok</span>' in doc


class TestResume:
    def test_resumed_campaign_appends_without_duplicates(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        cache = ResultCache(tmp_path / "cache")
        scenarios = _scenarios()

        # First run settles only the first cell (simulating a campaign
        # interrupted after one task).
        first_hub = TelemetryHub(journal)
        _, first_stats = run_sweep(scenarios[:1], cache=cache,
                                   hub=first_hub)
        first_hub.finalize(first_stats)
        before = _read_journal(journal)

        # The resumed run replays the full spec: cell one is a warm
        # cache hit (already settled), cell two executes fresh.
        second_hub = TelemetryHub(journal)
        _, second_stats = run_sweep(scenarios, cache=cache,
                                    hub=second_hub)
        second_hub.finalize(second_stats)

        records = _read_journal(journal)
        assert records[:len(before)] == before  # append-only
        # No duplicates: at most one settle record per key overall.
        settled = [record["key"] for record in records
                   if record["kind"] == "cache_hit"
                   or (record["kind"] == "task_terminal"
                       and record["status"] in ("ok", "retried"))]
        assert len(settled) == len(set(settled)) == 2
        # No losses: replay sees both cells as ok.
        cells = replay(load_journal(journal, strict=False))
        assert sorted(cell.status for cell in cells.values()) == \
            ["ok", "ok"]
        # Both campaign_start records survive; the second is flagged.
        starts = [record for record in records
                  if record["kind"] == "campaign_start"]
        assert [start["resumed"] for start in starts] == [False, True]

    def test_torn_journal_tail_resumes_cleanly(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        cache = ResultCache(tmp_path / "cache")
        hub = TelemetryHub(journal)
        _, stats = run_sweep(_scenarios(), cache=cache, hub=hub)
        hub.finalize(stats)
        with open(journal, "a") as handle:
            handle.write('{"kind": "task_runn')  # SIGKILL mid-write

        resumed = TelemetryHub(journal)
        _, warm = run_sweep(_scenarios(), cache=cache, hub=resumed)
        resumed.finalize(warm)
        assert warm.hits == 2
        # The resumed hub cut the torn fragment off before appending,
        # so the journal loads strictly and keeps both campaign_start
        # records; both cells still settle exactly once.
        records = load_journal(journal, strict=True)
        assert [record["resumed"] for record in records
                if record["kind"] == "campaign_start"] == [False, True]
        settled = [record["key"] for record in records
                   if record["kind"] in ("cache_hit", "task_terminal")]
        assert len(settled) == len(set(settled)) == 2
