"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, parse_fault_spec, parse_policy, run_cli
from repro.drivers import AdaptiveCoalescing, DynamicItr, FixedItr


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sriov_defaults(self):
        args = build_parser().parse_args(["sriov"])
        assert args.vms == 10
        assert args.kind == "hvm"
        assert args.kernel == "2.6.28"
        assert not args.no_opts

    def test_sriov_full_flags(self):
        args = build_parser().parse_args(
            ["sriov", "--vms", "7", "--ports", "1", "--kind", "pvm",
             "--kernel", "2.6.18", "--no-opts", "--itr", "2000"])
        assert args.vms == 7
        assert args.ports == 1
        assert args.no_opts

    def test_bad_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sriov", "--kind", "xen"])

    def test_migrate_modes(self):
        args = build_parser().parse_args(["migrate", "--mode", "pv"])
        assert args.mode == "pv"


class TestPolicyParsing:
    def test_named_policies(self):
        assert isinstance(parse_policy("aic"), AdaptiveCoalescing)
        assert isinstance(parse_policy("dynamic"), DynamicItr)

    def test_numeric_frequency(self):
        policy = parse_policy("2000")
        assert isinstance(policy, FixedItr)
        assert policy.hz == 2000

    def test_garbage_rejected(self):
        with pytest.raises(SystemExit):
            parse_policy("often")


class TestFaultSpecParsing:
    def test_full_spec(self):
        assert parse_fault_spec("link_flap:at=2.0,duration=0.5,port=1") \
            == {"kind": "link_flap", "at": 2.0, "duration": 0.5,
                "port": 1}

    def test_defaults_filled(self):
        spec = parse_fault_spec("dma_corruption:at=0.5")
        assert spec["count"] == 1 and spec["port"] == 0

    def test_bare_kind_when_nothing_required(self):
        assert parse_fault_spec("migration_degrade")["factor"] == 2.0

    def test_null_value_parses_as_none(self):
        assert parse_fault_spec("mailbox_loss:at=1.0,vf=null")["vf"] is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(SystemExit, match="unknown fault kind"):
            parse_fault_spec("gremlin:at=1.0")

    def test_malformed_pair_rejected(self):
        with pytest.raises(SystemExit, match="key=value"):
            parse_fault_spec("link_flap:at")

    def test_non_numeric_value_is_a_one_line_exit(self):
        # Once a raw ValueError traceback out of float("soon").
        with pytest.raises(SystemExit,
                           match=r"bad --fault .*link_flap\.at"):
            parse_fault_spec("link_flap:at=soon")

    def test_fault_flag_reaches_the_scenario(self):
        from repro.cli import _scenario_for
        args = build_parser().parse_args(
            ["sriov", "--fault", "link_flap:at=2.0"])
        scenario = _scenario_for(args)
        assert scenario.faults == [{"kind": "link_flap", "at": 2.0,
                                    "duration": 0.5, "port": 0}]

    def test_faults_subcommand_prints_vocabulary(self, capsys):
        assert run_cli(["faults"]) == 0
        out = capsys.readouterr().out
        for kind in ("link_flap", "mailbox_loss", "dma_corruption",
                     "interrupt_delay", "migration_degrade"):
            assert kind in out

    def test_faults_check_validates_a_plan(self, tmp_path, capsys):
        import json
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps([{"kind": "link_flap", "at": 1.0}]))
        assert run_cli(["faults", "--check", str(plan)]) == 0
        assert '"duration": 0.5' in capsys.readouterr().out
        plan.write_text(json.dumps([{"kind": "link_flap"}]))
        with pytest.raises(SystemExit, match="requires 'at'"):
            run_cli(["faults", "--check", str(plan)])
        plan.write_text(json.dumps({"kind": "link_flap", "at": 1.0}))
        with pytest.raises(SystemExit, match="list"):
            run_cli(["faults", "--check", str(plan)])


class TestSmokeRuns:
    """Tiny end-to-end CLI invocations (small scale for speed)."""

    def test_sriov_run(self, capsys):
        code = run_cli(["--warmup", "0.2", "--duration", "0.2",
                        "sriov", "--vms", "1", "--ports", "1",
                        "--itr", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "Gbps" in out

    def test_sriov_fluid_run_names_the_faults_gate(self, capsys):
        code = run_cli(["--warmup", "0.05", "--duration", "0.05",
                        "sriov", "--vms", "1", "--ports", "1",
                        "--itr", "2000", "--sim-mode", "fluid",
                        "--fault", "link_flap:at=0.06,duration=0.005"])
        assert code == 0
        err = capsys.readouterr().err
        assert "fluid      : 0 of" in err
        assert "rejected: faults=1" in err

    def test_pv_run(self, capsys):
        code = run_cli(["--warmup", "0.2", "--duration", "0.2",
                        "pv", "--vms", "1", "--ports", "1"])
        assert code == 0
        assert "dom0" in capsys.readouterr().out

    def test_vmdq_run(self, capsys):
        code = run_cli(["--warmup", "0.2", "--duration", "0.2",
                        "vmdq", "--vms", "2"])
        assert code == 0

    def test_intervm_run(self, capsys):
        code = run_cli(["--warmup", "0.3", "--duration", "0.2",
                        "intervm", "--mode", "pv"])
        assert code == 0

    def test_migration_run(self, capsys):
        code = run_cli(["migrate", "--mode", "dnis", "--start-at", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "migration events" in out
        assert "downtime" in out

    def test_cluster_run(self, tmp_path, capsys):
        import json
        metrics = tmp_path / "metrics.json"
        code = run_cli(["--warmup", "0.05", "--duration", "0.05",
                        "cluster", "--hosts", "2", "--vms-per-host", "1",
                        "--metrics-json", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-host" in out
        assert "h0" in out and "h1" in out
        doc = json.loads(metrics.read_text())
        assert any(name.startswith("host.h1.")
                   for name in doc["metrics"])

    @pytest.mark.parametrize("flag", ["--metrics-json", "--trace-out"])
    def test_sriov_unwritable_export_exits_naming_the_path(
            self, tmp_path, capsys, flag):
        path = str(tmp_path / "missing" / "out.json")
        with pytest.raises(SystemExit) as exc:
            run_cli(["--warmup", "0.01", "--duration", "0.01", "sriov",
                     "--vms", "1", "--ports", "1", flag, path])
        assert str(exc.value).startswith(f"{flag}: cannot write {path}")
        assert "throughput" in capsys.readouterr().out

    def test_cluster_unwritable_metrics_exits_naming_the_path(
            self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "m.json")
        with pytest.raises(SystemExit) as exc:
            run_cli(["--warmup", "0.01", "--duration", "0.01", "cluster",
                     "--hosts", "2", "--vms-per-host", "1",
                     "--metrics-json", path])
        assert str(exc.value).startswith(f"--metrics-json: cannot write "
                                         f"{path}")
        assert "per-host" in capsys.readouterr().out

    def test_cluster_rejects_single_host_observability(self):
        for flag in (["--trace-out", "t.jsonl"], ["--profile"],
                     ["--audit-interval", "0.1"]):
            with pytest.raises(SystemExit, match="single-host"):
                run_cli(["cluster"] + flag)
        with pytest.raises(SystemExit, match="in-process"):
            run_cli(["cluster", "--process-hosts",
                     "--metrics-json", "m.json"])

    def test_migration_run_with_fault_and_metrics(self, tmp_path, capsys):
        import json
        metrics = tmp_path / "metrics.json"
        code = run_cli(["migrate", "--mode", "dnis", "--start-at", "0.5",
                        "--fault", "link_flap:at=0.2,duration=0.3,port=0",
                        "--metrics-json", str(metrics)])
        assert code == 0
        doc = json.loads(metrics.read_text())
        assert doc["metrics"]["faults.link_flaps"]["value"] == 1
        assert doc["metrics"]["faults.injected"]["value"] == 1


def test_migration_pv_mode(capsys):
    code = run_cli(["migrate", "--mode", "pv", "--start-at", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "migration events (pv)" in out


def test_report_on_native_host_has_no_domain_rows():
    from repro.core.report import XentopReport
    from repro.sim import Simulator
    from repro.vmm import NativeHost
    host = NativeHost(Simulator())
    host.start_measurement()
    host.sim.run(until=1.0)
    report = XentopReport(host)
    assert report.rows == []
    assert "TOTAL" in report.render()
