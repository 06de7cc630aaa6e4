"""Tests of the benchmark's own logic (not of the simulator).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import itertools
import json

import pytest

import layers
import run as bench
import workloads
from repro.core.experiment import RunResult
from repro.net.packet import packets_per_second
from spans import SpanRecorder


def _ticking_clock():
    """A clock that advances by exactly 1.0 per reading."""
    counter = itertools.count()
    return lambda: float(next(counter))


class _Leaf:
    def work(self):
        return "leaf"


class _Node:
    def __init__(self, leaf):
        self.leaf = leaf

    def call(self, depth=0):
        if depth:
            return self.call(depth - 1)
        return self.leaf.work()


class _Base:
    def step(self):
        return 1


class _Derived(_Base):
    def step(self):
        return super().step() + 1


def _recorder(targets):
    recorder = SpanRecorder(clock=_ticking_clock())
    recorder.install(targets)
    return recorder


class TestSpans:
    def test_self_time_is_span_minus_children_and_never_negative(self):
        recorder = _recorder([(_Node, "call", "outer:Node.call"),
                              (_Leaf, "work", "inner:Leaf.work")])
        try:
            assert _Node(_Leaf()).call() == "leaf"
        finally:
            recorder.uninstall()
        # Readings: outer start 0, inner start 1, inner end 2, outer end 3.
        assert list(recorder.start) == [0.0, 1.0]
        assert list(recorder.end) == [3.0, 2.0]
        assert list(recorder.parent) == [-1, 0]
        assert recorder.self_times() == [2.0, 1.0]
        assert all(t >= 0.0 for t in recorder.self_times())
        assert recorder.top_level_seconds() == 3.0

    def test_reentrant_calls_count_once_in_their_group(self):
        recorder = _recorder([(_Node, "call", "grp:Node.call"),
                              (_Leaf, "work", "leaf:Leaf.work")])
        try:
            _Node(_Leaf()).call(depth=2)
        finally:
            recorder.uninstall()
        assert len(recorder) == 4
        outer = recorder.outermost(layers.group_of)
        assert outer["grp"] == (recorder.end[0] - recorder.start[0], 1)
        assert outer["leaf"][1] == 1
        # Self times partition the outermost span exactly.
        assert sum(recorder.self_times()) == recorder.top_level_seconds()

    def test_override_calling_super_records_two_nested_spans(self):
        recorder = _recorder([(_Base, "step", "step:Base.step"),
                              (_Derived, "step", "step:Derived.step")])
        try:
            assert _Derived().step() == 2
            assert _Base().step() == 1
        finally:
            recorder.uninstall()
        assert [recorder.names[n] for n in recorder.name_of] == [
            "step:Derived.step", "step:Base.step", "step:Base.step"]
        assert list(recorder.parent) == [-1, 0, -1]
        assert recorder.outermost(layers.group_of)["step"][1] == 2

    def test_uninstall_restores_the_original_methods(self):
        before = _Node.__dict__["call"]
        recorder = _recorder([(_Node, "call", "grp:Node.call")])
        assert _Node.__dict__["call"] is not before
        recorder.uninstall()
        assert _Node.__dict__["call"] is before

    def test_exceptions_still_close_the_span(self):
        class Boom:
            def go(self):
                raise ValueError("x")

        recorder = _recorder([(Boom, "go", "boom:Boom.go")])
        try:
            with pytest.raises(ValueError):
                Boom().go()
        finally:
            recorder.uninstall()
        assert recorder.end[0] > recorder.start[0]
        assert recorder._open == []

    def test_per_instance_spans_keep_their_objects(self):
        recorder = SpanRecorder(clock=_ticking_clock())
        recorder.install([(_Leaf, "work", "leaf:Leaf.work")],
                         per_instance=["leaf:Leaf.work"])
        a, b = _Leaf(), _Leaf()
        try:
            a.work(), b.work(), a.work()
        finally:
            recorder.uninstall()
        assert recorder.instances["leaf:Leaf.work"] == [a, b]
        assert [recorder.names[n] for n in recorder.name_of] == [
            "leaf:Leaf.work#0", "leaf:Leaf.work#1", "leaf:Leaf.work#0"]

    def test_written_spans_keep_name_start_end_and_parent(self, tmp_path):
        recorder = _recorder([(_Node, "call", "outer:Node.call"),
                              (_Leaf, "work", "inner:Leaf.work")])
        try:
            _Node(_Leaf()).call()
        finally:
            recorder.uninstall()
        path = tmp_path / "out" / "spans.json"
        recorder.write(path)
        doc = json.loads(path.read_text())
        assert [doc["names"][n] for n in doc["name"]] == [
            "outer:Node.call", "inner:Leaf.work"]
        assert doc["start_s"] == [0.0, 1.0]
        assert doc["end_s"] == [3.0, 2.0]
        assert doc["parent"] == [-1, 0]

    def test_every_layer_target_resolves(self):
        names = [name for _cls, _attr, name in layers.targets()]
        assert len(names) == len(set(names))
        assert {layers.layer_of(name) for name in names} == set(layers.LAYERS)


class TestNormalization:
    def _cluster_result(self):
        host = {"name": "h0", "events_executed": 7, "rx": 1}
        return RunResult(
            vm_count=1, duration=0.5, throughput_bps=1.0,
            per_vm_throughput_bps=[1.0], cpu={"guest": 1.0},
            loss_rate=0.0, interrupt_hz=0.0,
            extras={"cluster": {"hosts": {"h0": host},
                                "fabric": {"offered": 3},
                                "sync_windows": 9}})

    def test_drops_exactly_the_two_run_shape_fields(self):
        result = self._cluster_result()
        full = result.to_dict()
        norm = workloads.normalized(result)
        assert norm["extras"]["cluster"]["hosts"]["h0"] == {"name": "h0",
                                                           "rx": 1}
        assert "sync_windows" not in norm["extras"]["cluster"]
        del full["extras"]["cluster"]["hosts"]["h0"]["events_executed"]
        del full["extras"]["cluster"]["sync_windows"]
        assert norm == full

    def test_single_host_results_are_untouched(self):
        result = self._cluster_result()
        result.extras = {"faults": {"injected": 1}}
        assert workloads.normalized(result) == result.to_dict()

    def test_digest_ignores_only_the_run_shape_fields(self):
        a, b = self._cluster_result(), self._cluster_result()
        b.extras["cluster"]["sync_windows"] = 1
        b.extras["cluster"]["hosts"]["h0"]["events_executed"] = 1
        assert workloads.digest(a) == workloads.digest(b)
        b.extras["cluster"]["fabric"]["offered"] = 4
        assert workloads.digest(a) != workloads.digest(b)


class TestScenarios:
    @pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
    def test_generation_is_deterministic(self, workload):
        for seed in (0, 1, 12345):
            assert (workloads.scenario_for(workload, seed)
                    == workloads.scenario_for(workload, seed))
        assert (workloads.scenario_for(workload, 1)
                != workloads.scenario_for(workload, 2))

    def test_seed_zero_is_the_canonical_shape(self):
        fig15 = workloads.scenario_for("sriov_rx_exact", 0)
        assert (fig15.vm_count, fig15.ports, fig15.policy) == (
            10, 10, {"kind": "fixed_itr", "hz": 2000})
        assert fig15.offered_bps is None and fig15.sim_mode == "exact"
        assert workloads.scenario_for("sriov_rx_fluid", 0) == fig15.with_(
            sim_mode="fluid")
        cluster = workloads.scenario_for("cluster_fluid", 0)
        assert [f["offered_bps"] for f in cluster.flows] == [900e6, 900e6]
        assert workloads.scenario_for("pv_rx", 0).mode == "pv"

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_sriov_band_keeps_the_burst_interval_floor(self, seed):
        # The testbed's netperf quantum is max(100 us, 8 / pps): above
        # 80k pps every seed ticks at the same 100 us schedule.
        scenario = workloads.scenario_for("sriov_rx_fluid", seed)
        assert packets_per_second(scenario.offered_bps) >= 80_000

    @pytest.mark.parametrize("workload,seed", [
        ("sriov_rx_fluid", 3), ("sriov_rx_fluid", 99),
        ("cluster_fluid", 3), ("cluster_fluid", 99)])
    def test_drawn_inputs_stay_fully_collapsed(self, workload, seed):
        scenario = workloads.scenario_for(workload, seed).with_(
            warmup=0.02, duration=0.03)
        ex = bench.execute(scenario)
        assert ex.error is None
        assert ex.result.fluid["rejections"] == {}
        assert ex.result.fluid["events_executed"] == 0
        assert ex.result.fluid["collapsed_events"] > 0


class TestSmoke:
    @pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
    def test_tiny_window_run_passes_the_correctness_check(self, workload):
        scenario = workloads.smoke_scenario(
            workloads.scenario_for(workload, 7))
        reference = workloads.digest(
            bench.execute(workloads.reference_scenario(scenario)).result)
        plain = bench.execute(scenario)
        traced = bench.execute(scenario, trace=True)
        frac = bench._fluid_frac(plain.result)
        assert bench._failure(plain, reference, frac) is None
        assert bench._failure(traced, reference, frac) is None
        assert 0.0 < plain.setup_s < plain.wall_s
        metrics = layers.layer_metrics(traced.recorder, traced.result,
                                       traced.wall_s)
        assert set(metrics) == set(layers.METRICS)
        assert metrics["core.testbed.setup_s"] > 0.0
        assert metrics["trace.unattributed_s"] >= 0.0
        assert all(metrics[f"{layer}.self_s"] >= 0.0
                   for layer in layers.LAYERS)

    def test_a_wrong_result_or_fallback_counts_as_failed(self):
        scenario = workloads.smoke_scenario(
            workloads.scenario_for("sriov_rx_fluid", 0))
        ex = bench.execute(scenario)
        reference = workloads.digest(ex.result)
        assert bench._failure(ex, reference, 1.0) is None
        assert "digest" in bench._failure(ex, "0" * 64, 1.0)
        assert "collapsed_frac" in bench._failure(ex, reference, 0.5)
        assert bench._failure(ex, None, 1.0) == "no reference digest"
