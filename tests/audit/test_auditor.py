"""The invariant auditor: clean runs pass, seeded corruption is caught.

Every check audits an *exact* identity, so these tests work by
deliberately breaking one — leaking pool accounting, flipping a
descriptor done bit, latching a reserved LAPIC vector — and asserting
the auditor names the right law, counts the violation, and writes a
repro dump.

The other half of the contract is *observability only*: an audited
fault-free run must be byte-identical to an unaudited one.
"""

import json

import pytest

from repro.api import Scenario, run
from repro.audit import (DUMP_SCHEMA, InvariantAuditor, InvariantViolation,
                         default_dump_dir)
from repro.core import Testbed, TestbedConfig


def _bed(tmp_path, **config):
    """A small audited testbed whose dumps land under tmp_path."""
    bed = Testbed(TestbedConfig(ports=1, **config))
    bed.auditor.dump_dir = tmp_path / "dumps"
    return bed


class TestCleanRuns:
    def test_fresh_testbed_passes_every_check(self, tmp_path):
        bed = _bed(tmp_path)
        bed.add_sriov_guest()
        checks = bed.auditor.audit()
        assert checks == 7
        assert bed.auditor.audits == 1
        assert bed.auditor.violations == 0

    def test_audited_run_is_byte_identical_to_unaudited(self):
        scenario = Scenario(mode="sriov", vm_count=2, warmup=0.05,
                            duration=0.05)
        audited = run(scenario, audit=True).to_dict()
        unaudited = run(scenario, audit=False).to_dict()
        assert audited == unaudited

    def test_audited_vmdq_run_is_byte_identical_too(self):
        scenario = Scenario(mode="vmdq", vm_count=2, kind="pvm",
                            warmup=0.05, duration=0.05)
        assert (run(scenario, audit=True).to_dict()
                == run(scenario, audit=False).to_dict())

    def test_periodic_audit_fires_through_the_event_loop(self, tmp_path):
        bed = _bed(tmp_path, audit_interval=0.1)
        bed.add_sriov_guest()
        bed.sim.run(until=1.0)
        assert bed.auditor.audits >= 5
        assert bed.auditor.violations == 0

    def test_audit_can_be_disabled(self):
        bed = Testbed(TestbedConfig(ports=1, audit=False))
        assert bed.auditor is None

    def test_interval_must_be_positive(self, tmp_path):
        bed = _bed(tmp_path)
        with pytest.raises(ValueError):
            bed.auditor.install(0.0)


class TestSeededViolations:
    def test_leaked_pool_accounting_is_caught(self, tmp_path):
        bed = _bed(tmp_path)
        bed.packet_pool.acquired += 1  # a packet the pool never minted
        with pytest.raises(InvariantViolation) as excinfo:
            bed.auditor.audit()
        assert excinfo.value.check == "packet-pool"
        assert bed.auditor.violations == 1

    def test_flipped_descriptor_done_bit_is_caught(self, tmp_path):
        bed = _bed(tmp_path)
        guest = bed.add_sriov_guest()
        # A done writeback outside the [clean, head) completion window
        # claims ownership the device never granted.
        guest.vf.rx_ring.done[0] = 1
        with pytest.raises(InvariantViolation) as excinfo:
            bed.auditor.audit()
        assert excinfo.value.check == "descriptor-ring"

    def test_cleared_done_bit_inside_window_is_caught(self, tmp_path):
        bed = _bed(tmp_path)
        guest = bed.add_sriov_guest()
        ring = guest.vf.rx_ring
        for _ in range(3):
            ring.consume()
        bed.auditor.audit()  # three completions awaiting cleanup: sound
        # A completion in [clean, head) lost its done writeback: the
        # driver's reap would stop there and strand the slots behind it.
        ring.done[1] = 0
        with pytest.raises(InvariantViolation) as excinfo:
            bed.auditor.audit()
        assert excinfo.value.check == "descriptor-ring"
        assert excinfo.value.details["slot"] == 1
        assert excinfo.value.details["done"] is False

    def test_reserved_lapic_vector_is_caught(self, tmp_path):
        bed = _bed(tmp_path)
        guest = bed.add_sriov_guest()
        guest.domain.lapic._irr |= 1 << 5  # architecture-reserved
        with pytest.raises(InvariantViolation) as excinfo:
            bed.auditor.audit()
        assert excinfo.value.check == "lapic"

    def test_event_queue_ledger_mismatch_is_caught(self, tmp_path):
        bed = _bed(tmp_path)
        bed.sim._live += 1  # an event the queues don't hold
        with pytest.raises(InvariantViolation) as excinfo:
            bed.auditor.audit()
        assert excinfo.value.check == "event-queue"

    def test_broken_heap_order_is_caught(self, tmp_path):
        bed = _bed(tmp_path)
        bed.sim.schedule(1.0, lambda: None)
        bed.sim.schedule(2.0, lambda: None)
        heap = bed.sim._heap
        heap[0], heap[1] = heap[1], heap[0]  # child now precedes parent
        with pytest.raises(InvariantViolation) as excinfo:
            bed.auditor.audit()
        assert excinfo.value.check == "event-queue"
        assert "heap property" in str(excinfo.value)

    def test_violations_accumulate(self, tmp_path):
        bed = _bed(tmp_path)
        bed.packet_pool.acquired += 1
        for _ in range(2):
            with pytest.raises(InvariantViolation):
                bed.auditor.audit()
        assert bed.auditor.violations == 2
        assert bed.auditor.audits == 0  # no pass ever completed


class TestReproDump:
    def test_violation_writes_a_repro_dump(self, tmp_path):
        bed = _bed(tmp_path, seed=1234)
        bed.auditor.context = {"scenario": {"mode": "sriov"},
                               "seed": 1234}
        bed.packet_pool.acquired += 1
        with pytest.raises(InvariantViolation) as excinfo:
            bed.auditor.audit()
        violation = excinfo.value
        assert violation.dump_path is not None
        assert violation.dump_path in str(violation)
        document = json.loads(open(violation.dump_path).read())
        assert document["schema"] == DUMP_SCHEMA
        assert document["check"] == "packet-pool"
        assert document["seed"] == 1234
        assert document["sim_time"] == violation.sim_time
        assert document["context"]["scenario"] == {"mode": "sriov"}
        assert document["details"]

    def test_colliding_dump_names_get_a_counter_suffix(self, tmp_path):
        bed = _bed(tmp_path)
        bed.packet_pool.acquired += 1
        paths = set()
        for _ in range(2):
            with pytest.raises(InvariantViolation) as excinfo:
                bed.auditor.audit()
            paths.add(excinfo.value.dump_path)
        assert len(paths) == 2  # second dump did not clobber the first

    def test_unwritable_dump_dir_still_raises_the_violation(self,
                                                            tmp_path):
        bed = _bed(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the dump dir should go")
        bed.auditor.dump_dir = blocker / "nested"
        bed.packet_pool.acquired += 1
        with pytest.raises(InvariantViolation) as excinfo:
            bed.auditor.audit()
        assert excinfo.value.dump_path is None

    def test_default_dump_dir_honours_the_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT_DIR", "/tmp/elsewhere")
        assert default_dump_dir() == "/tmp/elsewhere"
        monkeypatch.delenv("REPRO_AUDIT_DIR")
        assert default_dump_dir() == ".repro-audit"


class TestSweepIntegration:
    def test_violation_inside_a_job_is_a_failed_task_not_a_crash(
            self, tmp_path, monkeypatch):
        # An InvariantViolation raised inside a pool worker is a
        # deterministic failure: the supervisor reports it (no retry)
        # and the campaign carries on.
        from repro.sweep import ResultCache, run_sweep
        from repro.sweep import jobs as jobs_module

        def poisoned(payload):
            raise InvariantViolation("packet-pool", "seeded", sim_time=0.0)

        monkeypatch.setattr(jobs_module, "execute_payload", poisoned)
        monkeypatch.setattr("repro.sweep.runner.execute_payload", poisoned)
        scenarios = [Scenario(mode="sriov", warmup=0.05, duration=0.05)]
        outcomes, stats = run_sweep(scenarios,
                                    cache=ResultCache(tmp_path / "cache"))
        assert stats.failed == 1
        assert outcomes[0].result is None
        assert "InvariantViolation" in outcomes[0].task.error
