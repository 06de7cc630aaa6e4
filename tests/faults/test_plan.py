"""Unit tests for fault-plan validation and normalization."""

import pytest

from repro.faults import (
    FAULT_FIELDS,
    FAULT_KINDS,
    FaultPlan,
    FaultSpecError,
    validate_spec,
)


class TestValidateSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown fault kind"):
            validate_spec({"kind": "gremlin", "at": 1.0})

    def test_missing_kind_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown fault kind"):
            validate_spec({"at": 1.0})

    def test_non_mapping_rejected(self):
        with pytest.raises(FaultSpecError, match="mapping"):
            validate_spec(["link_flap"])

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultSpecError, match="durration"):
            validate_spec({"kind": "link_flap", "at": 1.0,
                           "durration": 0.5})

    def test_missing_required_field_rejected(self):
        with pytest.raises(FaultSpecError, match="requires 'at'"):
            validate_spec({"kind": "link_flap"})

    def test_defaults_filled_in(self):
        spec = validate_spec({"kind": "link_flap", "at": 2.0})
        assert spec == {"kind": "link_flap", "at": 2.0, "duration": 0.5,
                        "port": 0}

    def test_values_coerced_to_canonical_types(self):
        # JSON from a sweep spec or the CLI may carry ints or strings;
        # two plans with the same meaning must normalize identically.
        a = validate_spec({"kind": "link_flap", "at": 2, "port": "1"})
        b = validate_spec({"kind": "link_flap", "at": 2.0, "port": 1})
        c = validate_spec({"kind": "link_flap", "at": "2", "port": 1.0})
        assert a == b == c
        assert isinstance(a["at"], float) and isinstance(a["port"], int)

    def test_negative_time_rejected(self):
        with pytest.raises(FaultSpecError, match=">= 0"):
            validate_spec({"kind": "link_flap", "at": -1.0})

    def test_zero_duration_rejected(self):
        with pytest.raises(FaultSpecError, match="> 0"):
            validate_spec({"kind": "link_flap", "at": 1.0, "duration": 0})

    def test_probability_bounds(self):
        with pytest.raises(FaultSpecError, match="probability"):
            validate_spec({"kind": "mailbox_loss", "at": 1.0,
                           "probability": 0.0})
        with pytest.raises(FaultSpecError, match="probability"):
            validate_spec({"kind": "mailbox_loss", "at": 1.0,
                           "probability": 1.5})

    def test_vf_selector_none_means_every_vf(self):
        spec = validate_spec({"kind": "mailbox_loss", "at": 1.0})
        assert spec["vf"] is None
        with pytest.raises(FaultSpecError, match="VF index"):
            validate_spec({"kind": "mailbox_loss", "at": 1.0, "vf": -2})

    def test_corruption_count_must_be_positive(self):
        with pytest.raises(FaultSpecError, match="count"):
            validate_spec({"kind": "dma_corruption", "at": 1.0,
                           "count": 0})

    def test_degrade_factor_must_be_a_slowdown(self):
        with pytest.raises(FaultSpecError, match="factor"):
            validate_spec({"kind": "migration_degrade", "factor": 0.5})

    @pytest.mark.parametrize("spec, field", [
        ({"kind": "link_flap", "at": 1.0, "port": 1.7}, "port"),
        ({"kind": "link_flap", "at": 1.0, "port": True}, "port"),
        ({"kind": "link_flap", "at": 1.0, "port": "1.5"}, "port"),
        ({"kind": "mailbox_loss", "at": 1.0, "vf": 0.5}, "vf"),
        ({"kind": "mailbox_loss", "at": 1.0, "vf": False}, "vf"),
        ({"kind": "dma_corruption", "at": 1.0, "count": 2.5}, "count"),
        ({"kind": "dma_corruption", "at": 1.0, "count": True}, "count"),
        ({"kind": "link_flap", "at": True}, "at"),
        ({"kind": "link_flap", "at": float("nan")}, "at"),
        ({"kind": "link_flap", "at": "soon"}, "at"),
        ({"kind": "link_flap", "at": [1.0]}, "at"),
        ({"kind": "link_flap", "at": 1.0, "duration": float("inf")},
         "duration"),
        ({"kind": "link_flap", "at": 1.0, "duration": "nan"}, "duration"),
        ({"kind": "uplink_down", "at": 1.0, "host": "h0",
          "duration": float("nan")}, "duration"),
        ({"kind": "interrupt_delay", "at": 1.0, "delay": float("inf")},
         "delay"),
        ({"kind": "mailbox_loss", "at": 1.0, "probability": True},
         "probability"),
        ({"kind": "migration_degrade", "factor": float("inf")}, "factor"),
        ({"kind": "uplink_degrade", "at": 1.0, "host": "h0",
          "rate_factor": True}, "rate_factor"),
    ])
    def test_malformed_values_rejected_naming_the_field(self, spec, field):
        # Each of these once normalized to a wrong value (True and 1.7
        # to port 1), built a scenario whose run or cache key failed
        # later (NaN, infinity), or escaped as a raw ValueError.
        with pytest.raises(FaultSpecError, match=f"{spec['kind']}.{field}"):
            validate_spec(spec)

    def test_every_kind_has_a_field_table(self):
        assert set(FAULT_KINDS) == set(FAULT_FIELDS)

    def test_kind_scopes_partition_the_vocabulary(self):
        from repro.faults import (CLUSTER_FAULT_KINDS,
                                  HOST_LOCAL_FAULT_KINDS)
        assert CLUSTER_FAULT_KINDS & HOST_LOCAL_FAULT_KINDS == set()
        assert (CLUSTER_FAULT_KINDS | HOST_LOCAL_FAULT_KINDS
                | {"migration_degrade"}) == set(FAULT_KINDS)


class TestSpellingHints:
    def test_unknown_kind_suggests_closest_match(self):
        with pytest.raises(FaultSpecError,
                           match=r"did you mean 'uplink_down'\?"):
            validate_spec({"kind": "uplink_donw", "at": 1.0})

    def test_unknown_field_suggests_closest_match(self):
        with pytest.raises(FaultSpecError,
                           match=r"did you mean 'duration'\?"):
            validate_spec({"kind": "link_flap", "at": 1.0,
                           "duratoin": 0.5})

    def test_hopeless_typo_gets_no_hint(self):
        with pytest.raises(FaultSpecError) as exc:
            validate_spec({"kind": "zzzzqqq", "at": 1.0})
        assert "did you mean" not in str(exc.value)


class TestClusterKinds:
    def test_host_crash_requires_host(self):
        with pytest.raises(FaultSpecError, match="requires 'host'"):
            validate_spec({"kind": "host_crash", "at": 1.0})
        spec = validate_spec({"kind": "host_crash", "at": 1.0,
                              "host": "h0"})
        assert spec == {"kind": "host_crash", "at": 1.0, "host": "h0"}

    def test_host_pause_defaults(self):
        spec = validate_spec({"kind": "host_pause", "at": 1.0,
                              "host": "h1"})
        assert spec["duration"] == 0.5 and spec["host"] == "h1"

    def test_uplink_down_duration_none_means_forever(self):
        spec = validate_spec({"kind": "uplink_down", "at": 1.0,
                              "host": "h0"})
        assert spec["duration"] is None and spec["port"] == 0
        with pytest.raises(FaultSpecError, match="> 0"):
            validate_spec({"kind": "uplink_down", "at": 1.0,
                           "host": "h0", "duration": -1.0})

    def test_partition_groups_validated(self):
        spec = validate_spec({"kind": "fabric_partition", "at": 1.0,
                              "groups": [["h1", "h0"], ["h2"]]})
        # groups and members are sorted so equivalent plans normalize
        # to the same canonical JSON (and thus the same cache key).
        assert spec["groups"] == [["h0", "h1"], ["h2"]]
        with pytest.raises(FaultSpecError, match="two"):
            validate_spec({"kind": "fabric_partition", "at": 1.0,
                           "groups": [["h0", "h1"]]})
        with pytest.raises(FaultSpecError, match="more than one group"):
            validate_spec({"kind": "fabric_partition", "at": 1.0,
                           "groups": [["h0"], ["h0", "h1"]]})

    def test_degrade_factors_bounded(self):
        spec = validate_spec({"kind": "uplink_degrade", "at": 1.0,
                              "host": "h0"})
        assert spec["rate_factor"] == 2.0
        assert spec["latency_factor"] == 1.0
        with pytest.raises(FaultSpecError, match="factor"):
            validate_spec({"kind": "uplink_degrade", "at": 1.0,
                           "host": "h0", "rate_factor": 0.5})

    def test_host_none_is_omitted_from_canonical_form(self):
        # The cache-key guarantee: a single-host plan written before the
        # cluster fault layer existed must normalize byte-identically.
        spec = validate_spec({"kind": "link_flap", "at": 2.0,
                              "host": None})
        assert "host" not in spec
        assert spec == {"kind": "link_flap", "at": 2.0, "duration": 0.5,
                        "port": 0}

    def test_host_scoping_accepted_on_local_kinds(self):
        spec = validate_spec({"kind": "mailbox_loss", "at": 1.0,
                              "host": "h2"})
        assert spec["host"] == "h2"
        with pytest.raises(FaultSpecError, match="host"):
            validate_spec({"kind": "link_flap", "at": 1.0, "host": ""})

    def test_migration_degrade_takes_no_host(self):
        with pytest.raises(FaultSpecError, match="host"):
            validate_spec({"kind": "migration_degrade", "host": "h0"})


class TestFaultPlan:
    def test_plan_normalizes_each_spec(self):
        plan = FaultPlan.from_specs([{"kind": "link_flap", "at": 1}])
        assert plan.to_list() == [{"kind": "link_flap", "at": 1.0,
                                   "duration": 0.5, "port": 0}]

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert len(FaultPlan()) == 0
        assert FaultPlan.from_specs([{"kind": "migration_degrade"}])

    def test_invalid_spec_fails_plan_construction(self):
        with pytest.raises(FaultSpecError):
            FaultPlan.from_specs([{"kind": "link_flap"}])

    def test_degrade_factors_multiply(self):
        plan = FaultPlan.from_specs([
            {"kind": "migration_degrade", "factor": 2.0},
            {"kind": "migration_degrade", "factor": 3.0},
            {"kind": "link_flap", "at": 1.0},
        ])
        assert plan.migration_degrade_factor() == 6.0
        assert FaultPlan().migration_degrade_factor() == 1.0

    def test_scheduled_specs_exclude_migration_degrade(self):
        plan = FaultPlan.from_specs([
            {"kind": "migration_degrade"},
            {"kind": "dma_corruption", "at": 0.5},
        ])
        kinds = [spec["kind"] for spec in plan.scheduled_specs()]
        assert kinds == ["dma_corruption"]

    def test_to_list_returns_copies(self):
        plan = FaultPlan.from_specs([{"kind": "link_flap", "at": 1.0}])
        plan.to_list()[0]["at"] = 99.0
        assert plan.to_list()[0]["at"] == 1.0
