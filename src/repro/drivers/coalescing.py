"""Interrupt-coalescing policies.

The policies compared in §5.3 / Figs. 8-10:

* :class:`FixedItr` — a constant interrupt frequency (the paper sweeps
  20 kHz, 2 kHz and 1 kHz).
* :class:`DynamicItr` — the IGB driver's adaptive mode: interrupt rate
  follows traffic, bounded above by the low-latency ceiling.
* :class:`AdaptiveCoalescing` — the paper's AIC: pick the *lowest*
  frequency that cannot overflow the receive buffers,
  ``IF = max(pps / (bufs x r), lif)`` with pps sampled once a second.

A policy yields the ITR interval to program; the driver re-samples it
on a periodic tick, feeding back the measured packet rate.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional

from repro.core.costs import CostModel


class CoalescingPolicy(ABC):
    """Strategy interface for the VF driver's ITR programming."""

    @abstractmethod
    def initial_interval(self) -> float:
        """The interval to program before any traffic is seen."""

    @abstractmethod
    def on_sample(self, pps: float) -> Optional[float]:
        """Periodic adaptation: measured pps in, new interval out.

        Return None to leave the throttle unchanged.
        """

    @property
    def sample_period(self) -> float:
        """How often the driver samples pps (seconds)."""
        return 1.0


class FixedItr(CoalescingPolicy):
    """A constant interrupt frequency."""

    def __init__(self, hz: float):
        if not (math.isfinite(hz) and hz > 0):
            raise ValueError(f"interrupt frequency hz must be finite and "
                             f"> 0, not {hz!r}")
        self.hz = hz

    def initial_interval(self) -> float:
        return 1.0 / self.hz

    def on_sample(self, pps: float) -> Optional[float]:
        return None

    def __repr__(self) -> str:
        return f"FixedItr({self.hz:g} Hz)"


class DynamicItr(CoalescingPolicy):
    """The IGB driver's traffic-following mode.

    Targets a fixed batch size (packets per interrupt) so the interrupt
    rate scales with load, clamped to [min_hz, max_hz].  This is what
    makes Fig. 6's dom0 cost grow *sublinearly* with VM count: seven VFs
    each carrying a seventh of the line interrupt at a seventh the rate.
    """

    def __init__(self, target_packets_per_interrupt: float = 9.0,
                 max_hz: float = 9000.0, min_hz: float = 500.0):
        if not (math.isfinite(target_packets_per_interrupt)
                and target_packets_per_interrupt > 0):
            raise ValueError(f"target batch must be finite and > 0, not "
                             f"{target_packets_per_interrupt!r}")
        if not 0 < min_hz <= max_hz:
            raise ValueError("need 0 < min_hz <= max_hz")
        self.target = target_packets_per_interrupt
        self.max_hz = max_hz
        self.min_hz = min_hz

    def initial_interval(self) -> float:
        return 1.0 / self.max_hz

    def frequency_for(self, pps: float) -> float:
        return min(self.max_hz, max(self.min_hz, pps / self.target))

    def on_sample(self, pps: float) -> Optional[float]:
        return 1.0 / self.frequency_for(pps)

    def __repr__(self) -> str:
        return f"DynamicItr(target={self.target:g}, max={self.max_hz:g} Hz)"


class AdaptiveCoalescing(CoalescingPolicy):
    """The paper's AIC (§5.3): overflow-avoiding minimum frequency.

    Equations (1)-(3)::

        bufs = min(ap_bufs, dd_bufs)
        t_d x r = bufs / pps            (eq. 2)
        IF = 1/t_d = max(pps x r / bufs, lif)

    where ``r`` budgets hypervisor-intervention latency and ``lif``
    bounds worst-case latency.  (The paper's printed eq. (3) drops r to
    the denominator, contradicting eq. (2); see
    :meth:`repro.core.costs.CostModel.aic_interrupt_hz` for why the
    eq. (2) form is the intended one.)
    """

    def __init__(self, costs: Optional[CostModel] = None):
        self.costs = (costs or CostModel()).validate()

    def initial_interval(self) -> float:
        return 1.0 / self.costs.aic_lif_hz

    def frequency_for(self, pps: float) -> float:
        return self.costs.aic_interrupt_hz(pps)

    def on_sample(self, pps: float) -> Optional[float]:
        return 1.0 / self.frequency_for(pps)

    @property
    def sample_period(self) -> float:
        return self.costs.aic_sample_period

    def __repr__(self) -> str:
        return (f"AdaptiveCoalescing(bufs={self.costs.aic_bufs}, "
                f"r={self.costs.aic_redundancy:g}, "
                f"lif={self.costs.aic_lif_hz:g} Hz)")


# ----------------------------------------------------------------------
# declarative policy specs
# ----------------------------------------------------------------------
# Policies cross process boundaries (the sweep engine pickles jobs into
# a worker pool) and land in cache keys and JSON artifacts, so each one
# has a declarative spec — a plain dict of JSON scalars — instead of a
# ``policy_factory`` closure:
#
#     {"kind": "fixed_itr", "hz": 2000}
#     {"kind": "dynamic_itr", "target": 9, "max_hz": 9000, "min_hz": 500}
#     {"kind": "aic"}
#
# AIC's parameters live in the run's :class:`CostModel` (they are part
# of the §5.3 calibration), so its spec carries no numbers: the cost
# model the run executes under supplies them.

POLICY_KINDS = ("fixed_itr", "dynamic_itr", "aic")


def policy_from_spec(spec: Mapping[str, object],
                     costs: Optional[CostModel] = None) -> CoalescingPolicy:
    """Instantiate the policy a spec dict describes."""
    if not isinstance(spec, Mapping) or "kind" not in spec:
        raise ValueError(f"policy spec must be a dict with a 'kind' key, "
                         f"got {spec!r}")
    kind = spec["kind"]
    extra = {k: v for k, v in spec.items() if k != "kind"}
    if kind == "fixed_itr":
        if "hz" not in extra:
            raise ValueError("fixed_itr spec needs an 'hz' key")
        hz = float(extra.pop("hz"))
        if extra:
            raise ValueError(f"unknown fixed_itr keys: {sorted(extra)}")
        return FixedItr(hz)
    if kind == "dynamic_itr":
        kwargs = {}
        if "target" in extra:
            kwargs["target_packets_per_interrupt"] = float(extra.pop("target"))
        if "max_hz" in extra:
            kwargs["max_hz"] = float(extra.pop("max_hz"))
        if "min_hz" in extra:
            kwargs["min_hz"] = float(extra.pop("min_hz"))
        if extra:
            raise ValueError(f"unknown dynamic_itr keys: {sorted(extra)}")
        return DynamicItr(**kwargs)
    if kind == "aic":
        if extra:
            raise ValueError(f"aic spec takes no parameters, got "
                             f"{sorted(extra)} (tune the CostModel instead)")
        return AdaptiveCoalescing(costs)
    raise ValueError(f"unknown policy kind {kind!r}: use one of "
                     f"{', '.join(POLICY_KINDS)}")


def policy_to_spec(policy: CoalescingPolicy) -> Dict[str, object]:
    """The spec dict that reconstructs ``policy`` (inverse of
    :func:`policy_from_spec` for the stock policy classes)."""
    if isinstance(policy, FixedItr):
        return {"kind": "fixed_itr", "hz": policy.hz}
    if isinstance(policy, DynamicItr):
        return {"kind": "dynamic_itr", "target": policy.target,
                "max_hz": policy.max_hz, "min_hz": policy.min_hz}
    if isinstance(policy, AdaptiveCoalescing):
        return {"kind": "aic"}
    raise TypeError(f"no declarative spec for {type(policy).__name__}")
