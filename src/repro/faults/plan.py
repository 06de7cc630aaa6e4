"""Declarative fault specifications.

A fault plan is a list of plain JSON dicts — the same "no live objects"
rule the :class:`~repro.api.Scenario` follows — so plans ride inside
scenarios, pickle into the sweep engine's process pool, and fold into
the result cache's content key (a faulty run can never collide with a
clean one).

Each spec names a ``kind`` plus that kind's parameters:

``link_flap``
    The physical line of one port drops at ``at`` and returns at
    ``at + duration``.  Propagates exactly as §4.2 describes: the PF
    driver broadcasts ``link_change`` over every VF mailbox, the VF
    drivers update their carrier, and the bond's MII monitor reacts.

``mailbox_loss``
    During ``[at, at + duration)`` each doorbell ring on the selected
    mailboxes (one VF, or every VF of a port) is lost with
    ``probability``.  The message stays latched — the sender-side
    retrier re-rings the doorbell after a timeout.

``dma_corruption``
    The next ``count`` RX DMA writes on a port land with a bad
    checksum; the function drops each frame and counts it, as a real
    driver does on an error-status descriptor.

``interrupt_delay``
    During ``[at, at + duration)`` every MSI from the testbed's ports
    is delivered ``delay`` seconds late.

``migration_degrade``
    The migration link's bandwidth is divided by ``factor`` (a
    congested or rate-limited migration network).  Not scheduled — it
    parameterizes the pre-copy model directly.

Cluster-scope kinds (``mode="cluster"`` scenarios only; see
:mod:`repro.faults.cluster` and docs/faults.md for the full matrix):

``host_crash``
    Host ``host``'s engine stops advancing at ``at`` and never
    resumes.  Peers observe silence: frames in flight toward it drain
    at the fabric (counted, never delivered), new frames to its MACs
    drain too, and its own measurement window ends at the crash.

``host_pause``
    Like a firmware stall or VM suspend: during ``[at, at+duration)``
    the host is isolated — its fabric egress and ingress both drain at
    the ToR — then traffic resumes.  Local (same-host) flows continue.

``uplink_down`` / ``uplink_up``
    The fabric-side cable of one host NIC port flaps.  The host's
    active-backup uplink bond (MII-monitored) fails egress over to a
    standby cable; TCP frames caught without any carrier queue for
    retransmit, UDP frames drop and count.  A ``duration``-less
    ``uplink_down`` stays down until a matching ``uplink_up``.  When
    *every* cable of a host is down the ToR counts frames to it as
    unreachable drops.

``fabric_partition``
    During ``[at, at+duration)`` the ToR drops frames between hosts in
    different ``groups`` (a list of host-name lists); frames within a
    group still forward.

``uplink_degrade``
    During ``[at, at+duration)`` frames to or from ``host`` see the
    fabric serialization slowed by ``rate_factor`` and the fabric
    latency multiplied by ``latency_factor``.

Every kind except ``migration_degrade`` and ``fabric_partition`` takes
an optional ``host=`` naming the cluster host it targets (required in
cluster mode, forbidden in single-host mode; validated against the
scenario's declared host names).

Validation normalizes every spec: defaults are filled in, so two plans
with the same meaning serialize to the same canonical JSON.  A ``host``
of None is *omitted* from the normalized form, so single-host plans
keep the exact canonical JSON (and cache keys) they always had.
"""

from __future__ import annotations

import difflib
import math
from typing import Dict, Iterable, Iterator, List, Mapping, Optional


class FaultSpecError(ValueError):
    """A fault spec failed validation."""


#: kind -> {field: (default, validator)}.  ``REQUIRED`` marks fields
#: with no default.
REQUIRED = object()


def _number(value: object, field: str) -> float:
    """A finite number, or a numeric string (``--fault`` values may
    arrive as text).  A ``bool`` is not a number here, and NaN or
    infinity would fail only at run time or in the cache key."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise FaultSpecError(f"{field} must be a finite number, not {value!r}")


def _integer(value: object, field: str) -> int:
    """An ``int``, an integral float or an integer string.  ``True`` or
    ``1.7`` must not normalize to 1."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise FaultSpecError(f"{field} must be an integer, not {value!r}")


def _non_negative(value: object, field: str) -> float:
    number = _number(value, field)
    if number < 0:
        raise FaultSpecError(f"{field} must be >= 0, not {value!r}")
    return number


def _positive(value: object, field: str) -> float:
    number = _number(value, field)
    if number <= 0:
        raise FaultSpecError(f"{field} must be > 0, not {value!r}")
    return number


def _port(value: object, field: str) -> int:
    number = _integer(value, field)
    if number < 0:
        raise FaultSpecError(f"{field} must be a port index >= 0, "
                             f"not {value!r}")
    return number


def _vf(value: object, field: str) -> Optional[int]:
    if value is None:
        return None
    number = _integer(value, field)
    if number < 0:
        raise FaultSpecError(f"{field} must be a VF index >= 0 or null "
                             f"(= every VF), not {value!r}")
    return number


def _probability(value: object, field: str) -> float:
    number = _number(value, field)
    if not 0.0 < number <= 1.0:
        raise FaultSpecError(f"{field} must be in (0, 1], not {value!r}")
    return number


def _count(value: object, field: str) -> int:
    number = _integer(value, field)
    if number <= 0:
        raise FaultSpecError(f"{field} must be a positive count, "
                             f"not {value!r}")
    return number


def _factor(value: object, field: str) -> float:
    number = _number(value, field)
    if number < 1.0:
        raise FaultSpecError(f"{field} must be >= 1.0 (a slowdown), "
                             f"not {value!r}")
    return number


def _host(value: object, field: str) -> str:
    if not isinstance(value, str) or not value:
        raise FaultSpecError(f"{field} must be a host name, "
                             f"not {value!r}")
    return value


def _opt_host(value: object, field: str) -> Optional[str]:
    if value is None:
        return None
    return _host(value, field)


def _opt_duration(value: object, field: str) -> Optional[float]:
    if value is None:
        return None
    return _positive(value, field)


def _groups(value: object, field: str) -> List[List[str]]:
    if not isinstance(value, (list, tuple)) or len(value) < 2:
        raise FaultSpecError(f"{field} must be a list of at least two "
                             f"host-name groups, not {value!r}")
    seen: set = set()
    groups: List[List[str]] = []
    for group in value:
        if not isinstance(group, (list, tuple)) or not group:
            raise FaultSpecError(f"{field} groups must be non-empty "
                                 f"lists of host names, not {group!r}")
        names = sorted(_host(name, field) for name in group)
        for name in names:
            if name in seen:
                raise FaultSpecError(f"{field} lists host {name!r} in "
                                     f"more than one group")
            seen.add(name)
        groups.append(names)
    groups.sort()
    return groups


FAULT_FIELDS: Dict[str, Dict[str, tuple]] = {
    "link_flap": {
        "at": (REQUIRED, _non_negative),
        "duration": (0.5, _positive),
        "port": (0, _port),
        "host": (None, _opt_host),
    },
    "mailbox_loss": {
        "at": (REQUIRED, _non_negative),
        "duration": (0.5, _positive),
        "port": (0, _port),
        "vf": (None, _vf),
        "probability": (1.0, _probability),
        "host": (None, _opt_host),
    },
    "dma_corruption": {
        "at": (REQUIRED, _non_negative),
        "count": (1, _count),
        "port": (0, _port),
        "host": (None, _opt_host),
    },
    "interrupt_delay": {
        "at": (REQUIRED, _non_negative),
        "duration": (0.5, _positive),
        "delay": (100e-6, _positive),
        "host": (None, _opt_host),
    },
    "migration_degrade": {
        "factor": (2.0, _factor),
    },
    "host_crash": {
        "at": (REQUIRED, _non_negative),
        "host": (REQUIRED, _host),
    },
    "host_pause": {
        "at": (REQUIRED, _non_negative),
        "duration": (0.5, _positive),
        "host": (REQUIRED, _host),
    },
    "uplink_down": {
        "at": (REQUIRED, _non_negative),
        "duration": (None, _opt_duration),
        "port": (0, _port),
        "host": (REQUIRED, _host),
    },
    "uplink_up": {
        "at": (REQUIRED, _non_negative),
        "port": (0, _port),
        "host": (REQUIRED, _host),
    },
    "fabric_partition": {
        "at": (REQUIRED, _non_negative),
        "duration": (0.5, _positive),
        "groups": (REQUIRED, _groups),
    },
    "uplink_degrade": {
        "at": (REQUIRED, _non_negative),
        "duration": (0.5, _positive),
        "rate_factor": (2.0, _factor),
        "latency_factor": (1.0, _factor),
        "host": (REQUIRED, _host),
    },
}

FAULT_KINDS = tuple(FAULT_FIELDS)

#: Kinds a single testbed's :class:`~repro.faults.injector.FaultInjector`
#: arms (plus ``migration_degrade``, which reshapes the pre-copy model).
HOST_LOCAL_FAULT_KINDS = frozenset(
    {"link_flap", "mailbox_loss", "dma_corruption", "interrupt_delay"})

#: Kinds that only make sense under a cluster coordinator: they act on
#: the fabric, the uplink bond layer, or a whole host engine.
CLUSTER_FAULT_KINDS = frozenset(
    {"host_crash", "host_pause", "uplink_down", "uplink_up",
     "fabric_partition", "uplink_degrade"})


def _hint(name: object, known: Iterable[str]) -> str:
    """A ``(did you mean ...?)`` suffix when a close match exists —
    same style as :meth:`Scenario.from_dict`."""
    match = difflib.get_close_matches(str(name), list(known), n=1)
    return f" (did you mean {match[0]!r}?)" if match else ""


def validate_spec(spec: Mapping[str, object]) -> Dict[str, object]:
    """One normalized fault spec: kind checked, defaults filled,
    values coerced; unknown keys are an error (a typo'd parameter
    must not silently no-op)."""
    if not isinstance(spec, Mapping):
        raise FaultSpecError(f"fault spec must be a mapping, "
                             f"not {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in FAULT_FIELDS:
        raise FaultSpecError(f"unknown fault kind {kind!r}: use one of "
                             f"{', '.join(FAULT_KINDS)}"
                             f"{_hint(kind, FAULT_KINDS)}")
    fields = FAULT_FIELDS[kind]
    unknown = set(spec) - set(fields) - {"kind"}
    if unknown:
        hints = "".join(_hint(name, fields) for name in sorted(unknown))
        raise FaultSpecError(f"unknown {kind} fields: {sorted(unknown)} "
                             f"(known: {sorted(fields)}){hints}")
    normalized: Dict[str, object] = {"kind": kind}
    for field, (default, coerce) in fields.items():
        if field in spec:
            normalized[field] = coerce(spec[field], f"{kind}.{field}")
        elif default is REQUIRED:
            raise FaultSpecError(f"{kind} requires {field!r}")
        else:
            normalized[field] = default
    # Single-host plans never say host=, and their canonical JSON (and
    # therefore every cached result key) must not grow a key for it.
    if normalized.get("host", REQUIRED) is None:
        del normalized["host"]
    return normalized


class FaultPlan:
    """An ordered, validated list of fault specs."""

    def __init__(self, specs: Iterable[Mapping[str, object]] = ()):
        self.specs: List[Dict[str, object]] = [validate_spec(s)
                                               for s in specs]

    @classmethod
    def from_specs(cls, specs: Iterable[Mapping[str, object]]) -> "FaultPlan":
        return cls(specs)

    def to_list(self) -> List[Dict[str, object]]:
        """The canonical JSON-able form (normalized spec dicts)."""
        return [dict(spec) for spec in self.specs]

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def migration_degrade_factor(self) -> float:
        """The combined migration-link slowdown (1.0 = no degradation)."""
        factor = 1.0
        for spec in self.specs:
            if spec["kind"] == "migration_degrade":
                factor *= float(spec["factor"])
        return factor

    def scheduled_specs(self) -> List[Dict[str, object]]:
        """The specs the injector schedules on the simulator (everything
        except ``migration_degrade``, which reshapes the pre-copy model
        instead of firing at a time)."""
        return [spec for spec in self.specs
                if spec["kind"] != "migration_degrade"]
