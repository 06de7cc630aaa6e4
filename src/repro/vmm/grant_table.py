"""Grant tables: the PV split driver's memory-sharing primitive.

Xen's split drivers (paper [8]) move packets between domains through
grants: the frontend grants the backend access to (or a copy of) a page,
identified by a grant reference.  The copy variant — ``grant_copy`` — is
the per-packet work that saturates netback and gives the PV NIC its
"extra data copy" overhead (§1, §6.5).

Real netback does not make one hypercall per packet: it queues a
batch's copies and issues them as one ``GNTTABOP_copy``.
:meth:`GrantTable.copy_burst` models that batch.  It books exactly what
granting, copying and revoking each packet in turn would, without
building the transient grants.  The per-op calls stay for callers that
hold a grant across operations, and as the reference the batch matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Sequence


class GrantError(RuntimeError):
    """Bad grant operations: unknown ref, revoking an in-use grant..."""


class GrantKind(Enum):
    ACCESS = "access"   # map the granter's page
    TRANSFER = "transfer"


@dataclass
class Grant:
    ref: int
    granter_domain: int
    grantee_domain: int
    frame: int
    kind: GrantKind
    readonly: bool
    in_use: bool = False


class GrantTable:
    """One domain's grant table."""

    def __init__(self, domain_id: int):
        self.domain_id = domain_id
        self._grants: Dict[int, Grant] = {}
        self._next_ref = 1
        self.copies = 0
        self.copied_bytes = 0

    def grant_access(self, grantee_domain: int, frame: int,
                     readonly: bool = False) -> int:
        """Grant ``grantee_domain`` access to ``frame``; returns the ref."""
        ref = self._next_ref
        self._next_ref += 1
        self._grants[ref] = Grant(ref, self.domain_id, grantee_domain,
                                  frame, GrantKind.ACCESS, readonly)
        return ref

    def end_access(self, ref: int) -> None:
        """Revoke a grant.  Refuses while the grantee has it mapped."""
        grant = self._lookup(ref)
        if grant.in_use:
            raise GrantError(f"grant {ref} still mapped by domain "
                             f"{grant.grantee_domain}")
        del self._grants[ref]

    def map_grant(self, ref: int, grantee_domain: int) -> Grant:
        """Grantee maps the granted frame."""
        grant = self._lookup(ref)
        if grant.grantee_domain != grantee_domain:
            raise GrantError(f"domain {grantee_domain} is not the grantee of {ref}")
        grant.in_use = True
        return grant

    def unmap_grant(self, ref: int) -> None:
        grant = self._lookup(ref)
        grant.in_use = False

    def grant_copy(self, ref: int, grantee_domain: int, size_bytes: int,
                   write: bool = True) -> None:
        """Hypervisor-mediated copy into/out of the granted frame.

        Callers charge its CPU cost separately via the cost model;
        netback batches its per-packet copies through :meth:`copy_burst`.
        """
        grant = self._lookup(ref)
        if grant.grantee_domain != grantee_domain:
            raise GrantError(f"domain {grantee_domain} is not the grantee of {ref}")
        if write and grant.readonly:
            raise GrantError(f"grant {ref} is read-only")
        if size_bytes < 0:
            raise ValueError("copy size must be non-negative")
        self.copies += 1
        self.copied_bytes += size_bytes

    def copy_burst(self, grantee_domain: int, sizes: Sequence[int]) -> None:
        """One batched copy to ``grantee_domain`` of a packet per size.

        Leaves the table as ``grant_access`` → ``grant_copy`` →
        ``end_access`` per size would: one ref consumed and one copy
        booked per packet, no grant left active.  A negative size is
        rejected before anything is booked.
        """
        if sizes and min(sizes) < 0:
            raise ValueError("copy size must be non-negative")
        self._next_ref += len(sizes)
        self.copies += len(sizes)
        self.copied_bytes += sum(sizes)

    def active_grants(self) -> int:
        return len(self._grants)

    def _lookup(self, ref: int) -> Grant:
        grant = self._grants.get(ref)
        if grant is None:
            raise GrantError(f"unknown grant reference {ref}")
        return grant
