"""Global vector allocation.

"Xen captures the interrupt and recognizes the guest which owns the
interrupt by vector, which is globally allocated to avoid interrupt
sharing" (paper §4.1, citing [6]).  The allocator hands out unique
physical vectors and remembers which domain and handler own each one, so
the hypervisor's external-interrupt path is a single table lookup.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.hw.lapic import VECTOR_COUNT


class VectorExhausted(RuntimeError):
    """No free global vectors remain."""


class VectorAllocator:
    """Hands out globally unique interrupt vectors."""

    #: Vectors below 0x40 are kept for the hypervisor's own use.
    FIRST_DYNAMIC = 0x40

    def __init__(self) -> None:
        self._owners: Dict[int, Tuple[int, Callable[[int], None]]] = {}
        self._next = self.FIRST_DYNAMIC

    def allocate(self, domain_id: int, handler: Callable[[int], None]) -> int:
        """Allocate a vector owned by ``domain_id``; returns the vector.

        ``handler(vector)`` is what the hypervisor invokes when the
        physical interrupt arrives.
        """
        vector = self._next
        while vector < VECTOR_COUNT and vector in self._owners:
            vector += 1
        if vector >= VECTOR_COUNT:
            raise VectorExhausted("global vector space exhausted")
        self._owners[vector] = (domain_id, handler)
        self._next = vector + 1
        return vector

    def free(self, vector: int) -> None:
        self._owners.pop(vector, None)
        if vector < self._next:
            self._next = max(self.FIRST_DYNAMIC, min(self._next, vector))

    def owner(self, vector: int) -> Optional[int]:
        entry = self._owners.get(vector)
        return entry[0] if entry else None

    def handler(self, vector: int) -> Optional[Callable[[int], None]]:
        entry = self._owners.get(vector)
        return entry[1] if entry else None
