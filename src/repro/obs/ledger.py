"""The cycle ledger: every simulated CPU cycle, attributed.

The paper's Fig. 7 breaks VM-exit handling down by exit reason, and its
Fig. 12 splits CPU utilization per domain.  Both are *attribution*
questions: which domain did the cost model charge, and for what?  The
:class:`CycleLedger` answers them directly — hot paths call
:meth:`CycleLedger.charge` with a ``(domain, category)`` pair alongside
the existing core accounting, and the figures fall out of a snapshot
instead of bespoke bookkeeping in the experiment runner.

Category names are dotted and hierarchical, e.g.::

    exit.apic-access-eoi      hypervisor cycles servicing EOI exits
    exit.external-interrupt   the external-interrupt exit + injection
    guest.rx                  guest-side packet processing
    netback.copy              dom0 copy work for the PV split driver
    migration.precopy         dom0 cycles moving pre-copy data

``exit.*`` categories mirror :class:`repro.vmm.vmexit.VmExitKind`
values one-to-one.  The ledger is the one book of VM exits:
:func:`repro.vmm.vmexit.charge_exits` books every exit the hypervisor
services here, and :meth:`CycleLedger.exit_breakdown` is Fig. 7's
instrument.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Prefix under which VM-exit cycles are recorded.
EXIT_PREFIX = "exit."


class CycleLedger:
    """Per-(domain, category) cycle and event attribution."""

    __slots__ = ("_cells",)

    def __init__(self) -> None:
        # (domain, category) -> [count, cycles]
        self._cells: Dict[Tuple[str, str], List[float]] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def charge(self, domain: str, category: str, cycles: float,
               count: int = 1) -> None:
        """Attribute ``cycles`` (and ``count`` events) to a pair."""
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        cell = self._cells.get((domain, category))
        if cell is None:
            cell = self._cells[(domain, category)] = [0, 0.0]
        cell[0] += count
        cell[1] += cycles

    def reset(self) -> None:
        self._cells.clear()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def cycles(self, domain: Optional[str] = None,
               category: Optional[str] = None) -> float:
        """Total cycles, optionally filtered by domain and/or category."""
        return sum(cell[1] for (dom, cat), cell in self._cells.items()
                   if (domain is None or dom == domain)
                   and (category is None or cat == category))

    def count(self, domain: Optional[str] = None,
              category: Optional[str] = None) -> int:
        """Total event count, with the same filters as :meth:`cycles`."""
        return int(sum(cell[0] for (dom, cat), cell in self._cells.items()
                       if (domain is None or dom == domain)
                       and (category is None or cat == category)))

    @property
    def total_cycles(self) -> float:
        return sum(cell[1] for cell in self._cells.values())

    def domains(self) -> List[str]:
        return sorted({dom for dom, _ in self._cells})

    def categories(self, prefix: Optional[str] = None) -> List[str]:
        return sorted({cat for _, cat in self._cells
                       if prefix is None or cat.startswith(prefix)})

    def by_category(self, prefix: Optional[str] = None
                    ) -> Dict[str, Tuple[int, float]]:
        """``{category: (count, cycles)}`` summed across domains."""
        out: Dict[str, List[float]] = {}
        for (_, cat), cell in self._cells.items():
            if prefix is not None and not cat.startswith(prefix):
                continue
            acc = out.setdefault(cat, [0, 0.0])
            acc[0] += cell[0]
            acc[1] += cell[1]
        return {cat: (int(acc[0]), acc[1]) for cat, acc in sorted(out.items())}

    def by_domain(self) -> Dict[str, float]:
        """``{domain: cycles}`` summed across categories."""
        out: Dict[str, float] = {}
        for (dom, _), cell in self._cells.items():
            out[dom] = out.get(dom, 0.0) + cell[1]
        return dict(sorted(out.items()))

    def exit_breakdown(self) -> Dict[str, Tuple[int, float]]:
        """Fig. 7's instrument: ``{exit-kind: (count, cycles)}`` with the
        ``exit.`` prefix stripped, summed across domains."""
        return {cat[len(EXIT_PREFIX):]: value
                for cat, value in self.by_category(EXIT_PREFIX).items()}

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A deterministic, JSON-ready document of the full ledger."""
        domains: Dict[str, dict] = {}
        for (dom, cat), cell in sorted(self._cells.items()):
            domains.setdefault(dom, {})[cat] = {
                "count": int(cell[0]),
                "cycles": cell[1],
            }
        return {
            "domains": domains,
            "by_category": {cat: {"count": count, "cycles": cyc}
                            for cat, (count, cyc) in self.by_category().items()},
            "total_cycles": self.total_cycles,
        }
