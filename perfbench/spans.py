"""In-memory span recording around class methods, installed from outside.

A :class:`SpanRecorder` replaces chosen class attributes with thin
timing wrappers.  Each call records one span: a name, a start and end
from ``time.perf_counter``, and the index of the span that was open when
it began (its parent).  Spans live in flat arrays until the benchmark
writes them out, so recording costs one append per field and no I/O.

Wrappers go on the class that defines the method, so subclasses that
inherit it are covered and a subclass override that calls ``super()``
records two nested spans.  They must be installed before the scenario
builds its objects: links, timers and streams capture bound methods at
construction, and a wrapper installed later would never see those calls.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: One wrap target: (class, method name, span name).
Target = Tuple[type, str, str]


class SpanRecorder:
    """Records nested spans of wrapped methods in one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._open: List[int] = []
        self._saved: List[Tuple[type, str, object]] = []
        #: span name -> objects whose method opened such a span, in
        #: first-call order (for ``per_instance`` targets only).
        self.instances: Dict[str, List[object]] = {}

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, targets: Iterable[Target],
                per_instance: Iterable[str] = ()) -> None:
        """Wrap every target.

        Spans named in ``per_instance`` get one name per receiving
        object, ``<name>#<k>`` for the k-th object seen, and those
        objects are kept in :attr:`instances` for reading their state
        after the run.
        """
        per_instance = set(per_instance)
        for cls, attr, name in targets:
            original = cls.__dict__.get(attr)
            if original is None:
                raise AttributeError(
                    f"{cls.__qualname__} does not define {attr}")
            self._saved.append((cls, attr, original))
            setattr(cls, attr,
                    self.wrap(original, name, name in per_instance))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (in reverse install order)."""
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    def name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(self, function: Callable, name: str,
             per_instance: bool = False) -> Callable:
        """A wrapper around ``function`` that records a ``name`` span."""
        nid = self.name_id(name)
        clock = self.clock
        open_spans = self._open
        name_of, start, end, parent = (self.name_of, self.start, self.end,
                                       self.parent)
        seen = self.instances.setdefault(name, []) if per_instance else None
        ids: Dict[int, int] = {}

        def traced(*args, **kwargs):
            span_nid = nid
            if seen is not None:
                span_nid = ids.get(id(args[0]), -1)
                if span_nid < 0:
                    span_nid = ids[id(args[0])] = self.name_id(
                        f"{name}#{len(seen)}")
                    seen.append(args[0])
            index = len(start)
            name_of.append(span_nid)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0.0)
            open_spans.append(index)
            start.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                end[index] = clock()
                open_spans.pop()

        traced.__name__ = getattr(function, "__name__", name)
        traced.__qualname__ = getattr(function, "__qualname__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        traced.__wrapped__ = function
        return traced

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> List[float]:
        """Each span's duration minus the durations of its children.

        Children are recorded strictly inside their parent on one
        thread, so they are disjoint and the difference is never below
        zero; the clamp only absorbs float rounding.
        """
        start, end, parent = self.start, self.end, self.parent
        own = [end[i] - start[i] for i in range(len(start))]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return [t if t > 0.0 else 0.0 for t in own]

    def outermost(self, group: Callable[[str], Optional[str]]
                  ) -> Dict[str, Tuple[float, int]]:
        """``{group: (seconds, calls)}`` over spans with no ancestor in
        the same group, so nested and re-entrant calls count once.

        ``group`` maps a span name to its group key, or None to leave
        the span out.
        """
        keys = [group(name) for name in self.names]
        name_of, start, end, parent = (self.name_of, self.start, self.end,
                                       self.parent)
        out: Dict[str, Tuple[float, int]] = {}
        for i in range(len(start)):
            key = keys[name_of[i]]
            if key is None:
                continue
            p = parent[i]
            while p >= 0 and keys[name_of[p]] != key:
                p = parent[p]
            if p >= 0:
                continue
            seconds, calls = out.get(key, (0.0, 0))
            out[key] = (seconds + end[i] - start[i], calls + 1)
        return out

    def self_by(self, group: Callable[[str], Optional[str]]
                ) -> Dict[str, float]:
        """Self time summed per group key."""
        keys = [group(name) for name in self.names]
        out: Dict[str, float] = {}
        name_of = self.name_of
        for i, seconds in enumerate(self.self_times()):
            key = keys[name_of[i]]
            if key is not None:
                out[key] = out.get(key, 0.0) + seconds
        return out

    def top_level_seconds(self) -> float:
        """Time covered by spans that have no parent."""
        start, end = self.start, self.end
        return sum(end[i] - start[i]
                   for i, p in enumerate(self.parent) if p < 0)

    def starts_of(self, name: str) -> List[float]:
        """Start times of every ``name`` span, in call order."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        start = self.start
        return [start[i] for i, n in enumerate(self.name_of) if n == nid]

    def write(self, path: Path) -> None:
        """Write every span as columns: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self.start) else 0.0
        document = {
            "names": self.names,
            "name": list(self.name_of),
            "start_s": [round(t - origin, 9) for t in self.start],
            "end_s": [round(t - origin, 9) for t in self.end],
            "parent": list(self.parent),
        }
        path.write_text(json.dumps(document, separators=(",", ":")))
