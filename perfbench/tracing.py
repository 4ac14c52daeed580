"""Outside-in span tracing: timing wrappers installed from the benchmark's files.

A :class:`Tracer` wraps callables of the program at three kinds of boundary
-- a class method, a name bound in a module, and a method of one instance --
and records one :class:`Span` per call (name, start, end, parent span, op
id) in memory.  :meth:`Tracer.uninstall` restores every patched attribute,
so the program is unchanged once a traced phase ends.  Call counts come from
the same spans, so they are measured at the same boundaries as the times.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

__all__ = ["Span", "Tracer", "self_times", "aggregate", "chrome_trace"]

#: Op id of spans recorded outside any timed op (set-up, warm-up).
SETUP_OP = -1


@dataclass
class Span:
    """One call of a wrapped callable; times in ``perf_counter_ns`` units."""

    name: str
    start: int
    end: int
    #: Index of the enclosing span in :attr:`Tracer.spans`, or -1.
    parent: int
    #: Op id current when the call started (:data:`SETUP_OP` outside ops).
    op: int
    #: Optional number measured from the call's result (e.g. bytes returned).
    value: float = 0.0


class Tracer:
    """Records spans around wrapped callables until :meth:`uninstall`."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.op = SETUP_OP
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(
        self, name: str, fn: Callable, measure: Optional[Callable] = None
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    self.spans[index].value = float(measure(result))
                return result
            finally:
                self._close(index)

        return traced

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def wrap_method(
        self, cls: type, attr: str, name: str, measure: Optional[Callable] = None
    ) -> None:
        """Wrap ``cls.attr`` (a plain function, possibly inherited)."""
        own = cls.__dict__.get(attr)
        if isinstance(own, (staticmethod, classmethod)):
            raise TypeError(f"{cls.__name__}.{attr} is not a plain method")
        setattr(cls, attr, self._wrap(name, getattr(cls, attr), measure))
        if own is None:
            self._undo.append(lambda: delattr(cls, attr))
        else:
            self._undo.append(lambda: setattr(cls, attr, own))

    def wrap_name(self, module, attr: str, name: str) -> None:
        """Wrap the callable bound to ``attr`` in ``module``'s namespace."""
        original = getattr(module, attr)
        setattr(module, attr, self._wrap(name, original))
        self._undo.append(lambda: setattr(module, attr, original))

    def wrap_instance(self, obj: object, attr: str, name: str) -> None:
        """Wrap ``obj.attr`` for this instance only (an instance attribute)."""
        if attr in vars(obj):
            raise ValueError(f"{attr!r} is already an instance attribute of {obj!r}")
        setattr(obj, attr, self._wrap(name, getattr(obj, attr)))
        self._undo.append(lambda: delattr(obj, attr))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            self._undo.pop()()


def self_times(spans: List[Span]) -> List[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


@dataclass
class Totals:
    """Aggregate of every span sharing one name."""

    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    value: float = 0.0


def aggregate(spans: List[Span], ops: Optional[Iterable[int]] = None) -> Dict[str, Totals]:
    """Per-name call count, self time, inclusive time and summed value.

    ``ops`` restricts the aggregate to spans opened during those op ids.
    Recursive calls of one name would double-count ``total_ns``; the
    wrapped callables here do not recurse.
    """
    keep = None if ops is None else set(ops)
    own = self_times(spans)
    totals: Dict[str, Totals] = defaultdict(Totals)
    for s, self_ns in zip(spans, own):
        if keep is not None and s.op not in keep:
            continue
        t = totals[s.name]
        t.calls += 1
        t.self_ns += self_ns
        t.total_ns += s.end - s.start
        t.value += s.value
    return dict(totals)


def chrome_trace(spans: List[Span], metadata: Optional[dict] = None) -> dict:
    """Spans as Chrome trace-event JSON (complete ``"X"`` events, microseconds)."""
    origin = min((s.start for s in spans), default=0)
    events = [
        {
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "ts": (s.start - origin) / 1000.0,
            "dur": (s.end - s.start) / 1000.0,
            "pid": 1,
            "tid": 1,
            "args": {"op": s.op},
        }
        for s in spans
    ]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": metadata or {},
    }
