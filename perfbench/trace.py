"""In-memory span tracing, recorded from the benchmark's side.

A :class:`Tracer` records one :class:`Span` per call into a layer: its
name, start and end (``time.perf_counter`` seconds), the span that was
open when it started (its parent, per thread), a trace id shared by
every span under one cell, function or request, and the phase
(``allocate`` or ``validate``) it ran under.  Spans stay in memory and
are written out once, by :meth:`Tracer.write`, when the run ends.

Wrappers are installed by replacing attributes: a function is replaced in
every ``repro`` module namespace that holds it, because several callers
bind a name at import time (``from ..cfg.reachdefs import chains_for``)
and replacing only the defining module would miss their calls.
:meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace", "phase")

    def __init__(
        self,
        name: str,
        start: float,
        parent: Optional["Span"] = None,
        trace: Optional[str] = None,
        phase: Optional[str] = None,
    ):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace = trace
        self.phase = phase

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by ``id(span)``: its duration minus
    the part of its interval that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    out: Dict[int, float] = {}
    for span in spans:
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(id(span), ())
            if min(e, span.end) > max(s, span.start)
        ]
        out[id(span)] = span.duration - _covered(clipped)
    return out


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to a plain call: the median over
    ``repeats`` of the per-call difference between a wrapped and a bare
    no-op, measured on a scratch tracer.  The traced run reports its
    spans times this as ``trace.overhead_s``."""

    def noop() -> None:
        return None

    traced = Tracer().wrap("noop", noop)
    differences = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            traced()
        differences.append((time.perf_counter() - started - bare) / calls)
    differences.sort()
    return max(0.0, differences[len(differences) // 2])


class Tracer:
    """Collects spans and counts for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self, name: str, trace: Optional[str] = None, phase: Optional[str] = None
    ) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            trace = trace or parent.trace
            phase = phase or parent.phase
        span = Span(name, time.perf_counter(), parent, trace, phase)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- wrappers --------------------------------------------------------------

    def wrap(
        self,
        name: str,
        func: Callable,
        phase: Optional[str] = None,
        name_of: Optional[Callable[..., str]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """A wrapper that records a span around each call of ``func``.

        ``name_of(*args, **kwargs)`` picks the span name per call;
        ``after(tracer, args, result)`` records counts from a result."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_name = name_of(*args, **kwargs) if name_of else name
            with tracer.span(span_name, phase=phase):
                result = func(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def patch_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, original: Callable, replacement: Callable) -> int:
        """Replace ``original`` in every loaded ``repro`` module that binds
        it; returns how many bindings were replaced."""
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch_attr(module, attr, replacement)
                    replaced += 1
        return replaced

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------

    def total(self, *names: str) -> float:
        return sum(s.duration for s in self.spans if s.name in names)

    def calls(self, name: str, phase: Optional[str] = None) -> int:
        return sum(
            1
            for s in self.spans
            if s.name == name and (phase is None or s.phase == phase)
        )

    def write(self, path: str, summary: Dict[str, Any]) -> None:
        """Write the per-name summary (calls, total and self seconds), the
        given metrics and every span to ``path`` as one JSON document."""
        selfs = self_times(self.spans)
        index = {id(span): i for i, span in enumerate(self.spans)}
        by_name: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = by_name.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += selfs[id(span)]
        document = {
            "summary": summary,
            "layers": dict(sorted(by_name.items())),
            "span_fields": ["name", "start", "end", "parent", "trace", "phase"],
            "spans": [
                [
                    s.name,
                    round(s.start, 7),
                    round(s.end, 7),
                    index.get(id(s.parent), -1) if s.parent is not None else -1,
                    s.trace,
                    s.phase,
                ]
                for s in self.spans
            ],
        }
        with open(path, "w") as handle:
            json.dump(document, handle)
