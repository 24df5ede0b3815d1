"""In-memory spans around qnnkit's public functions.

The benchmark installs these wrappers from its own files; nothing in
``src/`` knows it is being traced. A wrapper replaces a module global
(``qnnkit.model.forward_batch``) or a class attribute
(``StateVector.apply``), so calls made through that name, including
calls from inside the package, open a span. Each span records its name,
start, end and the id of the span that was open when it started. Counts
taken at the same boundary go into ``Tracer.counts``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    sys_s: float | None = None  # system CPU time inside the span, where asked for

    @property
    def duration(self) -> float:
        return self.end - self.start


def _sys_cpu() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_stime


class Tracer:
    """Span recorder plus the patches it has installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.paused = False
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside this block run unrecorded."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrap(self, owner, attr: str, name, on_return=None, sys_cpu: bool = False) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``name`` is the span name, or a function of the call's positional
        arguments returning it. ``on_return(tracer, args, result)`` runs
        after the call to record counts.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            span = Span(
                len(tracer.spans), span_name, tracer._open[-1] if tracer._open else None, 0.0, 0.0
            )
            tracer.spans.append(span)
            tracer._open.append(span.id)
            sys0 = _sys_cpu() if sys_cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if sys_cpu:
                    span.sys_s = _sys_cpu() - sys0
                tracer._open.pop()
            tracer.counts["calls:" + span_name] += 1
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as one JSON line: id, name, parent, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end}
                    )
                    + "\n"
                )


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(children[s.id], s.start, s.end) for s in spans}


def totals_by_name(spans: list[Span]) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """Per span name: total duration, total self time and total system CPU."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    sys_total: dict[str, float] = defaultdict(float)
    for s in spans:
        total[s.name] += s.duration
        self_total[s.name] += own[s.id]
        if s.sys_s is not None:
            sys_total[s.name] += s.sys_s
    return total, self_total, sys_total
