"""Per-layer accounting for the traced run.

Spans come from the public :class:`repro.Tracer`: the benchmark opens its
own spans around the public calls it makes, and the program's existing spans
(``solve``, ``cache.lookup``, ``round``, ``halo_exchange``, ``sweep``,
``queue_wait``, ...) attach under them through the tracer's ambient context.
A layer's *self* time is its span's duration minus the part of that interval
its child spans cover; summed over a root span's tree, self times add up to
the root's duration exactly.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

#: Name of the benchmark's root span around one operation.
OP_SPAN = "op"


@dataclass
class LayerRow:
    count: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"count": self.count, "inclusive_s": self.inclusive_s,
                "self_s": self.self_s}


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float,
                   hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def _bounds(span: Any) -> Tuple[float, float]:
    return float(span.start_seconds), float(span.end_seconds)


def self_times(spans: Sequence[Any]) -> Dict[str, float]:
    """``span_id -> self seconds`` for every span."""
    children: Dict[str, List[Any]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    out = {}
    for span in spans:
        lo, hi = _bounds(span)
        kids = [_bounds(child) for child in children.get(span.span_id, ())]
        out[span.span_id] = (hi - lo) - covered_length(kids, lo, hi)
    return out


def layer_profile(spans: Sequence[Any]) -> Dict[str, LayerRow]:
    """Count, inclusive and self seconds per span name."""
    own = self_times(spans)
    rows: Dict[str, LayerRow] = defaultdict(LayerRow)
    for span in spans:
        lo, hi = _bounds(span)
        row = rows[span.name]
        row.count += 1
        row.inclusive_s += hi - lo
        row.self_s += own[span.span_id]
    return dict(rows)


def unaccounted(spans: Sequence[Any], root: str = OP_SPAN
                ) -> Tuple[float, float]:
    """``(unaccounted seconds, operation seconds)`` over the ``root`` spans:
    the part of each operation no layer span covers."""
    own = self_times(spans)
    roots = [span for span in spans if span.name == root]
    total = sum(_bounds(span)[1] - _bounds(span)[0] for span in roots)
    return sum(own[span.span_id] for span in roots), total


def self_seconds(profile: Dict[str, LayerRow], *names: str) -> float:
    return sum(profile[name].self_s for name in names if name in profile)


def span_count(profile: Dict[str, LayerRow], name: str) -> int:
    return profile[name].count if name in profile else 0


# ---------------------------------------------------------------------- #
# timing public calls the program does not span itself
# ---------------------------------------------------------------------- #
@contextmanager
def spans_around(owner: Any, attr: str, tracer: Any, name: str
                 ) -> Iterator[None]:
    """While active, every call of ``owner.attr`` opens a ``name`` span on
    ``tracer`` under the caller's ambient span.  The original is restored on
    exit."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class BusyClock:
    """Thread-safe sum of seconds spent inside wrapped calls (for calls made
    on pool threads, which carry no trace context)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds = 0.0
        self.calls = 0

    def add(self, seconds: float) -> None:
        with self._lock:
            self.seconds += seconds
            self.calls += 1


@contextmanager
def busy_around(targets: Sequence[Tuple[Any, str]], clock: BusyClock
                ) -> Iterator[None]:
    """While active, calls of each ``owner.attr`` add their wall time to
    ``clock``.  Every target is restored on exit."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]

    def wrap(original):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                clock.add(time.perf_counter() - t0)
        return wrapper

    for owner, attr, original in originals:
        setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
