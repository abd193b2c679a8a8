"""Unified metrics: counters, rolling latency windows and a process-wide
registry every subsystem re-registers into.

Before this module existed the repo had five disjoint stats objects
(``ServerTelemetry``, ``CacheStats``, ``OccupancyLedger.snapshot``,
``ShardedRunResult`` timing fields, ``util/timing.py``); an operator had to
know which layer owned which number.  :class:`MetricsRegistry` gives them one
roof: counters created through the registry are exported by
:meth:`MetricsRegistry.snapshot`, and existing stats objects register a
zero-arg *provider* callback (held via weakref so a dead server or cache
prunes itself) whose dict is embedded in the same snapshot.

:class:`RollingLatency` is the canonical rolling-percentile window — the
serving telemetry and the occupancy ledger both build on it.  Percentiles use
linear interpolation between closest ranks, which fixes the 1–2 sample edge
cases the old nearest-rank rule got wrong (the median of ``[1, 3]`` is now
``2.0``, not ``1.0``) while agreeing with it on large windows.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional

from repro.util.validation import require, require_positive_int

__all__ = [
    "RollingLatency",
    "Counter",
    "MetricsRegistry",
    "global_registry",
    "reset_global_registry",
]


class RollingLatency:
    """Bounded rolling window of latency samples with on-demand percentiles."""

    def __init__(self, window: int = 2048) -> None:
        require_positive_int(window, "window")
        self._samples: Deque[float] = deque(maxlen=window)
        self._count = 0
        self._total = 0.0

    def record(self, seconds: float) -> None:
        require(seconds >= 0.0, "latency must be non-negative")
        self._samples.append(seconds)
        self._count += 1
        self._total += seconds

    def reset(self) -> None:
        """Drop the window *and* the lifetime counters.

        After a reset every statistic — count, means, percentiles, max —
        reads as if freshly constructed; ``as_dict`` returns all zeros until
        the next :meth:`record`.
        """
        self._samples.clear()
        self._count = 0
        self._total = 0.0

    def percentile(self, p: float) -> float:
        """Interpolated percentile over the current window (0 when empty).

        Linear interpolation between closest ranks: a single sample answers
        every percentile, two samples give their midpoint at p50, and large
        windows agree with the nearest-rank rule this replaced.
        """
        require(0.0 < p <= 100.0, "percentile must be in (0, 100]")
        samples = self._samples
        if not samples:
            return 0.0
        if len(samples) == 1:
            return samples[0]
        ordered = sorted(samples)
        position = (p / 100.0) * (len(ordered) - 1)
        lower = math.floor(position)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = position - lower
        return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction

    @property
    def count(self) -> int:
        """Lifetime sample count (including samples the window dropped)."""
        return self._count

    @property
    def mean(self) -> float:
        """Mean over the current *window*, consistent with the percentiles."""
        samples = self._samples
        return sum(samples) / len(samples) if samples else 0.0

    @property
    def lifetime_mean(self) -> float:
        """Mean over every sample ever recorded (windowless)."""
        return self._total / self._count if self._count else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Window-consistent export: ``mean``/``max``/percentiles all
        describe the same rolling window, so a long-lived server's mean is
        not dominated by ancient samples the window already dropped.
        ``count`` stays lifetime (it is the only field that *should* keep
        growing) and the lifetime mean is exported separately.
        """
        samples = self._samples
        return {
            "count": self._count,
            "window_size": len(samples),
            "mean_seconds": self.mean,
            "lifetime_mean_seconds": self.lifetime_mean,
            "p50_seconds": self.percentile(50.0),
            "p95_seconds": self.percentile(95.0),
            "p99_seconds": self.percentile(99.0),
            "max_seconds": max(samples) if samples else 0.0,
        }


class Counter:
    """Monotonically increasing counter."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        require(amount >= 0, "counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


#: A provider is a zero-arg callable returning a JSON-serialisable dict.
Provider = Callable[[], Dict[str, Any]]

#: The snapshot section holding the registry's own counters.
_COUNTERS_SECTION = "counters"


class MetricsRegistry:
    """Process-wide metric namespace: counters plus provider callbacks.

    :meth:`counter` gets or creates a named :class:`Counter`.
    :meth:`register_provider` attaches an existing stats object's zero-arg
    export (``ServerTelemetry.snapshot``, ``OccupancyLedger.snapshot``,
    ``CompileCache.metrics_snapshot``) under a section name; bound methods
    are held through :class:`weakref.WeakMethod`, so garbage-collected
    owners silently drop out of the snapshot instead of keeping a dead
    server alive.  One :meth:`snapshot` returns the whole system.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._providers: Dict[str, Any] = {}  # name -> WeakMethod | callable

    # -- counters -----------------------------------------------------------

    def counter(self, name: str, description: str = "") -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name, description)
            return self._counters[name]

    # -- providers ----------------------------------------------------------

    @staticmethod
    def _resolve(entry: Any) -> Optional[Provider]:
        if isinstance(entry, weakref.WeakMethod):
            return entry()
        return entry

    def register_provider(self, name: str, provider: Provider,
                          *, weak: bool = True) -> str:
        """Attach a snapshot section; returns the actual section name.

        A live name collision gets a numeric suffix (``cache``, ``cache-2``,
        …) so several instances of the same subsystem can coexist; dead
        (garbage-collected) entries are reclaimed in place.  ``"counters"``
        is the registry's own section, so a provider never takes it.
        """
        entry: Any = provider
        if weak:
            try:
                entry = weakref.WeakMethod(provider)
            except TypeError:
                entry = provider  # plain function/lambda: hold strongly
        with self._lock:
            self._prune_locked()
            actual = name
            suffix = 2
            while actual in self._providers or actual == _COUNTERS_SECTION:
                actual = f"{name}-{suffix}"
                suffix += 1
            self._providers[actual] = entry
            return actual

    def unregister_provider(self, name: str) -> None:
        with self._lock:
            self._providers.pop(name, None)

    def _prune_locked(self) -> None:
        dead = [name for name, entry in self._providers.items()
                if self._resolve(entry) is None]
        for name in dead:
            del self._providers[name]

    # -- export -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """One plain-dict export of every counter and provider section."""
        with self._lock:
            self._prune_locked()
            counters = dict(self._counters)
            providers = dict(self._providers)
        out: Dict[str, Any] = {
            _COUNTERS_SECTION: {name: c.value
                                for name, c in counters.items()},
        }
        for name, entry in providers.items():
            fn = self._resolve(entry)
            if fn is None:
                continue
            try:
                out[name] = fn()
            except Exception as exc:  # lint: allow-broad-except — a broken provider must not kill export
                out[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return out

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._providers.clear()


_GLOBAL_LOCK = threading.Lock()
_GLOBAL: Optional[MetricsRegistry] = None


def global_registry() -> MetricsRegistry:
    """The process-wide registry every subsystem auto-registers into."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            _GLOBAL = MetricsRegistry()
        return _GLOBAL


def reset_global_registry() -> MetricsRegistry:
    """Swap in a fresh global registry (tests); returns the new one."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        _GLOBAL = MetricsRegistry()
        return _GLOBAL
