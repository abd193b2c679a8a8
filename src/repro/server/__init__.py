"""Online serving subsystem: queue, coalesce, schedule, execute, observe.

PRs 1–2 built the offline halves of a serving deployment — a
fingerprint-keyed :class:`~repro.service.cache.CompileCache` with the
batched solve engine, and an execution-engine layer with single-device and
sharded executors.  This package is the *online* layer that accepts a stream of
requests and drives those halves as fast as the (simulated) hardware allows:

* :mod:`repro.server.queue` — bounded request queue with synchronous
  admission control, per-request deadlines and typed backpressure
  (:class:`QueueFullError`, :class:`DeadlineExceededError`,
  :class:`ServerClosedError` — a request is served or rejected, never
  silently dropped);
* :mod:`repro.server.coalesce` — micro-batcher grouping queued requests by
  compile fingerprint inside a time/size window, so each distinct plan
  compiles once per dispatch and amortises across every request that shares
  it;
* :mod:`repro.server.scheduler` — device-pool scheduler routing each
  micro-batch to the :class:`~repro.engine.single.SingleDeviceExecutor` or
  the :class:`~repro.engine.sharded.ShardedExecutor` with the existing
  perf/scaling model, leasing devices through the
  :class:`~repro.tcu.occupancy.OccupancyLedger` so occupancy can never
  exceed the pool;
* :mod:`repro.server.telemetry` — rolling p50/p95/p99 latency, queue depth,
  coalescing ratio, cache hit rate and per-device utilization, exported as
  one plain dict;
* :mod:`repro.server.facade` — the synchronous :class:`StencilServer`
  (``submit_problem`` / ``drain`` / ``shutdown``, context manager) exported
  from :mod:`repro`.
"""

from repro.server.queue import (
    DeadlineExceededError,
    LintRejectedError,
    QueuedRequest,
    QueueFullError,
    RequestQueue,
    ServerClosedError,
    ServerError,
)
from repro.server.coalesce import Coalescer, MicroBatch, coalesce
from repro.server.scheduler import DevicePoolScheduler, RoutingDecision
from repro.server.telemetry import RollingLatency, ServerTelemetry
from repro.server.facade import (
    ServerConfig,
    ServerResult,
    StencilServer,
    SubmitHandle,
)

__all__ = [
    "ServerError",
    "QueueFullError",
    "DeadlineExceededError",
    "LintRejectedError",
    "ServerClosedError",
    "QueuedRequest",
    "RequestQueue",
    "Coalescer",
    "MicroBatch",
    "coalesce",
    "DevicePoolScheduler",
    "RoutingDecision",
    "RollingLatency",
    "ServerTelemetry",
    "ServerConfig",
    "ServerResult",
    "SubmitHandle",
    "StencilServer",
]
