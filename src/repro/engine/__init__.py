"""Execution-engine layer: how compiled stencils actually run.

The compile pipeline (:mod:`repro.core.pipeline`) stops at a
:class:`~repro.core.pipeline.CompiledStencil`; this package owns everything
after that:

* :mod:`repro.engine.base` — the ``plan -> gather B' -> MMA -> assemble``
  step API and the :class:`SweepExecutor` protocol;
* :mod:`repro.engine.single` — :class:`SingleDeviceExecutor`, the original
  one-grid-one-device sweep loop (what ``execute_compiled`` wraps), now with
  cross-sweep utilization aggregation and leftover-sweep support for
  iteration counts not divisible by the temporal-fusion factor;
* :mod:`repro.engine.sharded` — :class:`ShardedExecutor`, domain-decomposed
  execution across N simulated devices with communication-avoiding deep
  halos (exchange once per ``halo_depth`` sweeps) and modelled compute/comm
  overlap — bit-identical to the single-device run at every depth.  Its
  round loop is the one sharded code path: the sharded program runner only
  feeds it a different round schedule.  One walk prices those schedules
  (:func:`model_round` / :func:`model_schedule`, and the program model) for
  the scheduler and analysis layers.
"""

from repro.engine.base import (
    SweepContext,
    SweepExecutor,
    assemble_step,
    gather_step,
    mma_step,
    prepare_sweep,
    run_sweep,
)
from repro.engine.single import SingleDeviceExecutor, leftover_plan
from repro.engine.sharded import (
    HaloRoundModel,
    ShardedExecutor,
    ShardedRunResult,
    model_round,
    model_schedule,
    window_plan_seconds,
)

__all__ = [
    "SweepContext",
    "SweepExecutor",
    "prepare_sweep",
    "gather_step",
    "mma_step",
    "assemble_step",
    "run_sweep",
    "SingleDeviceExecutor",
    "leftover_plan",
    "HaloRoundModel",
    "ShardedExecutor",
    "ShardedRunResult",
    "model_round",
    "model_schedule",
    "window_plan_seconds",
]
