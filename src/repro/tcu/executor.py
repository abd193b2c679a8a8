"""Kernel-launch executor for the simulated device.

A :class:`KernelLaunch` is the lowest-level description of one device kernel:
its operands, the execution engine it targets (sparse Tensor Cores, dense
Tensor Cores, or the scalar FFMA pipeline), its memory traffic and its launch
geometry.  :func:`execute_launch` produces both the functional result and the
modelled timing/utilisation, which is everything the benchmark harness needs.

The SparStencil kernel generator (:mod:`repro.core.codegen`) and all the
baselines lower to this same interface, so every method is costed by one
model and verified by one functional path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.tcu.counters import UtilizationReport, derive_utilization
from repro.tcu.dense_mma import dense_mma
from repro.tcu.memory import MemoryTraffic, memory_time
from repro.tcu.sparse_mma import sparse_mma
from repro.tcu.spec import A100_SPEC, DataType, FragmentShape, GPUSpec
from repro.tcu.timing import compute_time, ffma_time, mma_count
from repro.util.validation import require, require_in

__all__ = ["KernelLaunch", "LaunchResult", "execute_launch", "price_launch"]


@dataclass
class KernelLaunch:
    """One simulated kernel invocation.

    Attributes
    ----------
    name: label used in reports.
    engine: ``"sparse_mma"``, ``"dense_mma"`` or ``"ffma"``.
    a, b: MMA operands (ignored for the FFMA engine).
    fragment: fragment shape for MMA engines.
    dtype: simulated precision.
    traffic: memory traffic of the launch.
    flops: scalar FLOP count (FFMA engine only).
    precomputed_result: functional output for the FFMA engine, produced by the
        baseline's own numpy implementation.
    threads_per_block / blocks: launch geometry, used for occupancy modelling.
    registers_per_thread: register pressure estimate for occupancy modelling.
    repeats: how many times this kernel runs back-to-back (time iterations);
        timing scales linearly while the functional result is computed once.
    """

    name: str
    engine: str
    a: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    fragment: Optional[FragmentShape] = None
    dtype: DataType = DataType.FP16
    traffic: MemoryTraffic = field(default_factory=MemoryTraffic)
    flops: float = 0.0
    precomputed_result: Optional[np.ndarray] = None
    threads_per_block: int = 256
    blocks: int = 1024
    registers_per_thread: int = 64
    repeats: int = 1

    def __post_init__(self) -> None:
        require_in(self.engine, ("sparse_mma", "dense_mma", "ffma"), "engine")
        self.dtype = DataType(self.dtype)
        if self.engine in ("sparse_mma", "dense_mma"):
            require(self.a is not None and self.b is not None,
                    f"engine {self.engine!r} requires A and B operands")
            require(self.fragment is not None,
                    f"engine {self.engine!r} requires a fragment shape")
        require(self.repeats >= 1, "repeats must be >= 1")


@dataclass(frozen=True)
class LaunchResult:
    """Functional result plus modelled timing of one :class:`KernelLaunch`."""

    name: str
    output: Optional[np.ndarray]
    elapsed_seconds: float
    compute_seconds: float
    memory_seconds: float
    fragment_ops: int
    utilization: UtilizationReport

    @property
    def bound(self) -> str:
        """Which roofline side dominates: ``"compute"`` or ``"memory"``."""
        return "compute" if self.compute_seconds >= self.memory_seconds else "memory"


def _run_engine(launch: KernelLaunch) -> tuple[Optional[np.ndarray], int]:
    """Run the functional side of the launch; return (output, fragment_ops)."""
    if launch.engine == "ffma":
        return launch.precomputed_result, 0
    require(launch.a is not None and launch.b is not None
            and launch.fragment is not None,
            f"{launch.engine} launch {launch.name!r} is missing its MMA "
            f"operands or fragment")
    if launch.engine == "sparse_mma":
        result = sparse_mma(launch.a, launch.b, launch.fragment, dtype=launch.dtype)
        return result.d, result.fragment_ops
    result = dense_mma(launch.a, launch.b, launch.fragment, dtype=launch.dtype)
    return result.d, result.fragment_ops


def execute_launch(launch: KernelLaunch, spec: GPUSpec = A100_SPEC) -> LaunchResult:
    """Execute one kernel launch on the simulated device.

    The functional result is computed once; modelled time is multiplied by
    ``launch.repeats`` (the benchmark iteration count), matching how the
    paper times ``T`` iterations of the same kernel.
    """
    output, fragment_ops = _run_engine(launch)
    return price_launch(launch, fragment_ops, spec, output=output)


def price_launch(launch: KernelLaunch, fragment_ops: int,
                 spec: GPUSpec = A100_SPEC, *,
                 output: Optional[np.ndarray] = None) -> LaunchResult:
    """The modelled timing and utilisation of ``launch`` issuing
    ``fragment_ops`` fragment operations per iteration.

    Reads no operand, so a caller that computes the functional result
    itself (the tcu-sim sweep) prices its launch through the same model.
    """
    if launch.engine == "ffma":
        per_iter_compute = ffma_time(launch.flops, spec, dtype=launch.dtype)
    else:
        require(launch.fragment is not None,
                f"launch {launch.name!r} needs a fragment to price "
                f"{launch.engine} compute")
        per_iter_compute = compute_time(fragment_ops, spec, launch.fragment,
                                        dtype=launch.dtype)
    per_iter_memory = memory_time(launch.traffic, spec)
    per_iter_elapsed = max(per_iter_compute, per_iter_memory)

    repeats = launch.repeats
    compute_seconds = per_iter_compute * repeats
    memory_seconds = per_iter_memory * repeats
    elapsed = per_iter_elapsed * repeats

    utilization = derive_utilization(
        compute_seconds=compute_seconds,
        memory_seconds=memory_seconds,
        elapsed_seconds=max(elapsed, 1e-30),
        traffic=launch.traffic.scaled(repeats),
        spec=spec,
        threads_per_block=launch.threads_per_block,
        blocks=launch.blocks,
        registers_per_thread=launch.registers_per_thread,
    )

    return LaunchResult(
        name=launch.name,
        output=output,
        elapsed_seconds=elapsed,
        compute_seconds=compute_seconds,
        memory_seconds=memory_seconds,
        fragment_ops=fragment_ops * repeats,
        utilization=utilization,
    )
