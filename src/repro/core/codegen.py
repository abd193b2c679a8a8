"""Automatic Kernel Generation (§3.3): kernel plans, backends, CUDA-like source.

A :class:`KernelPlan` bundles everything the simulated device needs to run a
compiled stencil sweep — the converted kernel operand and its sparse
metadata, the lookup tables, the fragment/precision choice, the memory-traffic
estimate and the launch geometry — plus a rendered CUDA-C-like source string
mirroring the three-stage double-buffered pipeline the paper's generator
emits (async LUT-driven loads → sparse MMA with metadata → write-back).

The rendered source is illustrative output of the code generator (there is no
CUDA toolchain in this environment); the *plan* is what actually executes via
:mod:`repro.core.pipeline` on one of the registered **backends**.

Backends (the ctree-style frontend/backend split)
-------------------------------------------------
One kernel frontend — morphing, conversion, LUTs, the perf model — feeds
pluggable host execution backends, mirroring how the stencil_code lineage
hangs C/OpenMP/OpenCL transformers off a single kernel frontend:

* ``"tcu-sim"`` (the default) — the simulated sparse/dense Tensor-Core
  pipeline: per sweep, gather ``B'`` through the LUTs, run the fragment MMA
  on the functional device model, assemble the interior.  Slower on the
  host than ``numpy`` because it carries the device data path: a sparse
  sweep rounds the grid to device precision, gathers the two ``B'`` rows
  of every retained ``A''`` value through one per-plan row map, and
  contracts them in float32 (:mod:`repro.engine.base`).  It *is* the
  paper's pipeline, and every golden fixture freezes its numerics.
* ``"numpy"`` — a vectorised fast path: the effective (fused) kernel is
  applied directly as one shifted-view accumulation per tap, in float64.
  Elementwise and shape-independent, so sharded runs stay bit-identical to
  single-device; per-sweep device timing/utilisation are billed from the
  plan's roofline estimate, so modelled metrics stay comparable across
  backends.

Further backends plug in through :func:`register_backend`; one whose
dependency does not import reports itself unavailable instead of failing.

Every backend executes the *same* :class:`KernelPlan` (the compile pipeline
is backend-independent); what changes is how a sweep is carried out on the
host.  The backend name joins the compile fingerprint
(:mod:`repro.service.fingerprint`), so caches can never serve a plan across
backends, and it is recorded in :class:`repro.session.Provenance`.

Tolerance contract: ``tcu-sim`` carries the simulated device's precision
(fp16/bf16/tf32 operand rounding with fp32 accumulation); ``numpy``
computes in float64.  Outputs of the two backends therefore agree within
the *device* tolerance of the dtype (the ``ref_tol`` the golden suite
already uses against the float64 reference — e.g. ~2e-2 absolute for fp16
Table-2 workloads), and are bit-identical only where the math permits
(backends never reorder each other's summation).
"""

from __future__ import annotations

import abc
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.conversion import ConversionResult, convert_to_24
from repro.core.lookup_table import LookupTable, build_lookup_table
from repro.core.metadata import SparseMetadata, build_metadata
from repro.core.morphing import MorphConfig, morph_kernel_matrix
from repro.core.perf_model import PerfEstimate, estimate_layout
from repro.core.staircase import block_structure_from_morph
from repro.stencils.pattern import StencilPattern
from repro.tcu.counters import derive_utilization
from repro.tcu.executor import LaunchResult
from repro.tcu.spec import A100_SPEC, DataType, FragmentShape, GPUSpec, SPARSE_FRAGMENTS
from repro.util.validation import ValidationError, require, require_in

__all__ = [
    "KernelPlan",
    "generate_kernel",
    "render_cuda_source",
    "StencilBackend",
    "TcuSimBackend",
    "NumpyBackend",
    "DEFAULT_BACKEND",
    "BACKEND_ENV_VAR",
    "register_backend",
    "get_backend",
    "resolve_backend",
    "registered_backends",
    "available_backends",
]

#: Per-thread register budgets of the generated kernels.  The sparse kernel
#: is register-lean (the compressed operand and metadata halve the A-fragment
#: footprint); the dense-TCU variant (ConvStencil-style execution) carries
#: roughly the register budget reported for hand-written dense-TCU stencil
#: kernels.  Recorded on the plan so executors carry no engine-specific
#: magic numbers.
SPARSE_KERNEL_REGISTERS = 32
DENSE_KERNEL_REGISTERS = 52


@dataclass(frozen=True)
class KernelPlan:
    """A fully lowered stencil kernel, ready for the simulated device."""

    pattern: StencilPattern
    grid_shape: Tuple[int, ...]
    config: MorphConfig
    fragment: FragmentShape
    dtype: DataType
    engine: str
    a_prime: np.ndarray
    a_operand: np.ndarray
    conversion: Optional[ConversionResult]
    metadata: Optional[SparseMetadata]
    lut: LookupTable
    estimate: PerfEstimate
    threads_per_block: int
    blocks: int
    registers_per_thread: int = SPARSE_KERNEL_REGISTERS
    cuda_source: str = ""

    def __getstate__(self) -> dict:
        # private attributes are per-process memos (the tcu-sim sweep's, see
        # repro.engine.base) rebuilt on first use: a pickled or persisted
        # plan carries its fields only
        return {name: value for name, value in self.__dict__.items()
                if not name.startswith("_")}

    @property
    def m_prime(self) -> int:
        return int(self.a_operand.shape[0])

    @property
    def k_operand(self) -> int:
        """Reduction depth of the operand actually issued to the MMA engine."""
        return int(self.a_operand.shape[1])

    @property
    def n_prime(self) -> int:
        return self.lut.n_prime

    def summary(self) -> dict:
        """Human-readable plan summary (used by examples and reports)."""
        return {
            "pattern": self.pattern.name,
            "grid": self.grid_shape,
            "engine": self.engine,
            "fragment": self.fragment.label,
            "dtype": self.dtype.value,
            "r1": self.config.r1,
            "r2": self.config.r2,
            "m_prime": self.m_prime,
            "k_prime": int(self.a_prime.shape[1]),
            "k_operand": self.k_operand,
            "n_prime": self.n_prime,
            "n_mma_per_sweep": self.estimate.n_mma,
            "sparsity": self.estimate.sparsity,
            "compute_density": self.estimate.compute_density,
            "modeled_sweep_seconds": self.estimate.t_total,
            "bound": self.estimate.bound,
        }


def _launch_geometry(plan_blocks_hint: Optional[Tuple[int, ...]],
                     n_prime: int, spec: GPUSpec) -> Tuple[int, int]:
    """Derive (threads_per_block, blocks) from a Table-2 block hint or defaults."""
    if plan_blocks_hint:
        threads = int(np.prod(plan_blocks_hint))
    else:
        threads = 256
    threads = max(32, min(1024, threads))
    blocks = max(1, min(spec.sm_count * 32, -(-n_prime // max(1, threads // 32))))
    return threads, blocks


def generate_kernel(
    pattern: StencilPattern,
    grid_shape: Tuple[int, ...],
    config: MorphConfig,
    *,
    fragment: FragmentShape = SPARSE_FRAGMENTS[0],
    dtype: DataType = DataType.FP16,
    spec: GPUSpec = A100_SPEC,
    engine: str = "sparse_mma",
    conversion_method: str = "auto",
    block_hint: Optional[Tuple[int, ...]] = None,
    render_source: bool = True,
    prebuilt_conversion: Optional[ConversionResult] = None,
    prebuilt_metadata: Optional[SparseMetadata] = None,
    prebuilt_lut: Optional[LookupTable] = None,
) -> KernelPlan:
    """Lower one (pattern, grid, layout) triple into a :class:`KernelPlan`.

    The ``prebuilt_*`` arguments let callers (notably
    :func:`repro.core.pipeline.compile_stencil`, which times each
    preprocessing stage separately for the Figure-8 overhead split) supply
    already-constructed pieces instead of rebuilding them here.
    """
    require_in(engine, ("sparse_mma", "dense_mma"), "engine")
    dtype = DataType(dtype)
    grid_shape = tuple(int(s) for s in grid_shape)

    a_prime = morph_kernel_matrix(pattern, config)

    conversion: Optional[ConversionResult] = None
    metadata: Optional[SparseMetadata] = None
    if engine == "sparse_mma":
        if prebuilt_conversion is not None:
            conversion = prebuilt_conversion
        else:
            structure = block_structure_from_morph(pattern, config)
            conversion = convert_to_24(a_prime, structure=structure,
                                       method=conversion_method)
        a_operand = conversion.a_converted
        metadata = prebuilt_metadata if prebuilt_metadata is not None \
            else build_metadata(a_operand)
    else:
        a_operand = a_prime

    lut = prebuilt_lut if prebuilt_lut is not None \
        else build_lookup_table(pattern, grid_shape, config)
    estimate = estimate_layout(
        pattern, grid_shape, config,
        fragment=fragment, dtype=dtype, spec=spec, engine=engine,
        conversion_method=conversion_method,
    )
    threads, blocks = _launch_geometry(block_hint, lut.n_prime, spec)

    plan = KernelPlan(
        pattern=pattern,
        grid_shape=grid_shape,
        config=config,
        fragment=fragment,
        dtype=dtype,
        engine=engine,
        a_prime=a_prime,
        a_operand=a_operand,
        conversion=conversion,
        metadata=metadata,
        lut=lut,
        estimate=estimate,
        threads_per_block=threads,
        blocks=blocks,
        registers_per_thread=(SPARSE_KERNEL_REGISTERS if engine == "sparse_mma"
                              else DENSE_KERNEL_REGISTERS),
        cuda_source="",
    )
    if render_source:
        object.__setattr__(plan, "cuda_source", render_cuda_source(plan))
    return plan


# --------------------------------------------------------------------------- #
# CUDA-like source rendering
# --------------------------------------------------------------------------- #
_KERNEL_TEMPLATE = """\
// Auto-generated by SparStencil (reproduction) — do not edit.
// pattern: {pattern} ({points} taps, {ndim}D, k={k})
// layout:  r1={r1}, r2={r2}  ->  A''[{m_prime} x {k_operand}]  B'[{k_operand} x {n_prime}]
// engine:  {engine}  fragment {fragment}  dtype {dtype}
#include <cuda_fp16.h>
#include <mma.h>

#define M_PRIME   {m_prime}
#define K_OPERAND {k_operand}
#define N_PRIME   {n_prime}
#define FRAG_M    {frag_m}
#define FRAG_K    {frag_k}
#define FRAG_N    {frag_n}
#define TILE_COLS {tile_cols}

// Host-precomputed lookup tables (§3.3): one flat base offset per tile column
// and one patch-relative offset per K element — no div/mod on the device.
__constant__ int lut_patch_offset[K_OPERAND];

extern "C" __global__ void sparstencil_{safe_name}(
    const {ctype}* __restrict__ input,       // padded input grid
    {ctype}* __restrict__ output,            // output grid (valid region)
    const {ctype}* __restrict__ a_values,    // compressed A'' values (K/2)
    const uint32_t* __restrict__ a_metadata, // 2-bit sparse indices
    const int* __restrict__ lut_column_base) // per-tile base offsets
{{
    extern __shared__ {ctype} smem[];
    {ctype}* buf[2] = {{ smem, smem + K_OPERAND * TILE_COLS }};

    const int tile0 = blockIdx.x * TILE_COLS;
    int stage = 0;

    // ---- stage 1: async LUT-driven prefetch of the first tile batch --------
    #pragma unroll
    for (int c = threadIdx.x; c < TILE_COLS; c += blockDim.x) {{
        const int base = lut_column_base[tile0 + c];
        for (int e = 0; e < K_OPERAND; ++e)
            __pipeline_memcpy_async(&buf[stage][e * TILE_COLS + c],
                                    &input[base + lut_patch_offset[e]],
                                    sizeof({ctype}));
    }}
    __pipeline_commit();

    for (int col = tile0; col < min(tile0 + TILE_COLS, N_PRIME); col += FRAG_N) {{
        __pipeline_wait_prior(0);
        __syncthreads();

        // ---- stage 2: sparse MMA over the K fragments -----------------------
        float acc[FRAG_M * FRAG_N / 32] = {{0.f}};
        #pragma unroll
        for (int kk = 0; kk < K_OPERAND; kk += FRAG_K) {{
            asm volatile(
                "{mma_instruction}\\n"
                : "+f"(acc[0]), "+f"(acc[1]), "+f"(acc[2]), "+f"(acc[3])
                : "r"(__cvta_generic_to_shared(&buf[stage][kk * TILE_COLS])),
                  "l"(a_values), "r"(a_metadata[kk / FRAG_K]));
        }}

        // ---- stage 3: write back while the next batch streams in ------------
        stage ^= 1;
        #pragma unroll
        for (int row = threadIdx.x / 32; row < M_PRIME; row += blockDim.x / 32)
            output[/* tile-major store, assembled on the host side */
                   (size_t)col * M_PRIME + row] = ({ctype})acc[row % 4];
    }}
}}
"""


def render_cuda_source(plan: KernelPlan) -> str:
    """Render the CUDA-C-like kernel source for a plan."""
    if plan.engine == "sparse_mma":
        mma = (f"mma.sp.sync.aligned.m{plan.fragment.m}n{plan.fragment.n}"
               f"k{plan.fragment.k}.row.col.f32.f16.f16.f32")
    else:
        mma = (f"mma.sync.aligned.m{plan.fragment.m}n{plan.fragment.n}"
               f"k{plan.fragment.k}.row.col.f32.f16.f16.f32")
    ctype = {"fp16": "__half", "bf16": "__nv_bfloat16",
             "tf32": "float", "fp64": "double"}[plan.dtype.value]
    safe_name = plan.pattern.name.replace("-", "_").replace("/", "_")
    return _KERNEL_TEMPLATE.format(
        pattern=plan.pattern.name,
        points=plan.pattern.points,
        ndim=plan.pattern.ndim,
        k=plan.pattern.diameter,
        r1=plan.config.r1,
        r2=plan.config.r2,
        m_prime=plan.m_prime,
        k_operand=plan.k_operand,
        n_prime=plan.n_prime,
        engine=plan.engine,
        fragment=plan.fragment.label,
        dtype=plan.dtype.value,
        frag_m=plan.fragment.m,
        frag_k=plan.fragment.k,
        frag_n=plan.fragment.n,
        tile_cols=max(plan.fragment.n, 32),
        ctype=ctype,
        safe_name=safe_name,
        mma_instruction=mma,
    )


# --------------------------------------------------------------------------- #
# Backend registry
# --------------------------------------------------------------------------- #
#: The backend compile options resolve to when neither the caller nor the
#: environment picks one.
DEFAULT_BACKEND = "tcu-sim"

#: Environment override for the default backend (the CI backend matrix runs
#: the test suite once per registered backend through this variable).
BACKEND_ENV_VAR = "REPRO_BACKEND"


class StencilBackend(abc.ABC):
    """One way to execute a compiled plan's sweeps on the host.

    The compile pipeline is backend-independent: every backend receives the
    same fully lowered :class:`KernelPlan` (via the engine layer's
    ``SweepContext``) and must preserve the functional sweep contract —
    ``current[interior]`` advances by one application of the plan's
    (possibly fused) pattern, the halo ring is left untouched (boundary
    handling belongs to the executor) — while returning a
    :class:`~repro.tcu.executor.LaunchResult` carrying the sweep's modelled
    device timing and utilisation.
    """

    #: Registry key; also what ``CompileOptions.backend`` stores and the
    #: compile fingerprint hashes.
    name: str = "backend"
    description: str = ""

    def is_available(self) -> bool:
        """Whether this backend can run in the current environment.

        A backend gated on an optional dependency reports ``False`` instead
        of failing at import time; resolving an unavailable backend raises a
        :class:`~repro.util.validation.ValidationError`.
        """
        return True

    @abc.abstractmethod
    def make_sweep(self, context: "Any") -> Callable[[np.ndarray], LaunchResult]:
        """Build the per-sweep callable for one prepared plan.

        ``context`` is a :class:`repro.engine.base.SweepContext` (duck-typed
        here to keep the core → engine dependency one-way).  The returned
        callable mutates the grid array in place and returns the sweep's
        :class:`LaunchResult`.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def _modelled_launch(context: "Any") -> LaunchResult:
    """A :class:`LaunchResult` billing the plan's roofline estimate.

    Host-side backends such as ``numpy`` skip the functional device
    simulation, so they have no measured fragment path to derive timing
    from; they bill the same per-sweep model
    (:class:`~repro.core.perf_model.PerfEstimate`) the layout search and the
    device-pool scheduler already trust, keeping modelled metrics — and the
    scheduler's single-vs-sharded estimates — comparable across backends.
    ``output`` is ``None``: the sweep assembles the interior in place.
    """
    plan = context.plan
    estimate: PerfEstimate = plan.estimate
    elapsed = max(estimate.t_total, 1e-30)
    utilization = derive_utilization(
        compute_seconds=estimate.t_compute,
        memory_seconds=estimate.t_memory,
        elapsed_seconds=elapsed,
        traffic=estimate.traffic,
        spec=context.spec,
        threads_per_block=plan.threads_per_block,
        blocks=plan.blocks,
        registers_per_thread=plan.registers_per_thread,
    )
    return LaunchResult(
        name=context.launch_name,
        output=None,
        elapsed_seconds=elapsed,
        compute_seconds=estimate.t_compute,
        memory_seconds=estimate.t_memory,
        fragment_ops=estimate.n_mma,
        utilization=utilization,
    )


class TcuSimBackend(StencilBackend):
    """The simulated-Tensor-Core pipeline (the paper's execution path)."""

    name = "tcu-sim"
    description = ("gather B' through the LUTs, sparse/dense fragment MMA on "
                   "the functional device model, assemble the interior")

    def make_sweep(self, context):
        # Imported lazily: repro.engine.base imports this module (via
        # core.pipeline), so a module-level import would be circular.
        from repro.engine.base import assemble_step, gather_step, mma_step

        def sweep(current: np.ndarray) -> LaunchResult:
            b_operand = gather_step(context, current)
            result = mma_step(context, b_operand)
            assemble_step(context, result, current)
            return result

        return sweep


class NumpyBackend(StencilBackend):
    """Vectorised float64 fast path: the raw-speed lever.

    The sweep accumulates one shifted view of the grid per tap, in the
    pattern's fixed tap order.  Every operation is elementwise, so each
    output cell's value depends only on its stencil neighbourhood and the
    tap order — **never on the array's shape**.  That shape-independence is
    load-bearing: the sharded engine runs the same plan on shard-shaped
    subgrids, and the repo-wide invariant that sharded output is
    bit-identical to single-device holds only because the sweep computes
    the same bits on a (50, 96) shard as on the (96, 96) grid.  A
    ``sliding_window_view`` + ``tensordot`` contraction would be faster for
    dense (box-like) kernels, but it lowers to a BLAS matmul whose
    reduction order varies with operand shape, breaking that invariant at
    the ULP level — so the tap loop is the only path.
    """

    name = "numpy"
    description = ("direct vectorised sweep: one shifted-view accumulation "
                   "per tap, elementwise and shape-independent")

    def make_sweep(self, context):
        compiled = context.compiled
        pattern = compiled.pattern  # the effective (fused) pattern
        shape = compiled.grid_shape
        radius = pattern.radius
        interior = context.interior
        template = _modelled_launch(context)

        taps = [
            (float(weight),
             tuple(slice(radius + off, size - radius + off)
                   for off, size in zip(offsets, shape)))
            for offsets, weight in zip(pattern.offsets, pattern.weights)
        ]

        def sweep(current: np.ndarray) -> LaunchResult:
            first_weight, first_view = taps[0]
            acc = first_weight * current[first_view]
            for weight, view in taps[1:]:
                acc += weight * current[view]
            current[interior] = acc
            return template

        return sweep


_BACKENDS: Dict[str, StencilBackend] = {}
_BACKENDS_LOCK = threading.Lock()


def register_backend(backend: StencilBackend, *, replace: bool = False) -> None:
    """Add a backend to the registry under ``backend.name``."""
    require(isinstance(backend, StencilBackend),
            f"backend must be a StencilBackend, got {type(backend).__name__}")
    require(isinstance(backend.name, str) and backend.name != "",
            "backend.name must be a non-empty string")
    with _BACKENDS_LOCK:
        if not replace and backend.name in _BACKENDS:
            raise ValidationError(
                f"backend {backend.name!r} already registered "
                f"(pass replace=True to override)")
        _BACKENDS[backend.name] = backend


def registered_backends() -> Tuple[str, ...]:
    """Every registered backend name, available or not."""
    with _BACKENDS_LOCK:
        return tuple(_BACKENDS)


def available_backends() -> Tuple[str, ...]:
    """Registered backends whose dependencies import in this environment."""
    with _BACKENDS_LOCK:
        backends = list(_BACKENDS.values())
    return tuple(b.name for b in backends if b.is_available())


def get_backend(name: str) -> StencilBackend:
    """Look up one registered, available backend by name."""
    with _BACKENDS_LOCK:
        backend = _BACKENDS.get(name)
    if backend is None:
        raise ValidationError(
            f"unknown backend {name!r}; registered: "
            f"{sorted(registered_backends())}")
    if not backend.is_available():
        raise ValidationError(
            f"backend {name!r} is registered but unavailable in this "
            f"environment (missing optional dependency?); available: "
            f"{sorted(available_backends())}")
    return backend


def resolve_backend(name: Optional[str] = None) -> str:
    """Canonicalise a backend request to a registered, available name.

    ``None`` falls back to the ``REPRO_BACKEND`` environment override, then
    to :data:`DEFAULT_BACKEND` — which is how the CI backend matrix pivots a
    whole test run onto one backend without touching call sites.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    return get_backend(name).name


register_backend(TcuSimBackend())
register_backend(NumpyBackend())
