"""SparStencil reproduction.

A Python reproduction of *SparStencil: Retargeting Sparse Tensor Cores to
Scientific Stencil Computations via Structured Sparsity Transformation*
(SC'25).  The package contains:

* :mod:`repro.stencils` — stencil patterns, grids, boundary conditions
  (``dirichlet`` / ``periodic`` / ``reflect`` / ``neumann(flux=...)``),
  golden references and the benchmark catalog;
* :mod:`repro.tcu` — a functional + cost model of an A100-class GPU with
  dense and 2:4-sparse Tensor Cores;
* :mod:`repro.core` — the paper's contribution: Adaptive Layout Morphing,
  Structured Sparsity Conversion and Automatic Kernel Generation;
* :mod:`repro.baselines` — cuDNN / AMOS / Brick / DRStencil / TCStencil /
  ConvStencil comparators on the same simulated device;
* :mod:`repro.analysis` — metrics, sparsity/utilisation/overhead analysis and
  the per-figure experiment support;
* :mod:`repro.service` — the serving layer: an LRU compilation cache keyed by
  canonical compile fingerprints, plus the batched solve engine that
  compiles each distinct plan once and sweeps every request;
* :mod:`repro.server` — the online layer: a bounded request queue with
  backpressure and deadlines, a fingerprint-coalescing micro-batcher, a
  device-pool scheduler and the synchronous :class:`StencilServer` facade;
* :mod:`repro.session` — the unified front door: a :class:`StencilSession`
  that takes a typed :class:`Problem` plus a :class:`SolvePolicy`
  (``auto | single | sharded | served | baseline:<name>``) and returns a
  uniform :class:`Solution` with provenance of which engine actually ran;
* :mod:`repro.programs` — multi-stage stencil programs: a
  :class:`StencilProgram` DAG of named stages compiled stage-by-stage
  through the cache into one program fingerprint, executed with one
  boundary fill per stage and cross-stage fused halo exchanges when
  sharded (``Problem(program=...)`` routes here);
* :mod:`repro.lint` — two-tier static analysis: Tier-1 domain pre-flight
  diagnostics (``session.check(problem)``, ``program.lint()``, the opt-in
  :class:`StencilServer` admission gate) and a Tier-2 AST linter enforcing
  the repo's own invariants (``python -m repro.lint src/``), both speaking
  one :class:`Diagnostic` vocabulary of ``SPxxx`` codes;
* :mod:`repro.obs` — observability: a structured :class:`Tracer` whose spans
  follow a request end to end (queue wait, coalescing, routing, compiles,
  per-round sweeps and halo exchanges), a process-wide
  :class:`MetricsRegistry` unifying server/cache/device metrics, and JSONL /
  Chrome trace-event exporters (load the latter in Perfetto).

Quickstart
----------
>>> from repro import Problem, StencilPattern, StencilSession, make_grid
>>> heat = StencilPattern.star(2, 1, weights=[0.6, 0.1, 0.1, 0.1, 0.1])
>>> grid = make_grid((64, 64), kind="gaussian")
>>> session = StencilSession()
>>> solution = session.solve(Problem(heat, grid, iterations=4))
>>> solution.output.shape
(64, 64)
>>> solution.provenance.executor
'single'

Repeated solves hit the session's compilation cache — a warm hit skips
layout morphing, sparsity conversion and the layout search entirely:

>>> again = session.solve(Problem(heat, grid, iterations=4))   # cache hit
>>> session.cache.stats.hits, session.cache.stats.misses
(1, 1)

``session.solve_batch(problems)`` compiles each distinct plan of a batch
once, and ``session.run(compiled, grid, iterations)`` executes a plan that
is already compiled.
"""

from repro.stencils import (
    StencilPattern,
    StencilKind,
    BoundaryCondition,
    BOUNDARY_CONDITIONS,
    apply_boundary,
    boundary_flux,
    boundary_kind,
    neumann,
    normalize_boundary,
    Grid,
    GridPartition,
    make_grid,
    apply_stencil_reference,
    run_stencil_iterations,
    table2_benchmarks,
    get_benchmark,
    full_catalog,
    catalog_by_domain,
)
from repro.tcu import (
    DataType,
    FragmentShape,
    GPUSpec,
    MultiDeviceSpec,
    A100_SPEC,
    SPARSE_FRAGMENTS,
    DENSE_FRAGMENTS,
    multi_a100,
)
from repro.core import (
    MorphConfig,
    morph_stencil,
    convert_to_24,
    search_layout,
    search_layout_many,
    generate_kernel,
    render_cuda_source,
    compile_stencil,
    StencilBackend,
    register_backend,
    get_backend,
    resolve_backend,
    registered_backends,
    available_backends,
)
from repro.service import (
    CompileCache,
    CompileRequest,
    BatchReport,
)
from repro.server import (
    StencilServer,
    ServerConfig,
    ServerResult,
    QueueFullError,
    DeadlineExceededError,
    LintRejectedError,
    ServerClosedError,
)
from repro.lint import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    check_problem,
    lint_program,
    rule_table,
)
from repro.engine import (
    SweepExecutor,
    SingleDeviceExecutor,
    ShardedExecutor,
    ShardedRunResult,
)
from repro.baselines import get_baseline, available_baselines, all_methods
from repro.analysis import (
    cache_amortization,
    compare_methods,
    program_fusion_summary,
    sharded_scaling,
)
from repro.programs import (
    STATE,
    ProgramPlan,
    ProgramRunner,
    ProgramStage,
    ShardedProgramRunner,
    StencilProgram,
    compile_program,
    model_program,
    run_program_reference,
)
from repro.session import (
    Problem,
    SolvePolicy,
    Provenance,
    Solution,
    ExecutorRegistry,
    SessionConfig,
    StencilSession,
    default_session,
)
from repro.obs import (
    Span,
    Tracer,
    NULL_TRACER,
    current_span,
    MetricsRegistry,
    global_registry,
    reset_global_registry,
)

__version__ = "2.0.0"

__all__ = [
    "StencilPattern",
    "StencilKind",
    "BoundaryCondition",
    "BOUNDARY_CONDITIONS",
    "apply_boundary",
    "boundary_flux",
    "boundary_kind",
    "neumann",
    "normalize_boundary",
    "Grid",
    "GridPartition",
    "make_grid",
    "apply_stencil_reference",
    "run_stencil_iterations",
    "table2_benchmarks",
    "get_benchmark",
    "full_catalog",
    "catalog_by_domain",
    "DataType",
    "FragmentShape",
    "GPUSpec",
    "MultiDeviceSpec",
    "A100_SPEC",
    "multi_a100",
    "SPARSE_FRAGMENTS",
    "DENSE_FRAGMENTS",
    "MorphConfig",
    "morph_stencil",
    "convert_to_24",
    "search_layout",
    "generate_kernel",
    "render_cuda_source",
    "compile_stencil",
    "search_layout_many",
    "StencilBackend",
    "register_backend",
    "get_backend",
    "resolve_backend",
    "registered_backends",
    "available_backends",
    "CompileCache",
    "CompileRequest",
    "BatchReport",
    "StencilServer",
    "ServerConfig",
    "ServerResult",
    "QueueFullError",
    "DeadlineExceededError",
    "LintRejectedError",
    "ServerClosedError",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "check_problem",
    "lint_program",
    "rule_table",
    "SweepExecutor",
    "SingleDeviceExecutor",
    "ShardedExecutor",
    "ShardedRunResult",
    "get_baseline",
    "available_baselines",
    "all_methods",
    "cache_amortization",
    "compare_methods",
    "program_fusion_summary",
    "sharded_scaling",
    "STATE",
    "ProgramStage",
    "StencilProgram",
    "ProgramPlan",
    "ProgramRunner",
    "ShardedProgramRunner",
    "compile_program",
    "model_program",
    "run_program_reference",
    "Problem",
    "SolvePolicy",
    "Provenance",
    "Solution",
    "ExecutorRegistry",
    "SessionConfig",
    "StencilSession",
    "default_session",
    "Span",
    "Tracer",
    "NULL_TRACER",
    "current_span",
    "MetricsRegistry",
    "global_registry",
    "reset_global_registry",
    "__version__",
]
