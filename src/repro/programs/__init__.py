"""Multi-stage stencil programs: DAG compilation and execution.

A :class:`StencilProgram` names an ordered DAG of stencil stages executed
once per program step — LBM collide+stream, RK time-steppers, operator
splits — compiled stage by stage through the
:class:`~repro.service.cache.CompileCache` into a :class:`ProgramPlan`
(one program fingerprint folding every stage's compile fingerprint plus
the wiring), and executed by :class:`ProgramRunner` (single device) or
:class:`ShardedProgramRunner` (communication-avoiding multi-device, one
halo exchange per fused stage group), which runs the fused groups through
the stencil engine's sharded round loop.  The session layer routes
``Problem(program=..., grid=..., iterations=...)`` here; see the README's
"Stencil programs" section.
"""

from repro.programs.program import (
    STATE,
    ProgramStage,
    StencilProgram,
    run_program_reference,
)
from repro.programs.compile import (
    CompiledStage,
    FusionPlan,
    ProgramPlan,
    compile_program,
    plan_fusion,
    program_fingerprint,
)
from repro.programs.executor import (
    ProgramCostModel,
    ProgramRunner,
    ShardedProgramRunner,
    model_program,
)
from repro.programs.metrics import (
    StageCacheAttribution,
    stage_cache_attribution,
)

__all__ = [
    "STATE",
    "ProgramStage",
    "StencilProgram",
    "run_program_reference",
    "CompiledStage",
    "FusionPlan",
    "ProgramPlan",
    "compile_program",
    "plan_fusion",
    "program_fingerprint",
    "ProgramCostModel",
    "ProgramRunner",
    "ShardedProgramRunner",
    "model_program",
    "StageCacheAttribution",
    "stage_cache_attribution",
]
