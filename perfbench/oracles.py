"""Output checks.  Each returns ``None`` when the output is correct, or a
one-line description of the mismatch (which the run counts as a failure)."""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional

import numpy as np

#: fp16 tolerance of the Table-2 integration tests, scaled by the output
#: magnitude exactly as they scale it.
FP16_TOL = 5e-3
#: float64 numpy sweeps against the float64 golden reference (the backend
#: tests' 1e-12), scaled by the output magnitude like the fp16 tolerance:
#: high-order kernels grow the field by orders of magnitude.
FP64_TOL = 1e-12


def array_digest(*arrays: Any) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def plan_digest(compiled: Any) -> Dict[str, Any]:
    """The parts of a compiled plan that must never drift: the chosen
    layout and digests of the converted operands, metadata and LUT."""
    plan = compiled.plan
    conversion = plan.conversion
    metadata = plan.metadata
    operands = [plan.a_prime, plan.a_operand]
    if conversion is not None:
        operands += [conversion.a_converted, conversion.permutation]
    meta = "none" if metadata is None else array_digest(
        metadata.compressed.values, metadata.compressed.indices,
        metadata.packed_words)
    return {
        "r1": int(plan.config.r1),
        "r2": int(plan.config.r2),
        "operands": array_digest(*operands),
        "metadata": meta,
        "lut": array_digest(plan.lut.column_base, plan.lut.patch_offset),
    }


def check_digest(compiled: Any, expected: Optional[Dict[str, Any]]
                 ) -> Optional[str]:
    if expected is None:
        return "no expected digest committed for this case"
    actual = plan_digest(compiled)
    if actual != expected:
        fields = sorted(k for k in expected if actual.get(k) != expected[k])
        return f"plan differs from the committed digest in {fields}"
    return None


def check_fp16(output: np.ndarray, reference: np.ndarray) -> Optional[str]:
    """Within :data:`FP16_TOL` of ``reference``, scaled by its magnitude."""
    tolerance = FP16_TOL * max(1.0, float(np.max(np.abs(reference))))
    error = float(np.max(np.abs(output - reference)))
    if not error < tolerance:
        return f"fp16 error {error:.3e} >= tolerance {tolerance:.3e}"
    return None


def check_fp64(output: np.ndarray, reference: np.ndarray) -> Optional[str]:
    tolerance = FP64_TOL * max(1.0, float(np.max(np.abs(reference))))
    error = float(np.max(np.abs(output - reference)))
    if not error < tolerance:
        return f"float64 error {error:.3e} >= tolerance {tolerance:.3e}"
    return None


def check_identical(output: np.ndarray, expected: np.ndarray
                    ) -> Optional[str]:
    if output.shape != expected.shape or not np.array_equal(output, expected):
        return "output is not bit-identical to the single-device output"
    return None
