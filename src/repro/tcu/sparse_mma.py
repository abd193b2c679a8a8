"""Functional model of 2:4 sparse Tensor-Core fragment MMA (``mma.sp``).

``sparse_mma`` takes a 2:4-sparse A operand, compresses it into the
values+metadata form the hardware consumes, and computes the product *from
the compressed representation only* — i.e. by gathering the two B rows each
metadata index points at — so a correct result genuinely certifies that the
metadata produced by the transformation pipeline is right, not merely that
the dense matrix was.

The dataflow is built from two pieces that the tcu-sim sweep
(:mod:`repro.engine.base`) reuses from its per-plan memo:
:func:`compressed_rows` maps every retained value to the ``B`` row it
multiplies (``group_base + index``, optionally renamed through a row
table), and :func:`contract_rows` is the one float32 multiply-add over those
rows, in fixed row chunks, so both paths sum in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.tcu.sparsity24 import Compressed24, compress_24
from repro.tcu.spec import DataType, FragmentShape
from repro.util.arrays import ceil_div, pad_to_multiple
from repro.util.validation import require, require_array

__all__ = [
    "SparseMMAResult",
    "compressed_rows",
    "contract_rows",
    "sparse_fragment_ops",
    "sparse_mma",
    "sparse_mma_compressed",
]


@dataclass(frozen=True)
class SparseMMAResult:
    """Result of a fragment-tiled sparse MMA.

    Attributes
    ----------
    d: the ``(m, n)`` product.
    fragment_ops: number of sparse fragment operations issued.
    compressed: the compressed A operand that was consumed.
    metadata_bytes: bytes of 2-bit metadata shipped with A.
    """

    d: np.ndarray
    fragment_ops: int
    compressed: Compressed24
    metadata_bytes: int


def compressed_rows(compressed: Compressed24,
                    row_of_column: Optional[np.ndarray] = None) -> np.ndarray:
    """The ``(m, k/2)`` ``B`` row each retained value of ``compressed`` reads.

    Slot ``(r, s)`` holds the value at column ``group_base + indices[r, s]``
    of the padded dense K space, so that is the ``B`` row it multiplies.
    ``row_of_column`` (length ``k``) renames those columns — e.g. into the
    rows of an unpermuted ``B'`` — after the metadata has picked them, so
    the result always follows the compressed indices.
    """
    n_groups = compressed.k // 4
    group_base = np.repeat(np.arange(n_groups) * 4, 2)[None, :]     # (1, k/2)
    columns = group_base + compressed.indices.astype(np.int64)      # (m, k/2)
    if row_of_column is None:
        return columns
    return np.asarray(row_of_column)[columns]


def contract_rows(values: np.ndarray, rows: Callable[[int, int], np.ndarray],
                  n: int) -> np.ndarray:
    """``D[r] = sum_s values[r, s] * B_rows[r, s]`` in float32, ``(m, n)``.

    ``values`` is the ``(m, k/2)`` float32 compressed operand and
    ``rows(start, stop)`` returns the float32 ``(stop - start, k/2, n)``
    block of gathered ``B`` rows for output rows ``start:stop``.  The
    reduction runs over fixed row chunks (bounding a gathered block at ~4M
    elements), so every caller — the standalone MMA and the tcu-sim sweep —
    issues the same ``einsum`` calls and gets the same bits.
    """
    m, half_k = values.shape
    d = np.empty((m, n), dtype=np.float32)
    row_chunk = max(1, int(2**22 // max(1, half_k * n)))
    for start in range(0, m, row_chunk):
        stop = min(m, start + row_chunk)
        gathered = rows(start, stop)                                 # (r, k/2, n)
        vals = values[start:stop, :, None]                           # (r, k/2, 1)
        d[start:stop] = np.einsum(
            "rkn,rkn->rn", gathered, np.broadcast_to(vals, gathered.shape))
    return d


def sparse_fragment_ops(m: int, k: int, n: int, fragment: FragmentShape) -> int:
    """Sparse fragment operations issued for an ``(m, k) @ (k, n)`` product."""
    return ceil_div(m, fragment.m) * ceil_div(k, fragment.k) \
        * ceil_div(n, fragment.n)


def sparse_mma_compressed(
    compressed: Compressed24,
    b: np.ndarray,
    fragment: FragmentShape,
    *,
    c: np.ndarray | None = None,
    dtype: DataType = DataType.FP16,
) -> SparseMMAResult:
    """Compute ``D = (A ⊙ M) @ B (+ C)`` from the compressed A operand.

    The computation gathers ``B[group_base + index]`` per retained value and
    reduces over the compressed K/2 dimension — the same dataflow the sparse
    Tensor Core implements in silicon.
    """
    b = require_array(b, "b", ndim=2)
    require(fragment.sparse, "sparse_mma requires a sparse fragment shape")
    dtype = DataType(dtype)
    require(dtype.supports_sparse_tcu,
            f"{dtype.value} is not supported by sparse Tensor Cores")

    k = compressed.k
    require(b.shape[0] >= k - 3 and b.shape[0] <= k,
            f"B has {b.shape[0]} rows but compressed A encodes k={k}")
    b_pad = pad_to_multiple(np.asarray(b, dtype=dtype.numpy_dtype), 4, axis=0)
    require(b_pad.shape[0] == k, "B padding does not line up with compressed K")

    m = compressed.m
    n = b_pad.shape[1]
    values = np.asarray(compressed.values, dtype=dtype.numpy_dtype) \
        .astype(np.float32)
    gather_rows = compressed_rows(compressed)                        # (m, k/2)
    # the full (m, k/2, n) gather would be large, so gather per row chunk
    d = contract_rows(
        values,
        lambda start, stop: b_pad[gather_rows[start:stop]].astype(np.float32),
        n)

    if c is not None:
        c = require_array(c, "c", ndim=2)
        require(c.shape == (m, n), f"c must have shape {(m, n)}, got {c.shape}")
        d = d + np.asarray(c, dtype=np.float32)

    return SparseMMAResult(
        d=np.asarray(d, dtype=np.float64),
        fragment_ops=sparse_fragment_ops(m, k, n, fragment),
        compressed=compressed,
        metadata_bytes=compressed.metadata_bytes(),
    )


def sparse_mma(
    a: np.ndarray,
    b: np.ndarray,
    fragment: FragmentShape,
    *,
    c: np.ndarray | None = None,
    dtype: DataType = DataType.FP16,
) -> SparseMMAResult:
    """Compress a 2:4-sparse ``a`` and run :func:`sparse_mma_compressed`.

    Raises
    ------
    ValueError
        If ``a`` violates the 2:4 constraint (callers must run the Structured
        Sparsity Conversion first — exactly the contract of real hardware).
    """
    a = require_array(a, "a", ndim=2)
    b = require_array(b, "b", ndim=2)
    require(a.shape[1] == b.shape[0],
            f"inner dimensions differ: A is {a.shape}, B is {b.shape}")
    dtype = DataType(dtype)
    a_device = np.asarray(a, dtype=dtype.numpy_dtype)
    compressed = compress_24(a_device)
    return sparse_mma_compressed(compressed, b, fragment, c=c, dtype=dtype)
