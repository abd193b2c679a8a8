"""Structured Sparsity Conversion (§3.2).

Turns the staircase kernel matrix ``A'`` produced by layout morphing into a
2:4-compliant matrix ``A''`` by

1. building the (two-level) column conflict graph,
2. pairing conflict-free columns — Hierarchical Two-Level Matching when the
   self-similar staircase structure is available, Blossom otherwise,
3. inserting the required all-zero columns and applying the Permutation
   Invariant Transformation so matched pairs land in adjacent K slots.

The returned :class:`ConversionResult` also knows how to apply the same
row permutation to any input matrix ``B'`` (done once per sweep by the
generated kernel), preserving ``A' @ B' = A'' @ B''`` exactly.  The tcu-sim
sweep never materialises ``B''``: it composes ``scatter_rows`` into its
per-plan row map (:mod:`repro.engine.base`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.core.matching import (
    MatchingResult,
    blossom_matching,
    greedy_matching,
    hierarchical_matching,
    matching_to_permutation,
)
from repro.core.pit import apply_pit, pad_operands
from repro.core.staircase import BlockStructure
from repro.tcu.sparsity24 import is_24_sparse, sparsity_ratio
from repro.util.validation import require, require_array, require_in

__all__ = ["ConversionResult", "convert_to_24"]


@dataclass(frozen=True)
class ConversionResult:
    """Outcome of Structured Sparsity Conversion.

    Attributes
    ----------
    a_converted:
        ``(m', n_total)`` kernel matrix satisfying the 2:4 constraint.
    permutation:
        Length-``n_total`` index array over the zero-padded column space;
        entries ``< n_original`` are original columns of ``A'``.
    n_original:
        Column count of the un-padded ``A'`` (the logical reduction depth).
    n_total:
        Padded column count (multiple of 4).
    matching:
        The column pairing that produced the permutation.
    method:
        Matching method actually used (``"hierarchical"`` or ``"blossom"``).
    """

    a_converted: np.ndarray
    permutation: np.ndarray
    n_original: int
    n_total: int
    matching: MatchingResult
    method: str

    @property
    def n_pad(self) -> int:
        """Zero columns inserted (including the round-up to a multiple of 4)."""
        return self.n_total - self.n_original

    @cached_property
    def scatter_rows(self) -> np.ndarray:
        """Destination row (in the permuted space) of each original B' row.

        ``b_converted[scatter_rows[i]] = b_prime[i]`` reproduces
        :meth:`apply_to_b` without materialising the padded matrix first —
        this is what the generated kernel's lookup table encodes.  Computed
        once per conversion and read-only.
        """
        permutation = np.asarray(self.permutation)
        slots = np.flatnonzero(permutation < self.n_original)
        positions = np.empty(self.n_original, dtype=np.int64)
        positions[permutation[slots]] = slots
        positions.flags.writeable = False
        return positions

    def __getstate__(self) -> dict:
        # the scatter_rows cache is derived from ``permutation``: a pickled
        # conversion stays the size of its fields
        state = dict(self.__dict__)
        state.pop("scatter_rows", None)
        return state

    def apply_to_b(self, b_prime: np.ndarray) -> np.ndarray:
        """Pad and permute an input matrix ``B'`` to match ``a_converted``."""
        b_prime = require_array(b_prime, "b_prime", ndim=2)
        require(b_prime.shape[0] == self.n_original,
                f"B' has {b_prime.shape[0]} rows, expected {self.n_original}")
        b_converted = np.zeros((self.n_total, b_prime.shape[1]),
                               dtype=b_prime.dtype)
        b_converted[self.scatter_rows] = b_prime
        return b_converted

    def sparsity(self) -> float:
        """Zero fraction of the converted kernel matrix."""
        return sparsity_ratio(self.a_converted)


def _validate(a_prime: np.ndarray, matching: MatchingResult) -> bool:
    """Definition 3 checks: coverage and conflict-freedom."""
    return matching.is_cover() and matching.is_conflict_free(a_prime)


def convert_to_24(
    a_prime: np.ndarray,
    *,
    structure: Optional[BlockStructure] = None,
    method: str = "auto",
) -> ConversionResult:
    """Convert a morphed kernel matrix to 2:4 structured sparsity.

    Parameters
    ----------
    a_prime:
        The ``(m', k')`` staircase kernel matrix from layout morphing.
    structure:
        Block structure of ``a_prime`` (from
        :func:`repro.core.staircase.block_structure_from_morph`).  Required for
        the hierarchical method; optional otherwise.
    method:
        ``"hierarchical"`` — Algorithm 1, requires ``structure`` and raises if
        the produced matching is invalid for this matrix;
        ``"greedy"`` — first-fit pairing on the conflict graph (fast, near
        optimal on banded conflict structures);
        ``"blossom"`` — general maximum matching on the conflict-graph
        complement (optimal padding, cubic worst case);
        ``"auto"`` — hierarchical when a structure is supplied and valid;
        otherwise Blossom for small matrices and greedy for large ones (the
        §3.2 fallback behaviour, bounded so compilation stays fast).
    """
    a_prime = require_array(a_prime, "a_prime", ndim=2)
    require_in(method, ("auto", "hierarchical", "greedy", "blossom"), "method")

    #: Above this column count `auto` prefers the quadratic greedy fallback
    #: over Blossom, whose worst case is cubic in the column count.
    blossom_column_limit = 256

    matching: Optional[MatchingResult] = None
    used = method
    if method in ("auto", "hierarchical"):
        if structure is None:
            require(method == "auto",
                    "hierarchical conversion requires a block structure")
        else:
            require(structure.n_columns == a_prime.shape[1],
                    f"structure covers {structure.n_columns} columns but A' has "
                    f"{a_prime.shape[1]}")
            candidate = hierarchical_matching(structure)
            if _validate(a_prime, candidate):
                matching = candidate
                used = "hierarchical"
            else:
                require(method == "auto",
                        "hierarchical matching produced conflicting pairs for "
                        "this matrix (it is not k-staircase); use method='auto', "
                        "'greedy' or 'blossom'")
    if matching is None and method == "greedy":
        matching = greedy_matching(a_prime)
        used = "greedy"
    if matching is None and (method == "blossom" or
                             a_prime.shape[1] <= blossom_column_limit):
        matching = blossom_matching(a_prime)
        used = "blossom"
    if matching is None:
        matching = greedy_matching(a_prime)
        used = "greedy"
    require(_validate(a_prime, matching),
            f"{used} matching failed to produce a valid cover")

    permutation, n_total = matching_to_permutation(matching)
    a_padded, _ = pad_operands(a_prime, None, n_total)
    a_converted, _ = apply_pit(a_padded, None, permutation)

    require(is_24_sparse(a_converted),
            "conversion produced a matrix that violates 2:4 sparsity — "
            "this indicates an invalid matching")

    return ConversionResult(
        a_converted=a_converted,
        permutation=permutation,
        n_original=a_prime.shape[1],
        n_total=n_total,
        matching=matching,
        method=used,
    )
