"""Characteristic-polynomial coefficients g_r and their derivatives.

g_r(A) is the sum of r x r principal minors; det(xI - A) =
x^n - g_1 x^{n-1} + ... + (-1)^n g_n.  The derivative formulas are the
determinant analogues of the permanent ones, applied inside every
principal restriction A_I and summed over I in Q_{r,n}.

Sign weights |J| in the signed-minor form are computed after relabelling
the restriction's rows/columns to 1..r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multiindex import MultiIndex, enumerate_strict, permutations_of
from .permanent import replacement_stack, submatrix
from .scalars import require_square, total, zero_like
from .tensor import (
    basis_indices,
    block_trace,
    det_batch,
    mixed_antisym_projected,
    sigma_blocks,
    signed_complement_minors,
    tilde_antisym_block,
)


@dataclass(frozen=True)
class CharPolyCoefficients:
    """The coefficients (g_1, ..., g_n); g_1 = tr A, g_n = det A."""

    g: tuple

    def __iter__(self):
        return iter(self.g)

    def __len__(self):
        return len(self.g)

    def __getitem__(self, r: int):
        """1-based access: coefficients[r] is g_r."""
        if not 1 <= r <= len(self.g):
            raise IndexError(f"r must be in [1..{len(self.g)}]")
        return self.g[r - 1]


@dataclass(frozen=True)
class PrincipalRestriction:
    """A principal submatrix A[I|I] together with its index set."""

    I: MultiIndex
    value: np.ndarray


def principal_restrictions(A, r: int) -> tuple[PrincipalRestriction, ...]:
    """All r x r principal restrictions of A, in lexicographic I order."""
    A = require_square(A)
    return tuple(
        PrincipalRestriction(I, submatrix(A, I, I))
        for I in enumerate_strict(r, A.shape[0])
    )


def g_r(A, r: int):
    """Sum of the r x r principal minors of A."""
    A = require_square(A)
    n = A.shape[0]
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= {n}")
    return total(det_batch(_restrict(A, r)))


def charpoly_all(A) -> CharPolyCoefficients:
    """All coefficients (g_1, ..., g_n) via principal-minor sums."""
    A = require_square(A)
    n = A.shape[0]
    return CharPolyCoefficients(tuple(g_r(A, r) for r in range(1, n + 1)))


def dk_gr_columns(A, directions, k: int, r: int):
    """Column-replacement form, summed over principal restrictions."""
    A, directions, n = _validate(A, directions, k, r)
    value = zero_like(A)
    if k > r:
        return value
    for AI, XI in _restricted(A, directions, r):
        value = value + total(det_batch(replacement_stack(AI, XI)))
    return value


def dk_gr_minors(A, directions, k: int, r: int):
    """Signed complementary-minor form inside every principal restriction."""
    A, directions, n = _validate(A, directions, k, r)
    value = zero_like(A)
    if k > r:
        return value
    inner = enumerate_strict(k, r)
    for AI, XI in _restricted(A, directions, r):
        signed = signed_complement_minors(AI, k)  # (K, J): rows K and columns J deleted
        for sigma in permutations_of(k):
            value = value + total(signed * det_batch(sigma_blocks(XI, inner, sigma)))
    return value


def dk_gr_tensor(A, directions, k: int, r: int):
    """Tensor-trace form: k! sum_I tr(tilde-antisym(A_I) * X^1_I ^...^ X^k_I)."""
    A, directions, n = _validate(A, directions, k, r)
    value = zero_like(A)
    if k > r:
        return value
    for AI, XI in _restricted(A, directions, r):
        value = value + block_trace(tilde_antisym_block(AI, k), mixed_antisym_projected(XI))
    return math.factorial(k) * value


def dk_gr(A, directions, k: int, r: int, formula: str = "columns"):
    """Dispatch on the formula selector; "all" returns a dict of all three."""
    if formula == "columns":
        return dk_gr_columns(A, directions, k, r)
    if formula == "minors":
        return dk_gr_minors(A, directions, k, r)
    if formula == "tensor":
        return dk_gr_tensor(A, directions, k, r)
    if formula == "all":
        return {
            "columns": dk_gr_columns(A, directions, k, r),
            "minors": dk_gr_minors(A, directions, k, r),
            "tensor": dk_gr_tensor(A, directions, k, r),
        }
    raise ValueError(f"unknown formula {formula!r}")


def _validate(A, directions, k, r):
    A = require_square(A)
    n = A.shape[0]
    directions = tuple(directions)
    if len(directions) != k:
        raise ValueError(f"expected {k} directions, got {len(directions)}")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= {n}")
    if k < 1:
        raise ValueError("need k >= 1")
    for X in directions:
        if np.asarray(X).shape != A.shape:
            raise ValueError("directions must match the order of A")
    return A, directions, n


def _restrict(M, r):
    """The r x r principal restrictions of M (..., n, n), stacked as (..., C(n,r), r, r)."""
    idx = basis_indices(enumerate_strict(r, M.shape[-1]))
    return M[..., idx[:, :, None], idx[:, None, :]]


def _restricted(A, directions, r):
    """Pairs (A_I, X_I) over I in Q_{r,n}: the restriction of A and the (k, r, r)
    stack of the restrictions of the directions."""
    return zip(_restrict(A, r), _restrict(np.stack(directions), r).swapaxes(0, 1))
