"""Characteristic-polynomial coefficients g_r and their derivatives.

g_r(A) is the sum of r x r principal minors; det(xI - A) =
x^n - g_1 x^{n-1} + ... + (-1)^n g_n.  The derivative formulas are the
determinant analogues of the permanent ones, applied inside every
principal restriction A_I and summed over I in Q_{r,n}.

Each form runs over the restrictions as stacks: A's as (c, r, r) and the
directions' as (c, k, r, r), gathered through the index plan of Q_{r,n}, in
chunks of c whole restrictions so that no temporary holds more than
`permanent._STACK_BUDGET` elements.  The inner formulas index through the
plan of Q_{k,r}, with one `det_batch` call per chunk and stacked term.  Each
restriction's terms are reduced as one restriction alone would be, and the
restriction sums are added in lexicographic I order, so a result does not
depend on the chunking.

Sign weights |J| in the signed-minor form are computed after relabelling
the restriction's rows/columns to 1..r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import permanent
from .multiindex import MultiIndex, enumerate_strict, index_plan
from .permanent import replacement_stack, submatrix
from .scalars import require_square, total, total_in_order, zero_like
from .tensor import det_batch, mixed_entries, sigma_blocks, signed_complement_minors


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
    return total(det_batch(_restrict(A, index_plan(r, n).combos)))


def charpoly_all(A) -> CharPolyCoefficients:
    """All coefficients (g_1, ..., g_n) via principal-minor sums."""
    A = require_square(A)
    n = A.shape[0]
    return CharPolyCoefficients(tuple(g_r(A, r) for r in range(1, n + 1)))


def dk_gr_columns(A, directions, k: int, r: int):
    """Column-replacement form, summed over principal restrictions."""
    A, directions, n = _validate(A, directions, k, r)
    if k > r:
        return zero_like(A)
    stack = math.perm(r, k) * r * r  # the replacement stack of one restriction
    return total_in_order(np.concatenate([
        _row_totals(det_batch(replacement_stack(AI, XI)))
        for AI, XI in _restriction_chunks(A, directions, r, stack)
    ]))


def dk_gr_minors(A, directions, k: int, r: int):
    """Signed complementary-minor form inside every principal restriction."""
    A, directions, n = _validate(A, directions, k, r)
    if k > r:
        return zero_like(A)
    plan = index_plan(k, r)
    sums = []  # (c, k!) per chunk: one term per restriction and sigma
    for AI, XI in _restriction_chunks(A, directions, r, _block_elements(k, r)):
        signed = signed_complement_minors(AI, k)  # (c, K, J): rows K and columns J deleted
        sums.append(np.stack([
            _row_totals(signed * det_batch(sigma_blocks(XI, plan.combos, sigma)))
            for sigma in plan.perms
        ], axis=-1))
    return total_in_order(np.concatenate(sums))


def dk_gr_tensor(A, directions, k: int, r: int):
    """Tensor-trace form: k! sum_I tr(tilde-antisym(A_I) * X^1_I ^...^ X^k_I)."""
    A, directions, n = _validate(A, directions, k, r)
    if k > r:
        return zero_like(A)
    # tr(tilde * mixed) with tilde = signed^T sums the entries of signed * mixed
    return math.factorial(k) * total_in_order(np.concatenate([
        _row_totals(signed_complement_minors(AI, k) * mixed_entries(XI, det_batch))
        for AI, XI in _restriction_chunks(A, directions, r, _block_elements(k, r))
    ]))


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


def _restrict(M, rows) -> np.ndarray:
    """The principal restrictions M[I|I] for every row I of the index array `rows`.

    M is (..., n, n) and rows a (c, r) zero-based array such as
    `index_plan(r, n).combos`; the result is (..., c, r, r).
    """
    return M[..., rows[:, :, None], rows[:, None, :]]


def _restriction_chunks(A, directions, r, stack):
    """(A_I, X_I) for I in Q_{r,n}, lexicographic, in chunks of whole restrictions.

    A_I is (c, r, r) and X_I is (c, k, r, r).  `stack` is the number of
    elements of the largest temporary a form builds for one restriction; c is
    as large as keeps that, and the (c, k + 1, r, r) of A_I and X_I together,
    within permanent._STACK_BUDGET, and at least 1.
    """
    Xs = np.stack(directions)
    rows = index_plan(r, A.shape[0]).combos
    step = max(permanent._STACK_BUDGET // max(stack, (len(Xs) + 1) * r * r), 1)
    for s in range(0, len(rows), step):
        chunk = rows[s:s + step]
        yield _restrict(A, chunk), np.moveaxis(_restrict(Xs, chunk), 0, 1)


def _row_totals(values) -> np.ndarray:
    """`total` of each values[i] alone, as a (c,) array: its entries summed in C order.

    The layout of a gathered stack follows numpy's indexing, not C order, so
    the values are laid out in C order first.
    """
    values = np.ascontiguousarray(values)
    return values.reshape(len(values), -1).sum(axis=-1)


def _block_elements(k, r):
    """Elements of the largest (C, C, m, m) gather of the minor and tensor forms."""
    return math.comb(r, k) ** 2 * max(k, r - k) ** 2
