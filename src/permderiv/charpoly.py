"""Characteristic-polynomial coefficients g_r and their derivatives.

g_r(A) is the sum of r x r principal minors; det(xI - A) =
x^n - g_1 x^{n-1} + ... + (-1)^n g_n.  An exact g_r, of `g_r` and of
`charpoly_all` alike, is one lift per matrix through `tensor.det_bareiss`
with minors r: closed-form minors summed through order 3, Berkowitz's
division-free recurrence (`tensor._berkowitz`) on the whole image beyond.
A floating `charpoly_all` runs that recurrence once, in O(n^4) operations,
and a floating `g_r` sums the principal minors.  The derivative formulas
are the determinant analogues of the permanent ones, applied inside every
principal restriction A_I and summed over I in Q_{r,n}.
Like the `D^k per` forms, each takes (A, directions), here followed by k
and r, and `scalars.require_directions` fixes one mode for the call.

g_r and the forms walk the restrictions in chunks of whole restrictions
(`tensor.map_restrictions`), gathered through the index plan of Q_{r,n}, so
that no temporary outgrows the stack budget of `permanent`.  The forms share
one driver and supply only their terms of A_I (c, r, r) and X_I
(c, k, r, r), gathered by `permanent.map_blocks` with one `det_batch` call
per chunk, stacked term and slice.  Each restriction's terms are reduced as
one restriction alone would be, and the restriction values are added in
lexicographic I order, so a result does not depend on the chunking.  As for
the `D^k per` forms, an exact sum runs once on the int64 images of the
operands mod primes and is lifted once (`permanent.modular_values`).

Sign weights |J| in the signed-minor form are computed after relabelling
the restriction's rows/columns to 1..r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multiindex import MultiIndex, enumerate_strict, index_plan
from .permanent import budget_length, map_blocks, modular_values, replacement_values
from . import tensor
from .derivatives import dispatch
from .scalars import (
    is_exact,
    product,
    require_directions,
    require_square,
    require_square_stack,
    residues,
    to_complex,
    total_in_order,
    zero_like,
)
from .tensor import (
    _berkowitz,
    det_batch,
    map_restrictions,
    mixed_entries,
    principal_blocks,
    principal_minor_sums,
    signed_complement_minors,
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
    values = principal_blocks(A, index_plan(r, A.shape[0]).combos)
    return tuple(map(PrincipalRestriction, enumerate_strict(r, A.shape[0]), values))


def g_r(A, r: int):
    """Sum of the r x r principal minors of A, or of each matrix of an (..., n, n) stack.

    A floating matrix of a stack gives bit for bit its g_r alone
    (`tensor.principal_minor_sums`).  An exact stack lifts one value per
    matrix from the residue images of the whole matrices
    (`tensor.det_bareiss` with minors r).  A single matrix gives a scalar.
    """
    A = require_square_stack(A)
    n = A.shape[-1]
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= {n}")
    if is_exact(A):
        return tensor.det_bareiss(A, r)
    sums = principal_minor_sums(A, r)
    return complex(sums) if A.ndim == 2 else sums


def charpoly_all(A) -> CharPolyCoefficients:
    """All coefficients (g_1, ..., g_n); a floating matrix's by Berkowitz's recurrence.

    An exact matrix lifts each g_r as exact `g_r` does (`tensor.det_bareiss`
    with minors r).  A floating matrix runs `_berkowitz` once on complex128.

    Where a floating coefficient comes out non-finite (an intermediate
    overflowed), the recurrence is run again on 2^-e A, e the binary exponent
    of the largest |part| of A, and each g_r is scaled back by 2^(e r) with
    `np.ldexp` on each part (`_rescaled_berkowitz`).  A scaling by a power of
    two is exact barring underflow, and so is that run unless one of its
    operations underflows: then it is not used, and every coefficient is the
    principal-minor sum `g_r`, whose `det_batch` hands a minor that
    overflows, or a stack whose expansion underflows, to LU.  A matrix
    whose entries span too many binary orders underflows so, as a 1e200
    block beside an O(1) block does, and still costs the 2^n - 1 minors.
    Otherwise the minor sum replaces only a coefficient whose scaled run is
    non-finite: one that is finite there and overflows only once scaled back
    lies beyond the floating range, and stays non-finite.  Minor sums run
    with numpy's overflow and invalid warnings off; their values show it.
    """
    A = require_square(A)
    n = A.shape[0]
    if is_exact(A):
        return CharPolyCoefficients(tuple(tensor.det_bareiss(A, r) for r in range(1, n + 1)))
    A = to_complex(A)
    with np.errstate(over="ignore", invalid="ignore"):
        g = _berkowitz(A)[1:]
    kept = np.isfinite(g)
    if not kept.all():
        try:
            g, kept = _rescaled_berkowitz(A)
        except FloatingPointError:  # an underflow: the scaling was not exact, so no value is kept
            kept[:] = False
    with np.errstate(over="ignore", invalid="ignore"):
        return CharPolyCoefficients(tuple(
            value if keep else g_r(A, r) for r, (value, keep) in enumerate(zip(g.tolist(), kept), 1)
        ))


def _rescaled_berkowitz(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g_1, ..., g_n of a complex matrix from `_berkowitz` on 2^-e A, times 2^(e r),
    and whether each was finite in that run.

    e is the binary exponent of the largest |part| of A, so the parts of
    2^-e A lie below 1 in magnitude.  FloatingPointError when an operation of
    the scaled run underflows; a coefficient that overflows once scaled back
    comes out non-finite.
    """
    e = int(np.frexp(max(np.abs(A.real).max(), np.abs(A.imag).max()))[1])
    with np.errstate(over="ignore", invalid="ignore", under="raise"):
        g = _berkowitz(_ldexp(A, -e))[1:]
    with np.errstate(over="ignore"):
        return _ldexp(g, e * np.arange(1, len(g) + 1)), np.isfinite(g)


def _ldexp(z: np.ndarray, e) -> np.ndarray:
    """z * 2^e for a complex array, by `np.ldexp` on each part, so exactly
    barring overflow and underflow, and with the sign of every zero part."""
    out = np.empty_like(z)
    out.real, out.imag = np.ldexp(z.real, e), np.ldexp(z.imag, e)
    return out


def dk_gr_columns(A, directions, k: int, r: int):
    """Column-replacement form, summed over principal restrictions."""

    def term(AI, XI, mod):
        return _row_totals(replacement_values(AI, XI, det_batch, mod), mod)

    return _restriction_sum(A, directions, k, r, term, _slice_elements)


def dk_gr_minors(A, directions, k: int, r: int):
    """Signed complementary-minor form inside every principal restriction."""

    def term(AI, XI, mod):  # (c, k!): one term per restriction and sigma
        signed = signed_complement_minors(AI, k, mod)  # (c, K, J): rows K and columns J deleted
        plan = index_plan(k, r)
        combos = plan.combos
        return np.stack([
            _row_totals(product(
                signed, map_blocks(XI, combos[:, None], combos[None, :], det_batch, sigma, mod), mod
            ), mod)
            for sigma in plan.perms
        ], axis=-1)

    return _restriction_sum(A, directions, k, r, term, _block_elements)


def dk_gr_tensor(A, directions, k: int, r: int):
    """Tensor-trace form: k! sum_I tr(tilde-antisym(A_I) * X^1_I ^...^ X^k_I)."""

    def term(AI, XI, mod):
        # tr(tilde * mixed) with tilde = signed^T sums the entries of signed * mixed
        signed = signed_complement_minors(AI, k, mod)
        return _row_totals(product(signed, mixed_entries(XI, det_batch, mod), mod), mod)

    return _restriction_sum(A, directions, k, r, term, _block_elements, math.factorial(k))


def dk_gr(A, directions, k: int, r: int, formula: str = "columns"):
    """D^k g_r(A)(X^1, ..., X^k) by the selected form; "all" returns a dict of all three."""
    # the table is built per call, so a rebound module-level form is the one called
    forms = {"columns": dk_gr_columns, "minors": dk_gr_minors, "tensor": dk_gr_tensor}
    return dispatch(forms, formula, A, directions, k, r)


def _restriction_sum(A, directions, k, r, term, elements, factor=None):
    """Sum over I in Q_{r,n}, in lexicographic order, of the values term(A_I, X_I, mod).

    term maps a chunk, A_I (c, r, r) and X_I (c, k, r, r), to (c, ...) values,
    each reduced as for one restriction alone; elements(k, r) counts its
    largest temporary for one restriction.  The sum is multiplied by the
    integer factor, if any.  An exact sum runs once on the int64 images of the
    operands mod primes (`permanent.modular_values`, degree r), with a
    leading image axis on A_I, X_I and the values and mod the prime of each
    image; its budgets hold per image.
    """
    A, directions = require_directions(A, directions)
    n = A.shape[0]
    if len(directions) != k:
        raise ValueError(f"expected {k} directions, got {len(directions)}")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= {n}")
    if k < 1:
        raise ValueError("need k >= 1")
    if k > r:
        return zero_like(A)

    def value(M, mod=None):  # M is (..., k + 1, n, n), with the image axis in front if any
        values = map_restrictions(
            M, r, lambda MI: term(MI[..., 0, :, :, :], np.moveaxis(MI[..., 1:, :, :, :], -4, -3), mod),
            elements(k, r), axis=M.ndim - 3,
        )
        summed = total_in_order(values, mod)
        return summed if factor is None else residues(factor * summed, mod)

    M = np.stack((A, *directions))
    if is_exact(M):
        return modular_values(M[None], r, value)[0]
    return value(M)


def _row_totals(values, mod=None) -> np.ndarray:
    """`total` of each values[i] alone, as a (c,) array: its entries summed in C order.

    The layout of a gathered stack follows numpy's indexing, not C order, so
    the values are laid out in C order first.  Given mod, the totals of each
    image, mod its prime: (2P, c).
    """
    values = np.ascontiguousarray(values)
    lead = values.shape[:1 if mod is None else 2]
    return residues(values.reshape(*lead, -1).sum(axis=-1), mod)


def _slice_elements(k, r):
    """Elements of one slice of a restriction's replacement stack in the columns form."""
    return min(math.perm(r, k), budget_length(r * r)) * r * r


def _block_elements(k, r):
    """Elements of the largest (C, C, m, m) gather of the minor and tensor forms."""
    return math.comb(r, k) ** 2 * max(k, r - k) ** 2
