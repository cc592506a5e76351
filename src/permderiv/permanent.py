"""Permanent evaluation and the submatrix machinery built around it.

`per_naive` is the literal sum over all n! permutations and serves as the
independent oracle; `per` is Ryser's inclusion-exclusion with Gray-code
column updates, O(2^n * n).  Both work in floating and exact mode.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .multiindex import MultiIndex, enumerate_strict, complement, permutations_of
from .scalars import is_exact, map_matrices, require_square, zeros_like_mode

NAIVE_MAX_N = 10
RYSER_CROSSOVER = 5  # per() switches from naive to Ryser at this order


@dataclass(frozen=True)
class ReplacementSpec:
    """Columns J to replace and the ordered directions supplying them."""

    J: MultiIndex
    directions: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.J.kind != "strict":
            raise ValueError("replacement columns must form a strict multi-index")
        if len(self.J) != len(self.directions):
            raise ValueError("need one direction per replaced column")


def per_naive(A):
    """Permanent as the literal permutation sum. Guarded to n <= 10."""
    A = require_square(A)
    n = A.shape[0]
    if n > NAIVE_MAX_N:
        raise ValueError(f"per_naive limited to n <= {NAIVE_MAX_N}, got {n}")
    if n == 0:
        return _one(A)
    total = None
    rows = range(n)
    for sigma in itertools.permutations(range(n)):
        term = A[0, sigma[0]]
        for i in rows[1:]:
            term = term * A[i, sigma[i]]
        total = term if total is None else total + term
    return total


def per_ryser(A):
    """Ryser's formula with Gray-code column updates."""
    A = require_square(A)
    n = A.shape[0]
    if n == 0:
        return _one(A)
    # per A = (-1)^n * sum over nonempty S of (-1)^|S| prod_i rowsum_i(S)
    rowsums = zeros_like_mode(A, (n,))
    total = None
    gray = 0
    for s in range(1, 1 << n):
        g = s ^ (s >> 1)
        changed = gray ^ g
        j = changed.bit_length() - 1
        if g & changed:
            rowsums = rowsums + A[:, j]
        else:
            rowsums = rowsums - A[:, j]
        gray = g
        term = rowsums[0]
        for i in range(1, n):
            term = term * rowsums[i]
        if (n - bin(g).count("1")) % 2:
            term = -term
        total = term if total is None else total + term
    return total


def per(A):
    """Permanent of a square matrix (naive below the crossover, Ryser above)."""
    A = require_square(A)
    if A.shape[0] < RYSER_CROSSOVER:
        return per_naive(A)
    return per_ryser(A)


def per_batch(mats: np.ndarray) -> np.ndarray:
    """Permanents of a stack of k x k matrices, in the stack's mode.

    A floating stack runs a vectorized Ryser and returns complex128; an
    exact (object) stack runs `per` on each matrix and returns an object array.
    """
    mats = np.asarray(mats)
    if is_exact(mats):
        return map_matrices(per, mats)
    mats = mats.astype(complex)
    k = mats.shape[-1]
    m = mats.shape[:-2]
    if k == 0:
        return np.ones(m, dtype=complex)
    subsets = np.array(
        [[(s >> j) & 1 for j in range(k)] for s in range(1, 1 << k)], dtype=float
    )
    signs = np.where((k - subsets.sum(axis=1)) % 2, -1.0, 1.0)
    # rowsums[s, ..., i] = sum_{j in S} mats[..., i, j]
    rowsums = np.einsum("sj,...ij->s...i", subsets, mats)
    return np.einsum("s,s...->...", signs, rowsums.prod(axis=-1))


def submatrix(A, I: MultiIndex, J: MultiIndex):
    """A[I|J]: the |I| x |J| matrix of rows I and columns J (weak allowed)."""
    A = np.asarray(A)
    ri = I.zero_based()
    cj = J.zero_based()
    n_rows, n_cols = A.shape
    if any(i < 0 or i >= n_rows for i in ri) or any(j < 0 or j >= n_cols for j in cj):
        raise IndexError(f"indices {I.entries}|{J.entries} out of bounds for shape {A.shape}")
    return A[np.ix_(ri, cj)]


def minor_complement(A, I: MultiIndex, J: MultiIndex):
    """A(I|J): A with rows I and columns J deleted. Strict indices only."""
    A = require_square(A)
    if I.kind != "strict" or J.kind != "strict":
        raise ValueError("minor complement requires strict multi-indices")
    if len(I) != len(J):
        raise ValueError("row and column index sets must have equal length")
    n = A.shape[0]
    return submatrix(A, complement(I, n), complement(J, n))


def laplace_per(A, I: MultiIndex):
    """Laplace expansion along rows I: sum_J per A[I|J] * per A(I|J)."""
    A = require_square(A)
    n = A.shape[0]
    k = len(I)
    total = None
    for J in enumerate_strict(k, n):
        term = per(submatrix(A, I, J)) * per(minor_complement(A, I, J))
        total = term if total is None else total + term
    return total


def padj(A):
    """Permanental adjoint: (i,j)-entry is per A(i|j)."""
    A = require_square(A)
    n = A.shape[0]
    if n < 1:
        raise ValueError("padj requires n >= 1")
    out = zeros_like_mode(A, (n, n))
    for i in range(n):
        Ii = MultiIndex((i + 1,))
        for j in range(n):
            out[i, j] = per(minor_complement(A, Ii, MultiIndex((j + 1,))))
    return out


def column_replace(A, spec: ReplacementSpec):
    """A(J; X^1,...,X^k): replace column j_p of A by column j_p of X^p."""
    A = require_square(A)
    n = A.shape[0]
    Z = A.copy()
    for p, jp in enumerate(spec.J.zero_based()):
        X = np.asarray(spec.directions[p])
        if X.shape != A.shape:
            raise ValueError(f"direction {p} has shape {X.shape}, expected {A.shape}")
        if jp >= n:
            raise IndexError(f"column {jp + 1} out of range for order {n}")
        Z[:, jp] = X[:, jp]
    return Z


def replacement_stack(A, Xs):
    """Every A(J; X^sigma) for sigma in S_k and J in Q_{k,n}, sigma outermost.

    A is n x n and Xs is (k, n, n); the result is a (k! C(n,k), n, n) stack
    in the common mode of A and Xs.
    """
    k, n = Xs.shape[0], Xs.shape[-1]
    # slot 0 of `sources` is A, slot p + 1 is X^p; which[m, j] picks column j's slot
    sources = np.concatenate([np.asarray(A)[None], Xs])
    pairs = list(itertools.product(permutations_of(k), enumerate_strict(k, n)))
    which = np.zeros((len(pairs), n), dtype=int)
    for m, (sigma, J) in enumerate(pairs):
        which[m, list(J.zero_based())] = np.add(sigma, 1)
    return sources[which[:, None, :], np.arange(n)[:, None], np.arange(n)]


def sigma_columns(spec: ReplacementSpec, sigma: tuple[int, ...], n: int | None = None):
    """Y^sigma_[J]: column j_p from X^{sigma(p)}, all other columns zero."""
    if not spec.directions:
        if n is None:
            raise ValueError("need the matrix order for an empty replacement")
        ref = None
    else:
        ref = np.asarray(spec.directions[0])
        n = ref.shape[0]
    Y = zeros_like_mode(ref if ref is not None else np.zeros((n, n), dtype=complex), (n, n))
    for p, jp in enumerate(spec.J.zero_based()):
        X = np.asarray(spec.directions[sigma[p]])
        if X.shape != (n, n):
            raise ValueError(f"direction {sigma[p]} has shape {X.shape}, expected {(n, n)}")
        Y[:, jp] = X[:, jp]
    return Y


def _one(A):
    """Multiplicative identity in A's mode (per of the empty matrix)."""
    if is_exact(A):
        from .scalars import ExactComplex

        return ExactComplex(1)
    return complex(1.0)
