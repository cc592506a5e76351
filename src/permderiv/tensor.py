"""Symmetric / antisymmetric tensor-power blocks and their compressions.

Every block is materialized on the lexicographically ordered multi-index
basis.  Only the strict-index (compressed) blocks of the tilde operators
and mixed powers are ever built; the formulas never need the full ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multiindex import (
    MultiIndex,
    complement,
    enumerate_strict,
    enumerate_weak,
    multiplicity,
    permutations_of,
)
from .permanent import per, per_batch, minor_complement
from .scalars import (
    is_exact,
    map_matrices,
    require_square,
    to_complex,
    total,
    zeros_like_mode,
)


@dataclass(frozen=True)
class TensorBlock:
    """A matrix indexed by ordered multi-index bases."""

    row_basis: tuple[MultiIndex, ...]
    col_basis: tuple[MultiIndex, ...]
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (len(self.row_basis), len(self.col_basis)):
            raise ValueError("entry shape does not match the bases")


def det(A):
    """Determinant: fraction-free Bareiss in exact mode, LAPACK LU otherwise."""
    A = require_square(A)
    if is_exact(A):
        return det_bareiss(A)
    if A.shape[0] == 0:
        return complex(1.0)
    return complex(np.linalg.det(A.astype(complex)))


def det_bareiss(A):
    """Fraction-free Bareiss elimination; exact for Gaussian-rational entries.

    On Gaussian-integer entries every division is exact over Z[i] (each
    quotient is a minor of A, by Sylvester's identity), so every pivot and
    the result keep int parts and no Fraction is built.
    """
    A = np.asarray(A)
    n = A.shape[0]
    from .scalars import ExactComplex

    if n == 0:
        return ExactComplex(1)
    M = [[A[i, j] for j in range(n)] for i in range(n)]
    sign = 1
    prev = ExactComplex(1)
    for i in range(n - 1):
        if not M[i][i]:
            for r in range(i + 1, n):
                if M[r][i]:
                    M[i], M[r] = M[r], M[i]
                    sign = -sign
                    break
            else:
                return ExactComplex(0)
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                M[r][c] = (M[r][c] * M[i][i] - M[r][i] * M[i][c]) / prev
        prev = M[i][i]
    result = M[n - 1][n - 1]
    return -result if sign < 0 else result


def det_batch(mats: np.ndarray) -> np.ndarray:
    """Determinants of a stack of k x k matrices, in the stack's mode.

    A floating stack runs LAPACK LU and returns complex128; an exact (object)
    stack runs Bareiss on each matrix and returns an object array.
    """
    mats = np.asarray(mats)
    if is_exact(mats):
        return map_matrices(det_bareiss, mats)
    mats = mats.astype(complex)
    if mats.shape[-1] == 0:
        return np.ones(mats.shape[:-2], dtype=complex)
    return np.linalg.det(mats)


def basis_indices(basis) -> np.ndarray:
    """A multi-index basis as a (len(basis), k) array of zero-based indices."""
    return np.array([I.zero_based() for I in basis], dtype=int).reshape(len(basis), -1)


def map_blocks(A, rows, cols, evaluate) -> np.ndarray:
    """evaluate(A[I|J]) for I in rows and J in cols, as a |rows| x |cols| array.

    `evaluate` is `per_batch` or `det_batch`.
    """
    ri, cj = basis_indices(rows), basis_indices(cols)
    return evaluate(np.asarray(A)[ri[:, None, :, None], cj[None, :, None, :]])


def sigma_blocks(Xs, basis, sigma) -> np.ndarray:
    """Blocks with (l, m) entry X^{sigma(m)}[i_l, j_m], for I, J in the basis.

    Xs is (k, n, n); the result is (C, C, k, k), C = |basis|.
    """
    idx = basis_indices(basis)
    return Xs[np.asarray(sigma), idx[:, None, :, None], idx[None, :, None, :]]


def sym_power(A, k: int) -> TensorBlock:
    """k-th symmetric tensor power on the weak-index basis.

    Entry (I, J) is (m(I) m(J))^{-1/2} per A[I|J].  Floating mode only
    (the normalization is irrational).
    """
    n = require_square(A).shape[0]
    if k < 1:
        raise ValueError("need k >= 1")
    basis = enumerate_weak(k, n)
    norms = np.array([math.sqrt(multiplicity(I)) for I in basis])
    entries = map_blocks(to_complex(A), basis, basis, per_batch) / np.outer(norms, norms)
    return TensorBlock(basis, basis, entries)


def sym_power_projected(A, k: int) -> TensorBlock:
    """Compression of the k-th symmetric power to the strict-index basis."""
    n = require_square(A).shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}")
    basis = enumerate_strict(k, n)
    return TensorBlock(basis, basis, map_blocks(A, basis, basis, per_batch))


def antisym_power(A, k: int) -> TensorBlock:
    """k-th antisymmetric (compound) power: entries det A[I|J] on Q_{k,n}."""
    n = require_square(A).shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}")
    basis = enumerate_strict(k, n)
    return TensorBlock(basis, basis, map_blocks(A, basis, basis, det_batch))


def tilde_sym_block(A, k: int) -> TensorBlock:
    """Compressed complementary-permanent operator: (J, I) entry per A(I|J).

    At k = n the complement is empty and the single entry is per(empty) = 1.
    """
    n = require_square(A).shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}")
    basis = enumerate_strict(k, n)
    entries = zeros_like_mode(A, (len(basis), len(basis)))
    for b, J in enumerate(basis):
        for a, I in enumerate(basis):
            entries[b, a] = per(minor_complement(A, I, J))
    return TensorBlock(basis, basis, entries)


def tilde_antisym_block(A, k: int) -> TensorBlock:
    """Compressed signed complementary-minor operator.

    (J, I) entry is (-1)^{|I|+|J|} det A(I|J).
    """
    n = require_square(A).shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}")
    basis = enumerate_strict(k, n)
    return TensorBlock(basis, basis, signed_complement_minors(A, k).T)


def signed_complement_minors(A, k: int) -> np.ndarray:
    """(-1)^{|I|+|J|} det A(I|J) for I, J in Q_{k,n}, as a C x C array indexed (I, J)."""
    n = np.asarray(A).shape[0]
    basis = enumerate_strict(k, n)
    comps = [complement(I, n) for I in basis]
    minors = map_blocks(A, comps, comps, det_batch)
    odd = basis_indices(basis).sum(axis=1) % 2
    return np.where(odd[:, None] ^ odd[None, :], -minors, minors)


def mixed_sym_projected(directions) -> TensorBlock:
    """Compressed symmetrized product X^1 v ... v X^k on Q_{k,n}.

    Entry (I, J) = (1/k!) sum_sigma per of the k x k matrix with (l, m)
    entry X^{sigma(m)}_{i_l j_m}.
    """
    return _mixed_block(directions, symmetric=True)


def mixed_antisym_projected(directions) -> TensorBlock:
    """Compressed antisymmetrized product X^1 ^ ... ^ X^k on Q_{k,n}."""
    return _mixed_block(directions, symmetric=False)


def _mixed_block(directions, symmetric: bool) -> TensorBlock:
    directions = tuple(directions)
    if not directions:
        raise ValueError("need at least one direction")
    k = len(directions)
    n = require_square(directions[0]).shape[0]
    for X in directions:
        if np.asarray(X).shape != (n, n):
            raise ValueError("all directions must be square of the same order")
    if k > n:
        raise ValueError(f"need k <= {n}")
    basis = enumerate_strict(k, n)
    Xs = np.stack(directions)
    evaluate = per_batch if symmetric else det_batch
    acc = sum(evaluate(sigma_blocks(Xs, basis, sigma)) for sigma in permutations_of(k))
    return TensorBlock(basis, basis, acc / math.factorial(k))


def block_trace(B: TensorBlock, C: TensorBlock):
    """tr(B.entries @ C.entries), mode-generic, in O(|C|^2)."""
    BE, CE = B.entries, C.entries
    if BE.shape[1] != CE.shape[0] or BE.shape[0] != CE.shape[1]:
        raise ValueError("incompatible block shapes for a trace product")
    return total(BE * CE.T)
