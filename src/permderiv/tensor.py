"""Symmetric / antisymmetric tensor-power blocks and their compressions.

Every block is built on the lexicographically ordered multi-index basis by
`permanent.map_blocks`, in budgeted slices, except `tilde_sym_block`: its
complementary permanents per A(I|J) all come from one Ryser pass over the
column sets of A (`permanent.complement_permanents`), which calls no scalar
`per`.  Only the strict-index blocks of the tilde operators and mixed
powers are built; the formulas need no others.

`det_batch` is the determinant evaluator of both modes.  A floating stack
of order 0, 1 or 2 is its Leibniz expansion 1, a or a d - b c, one
expression on complex128, so the minors of order k and r - k that the
`D^k g_r` forms mostly evaluate need no LU; a floating a d - b c that
overflows is taken by LU instead, and orders >= 3 run LAPACK LU.  An exact
stack of every order runs `det_bareiss`: det_batch itself on int64
residues mod primes, through the one multimodular lift of exact values
(`permanent.modular_values`), which recovers them by the Chinese remainder
theorem.  Given the primes of a residue stack (`mod`), as there and in the
exact closed forms, det_batch runs the same expansions to order 2, the
cofactor expansion along the first row at order 3, which needs no modular
inverse, and from order 4 Bareiss's recurrence (`_bareiss_residues`), which
inverts a pivot at each inner step.  `det_bareiss` with summed lifts the
sum of each item's determinants as one value, added mod p in the residue
kernel; exact `charpoly.g_r` sends its restrictions through it, so it
lifts one value per matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multiindex import MultiIndex, enumerate_strict, enumerate_weak, index_plan, multiplicity
from .permanent import budget_length, complement_permanents, in_slices, map_blocks, modular_values, per_batch
# no block here calls per; `tensor.per` stays bound for code that wraps or
# patches the evaluator under each module's name for it (bench/tracing.py)
from .permanent import per  # noqa: F401
from .scalars import (
    ExactComplex,
    divided,
    is_exact,
    moduli,
    product,
    require_square,
    require_square_stack,
    to_complex,
    total,
)


@dataclass(frozen=True)
class TensorBlock:
    """A matrix indexed by ordered multi-index bases (a stack of them for residue images)."""

    row_basis: tuple[MultiIndex, ...]
    col_basis: tuple[MultiIndex, ...]
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape[-2:] != (len(self.row_basis), len(self.col_basis)):
            raise ValueError("entry shape does not match the bases")


def det(A):
    """Determinant of one matrix: `det_batch` of it, a Python complex in floating mode."""
    value = det_batch(require_square(A))
    return value if is_exact(A) else complex(value)


def det_bareiss(A, summed: bool = False):
    """Determinants of an (..., n, n) exact stack, from their values mod primes.

    The stack runs through the multimodular lift of exact values
    (`permanent.modular_values`) with the residue branch of `det_batch` as
    its kernel, so the values are exact, `Fraction` entries included, and
    keep int parts while integral.  A single matrix gives a scalar.

    Given summed, A is an (..., c, n, n) stack, and each item of c matrices
    gives the sum of their determinants, lifted as one value: the kernel
    adds the c residue determinants mod p.  Its bound is still the product
    of the item's row sums rho_j = sum_I rho_Ij over its matrices I, since
    for rho >= 0 the product prod_j sum_I rho_Ij expands into every term of
    sum_I prod_j rho_Ij and more, none negative, and prod_j rho_Ij bounds
    |det A_I|.  c matrices of order 0 sum to c.
    """
    A = np.asarray(A)
    lead, n = A.shape[:A.ndim - 2 - summed], A.shape[-1]
    if summed and not A.size:
        return np.full(lead, ExactComplex(A.shape[-3]), dtype=object)[()]
    items = A.reshape(math.prod(lead), *A.shape[len(lead):])
    kernel = _summed_residues if summed else det_batch
    return modular_values(items, n, math.prod, kernel).reshape(lead)[()]


def _summed_residues(images: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """The sum of the c determinants of each (c, n, n) item of a residue stack, mod its prime."""
    return det_batch(images, mod).sum(axis=-1) % mod


def _bareiss_residues(mats: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """det of each matrix of an (m, n, n) int64 stack of residues mod its prime in mod.

    Bareiss's fraction-free recurrence a_jl <- (a_ii a_jl - a_ji a_il) / prev
    over Z_p, where the division by the previous pivot is a product with its
    inverse.  Each step takes as its pivot, per matrix, the first row at or
    below the diagonal with a nonzero residue.  Where there is none, the
    column is 0 below the diagonal, so every later entry and the value come
    out 0.  Residues stay below 2^31, so every product stays below 2^62.
    `det_batch` sends it orders >= 4 only; it computes every order.
    """
    M, n = mats.copy(), mats.shape[-1]
    p, stack, flip = mod[:, None, None], np.arange(len(M)), np.zeros(len(M), dtype=bool)
    for i in range(n - 1):
        r = i + (M[:, i:, i] != 0).argmax(axis=1)  # i itself where the column is 0
        pivot_rows = M[stack, r]
        M[stack, r] = M[:, i]
        M[:, i] = pivot_rows
        flip ^= r != i
        pivot = M[:, i, i]
        trailing = M[:, i + 1:, i + 1:] * pivot[:, None, None] % p
        trailing -= M[:, i + 1:, i, None] * M[:, i, None, i + 1:] % p
        if i:
            trailing *= inverse[:, None, None]
        M[:, i + 1:, i + 1:] = trailing % p
        if i < n - 2:  # the last pivot divides nothing
            inverse = _inverse_mod(pivot, mod)
    dets = M[:, n - 1, n - 1]
    return np.where(flip, -dets, dets) % mod


def _inverse_mod(x: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """x^(p-2) mod p for int64 residues x, per prime p of mod: x^-1 (Fermat), and 0 for 0."""
    inverse = np.empty_like(x)
    for q in np.unique(mod).tolist():
        at = mod == q
        power, base = 1, x[at]
        for bit in bin(q - 2)[:1:-1]:  # from the lowest bit up
            if bit == "1":
                power = power * base % q
            base = base * base % q
        inverse[at] = power
    return inverse


def det_batch(mats: np.ndarray, mod=None) -> np.ndarray:
    """Determinants of a stack of k x k matrices, in the stack's mode.

    An exact (object) stack of every order runs `det_bareiss`, which lifts
    its values mod primes from the residue branch below, and returns
    ExactComplex values, int parts while integral.  A floating stack returns
    complex128: orders 0, 1 and 2 are their Leibniz expansions 1, a and
    a d - b c, one expression on the stack (no pivot and no division), and
    the a d - b c that come out non-finite (a d or b c overflowed, above
    about 1e154) are taken by LU; from order 3 on it runs LAPACK LU.  Given
    mod, the stack holds residues in [0, p), p < 2^31, and so do its values:
    orders <= 2 come from the same expansions, order 3 from its cofactor
    expansion along the first row (minors a d - b c, every product reduced
    mod p, no modular inverse), and orders >= 4 from `_bareiss_residues`.
    Sending orders <= 2 to `_bareiss_residues` too cost exact-oracle 3-5 %.
    """
    mats = require_square_stack(mats)
    k = mats.shape[-1]
    if mod is not None:
        mod = moduli(mod, mats.shape[:-2])
        if k > 3:
            flat = mats.reshape(-1, k, k)
            return _bareiss_residues(flat, mod.reshape(-1)).reshape(mats.shape[:-2])
    elif is_exact(mats):
        return det_bareiss(mats)
    elif k > 2:
        return np.linalg.det(mats.astype(complex))
    else:
        mats = mats.astype(complex, copy=False)
    if k < 2:
        return mats[..., 0, 0].copy() if k else np.ones(mats.shape[:-2], dtype=mats.dtype)
    if mod is not None:
        if k == 2:
            return _leibniz(mats) % mod
        # order 3: each entry of row 0 times its reduced minor stays below 2^62
        row, below = mats[..., 0, :], mats[..., 1:, :]
        a = row[..., 0] * (_leibniz(below[..., 1:]) % mod) % mod
        b = row[..., 1] * (_leibniz(below[..., ::2]) % mod) % mod
        c = row[..., 2] * (_leibniz(below[..., :2]) % mod) % mod
        return (a - b + c) % mod
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _leibniz(mats)
    except FloatingPointError:  # a d or b c overflowed: the non-finite results by LU
        with np.errstate(over="ignore", invalid="ignore"):
            dets = np.array(_leibniz(mats))
            bad = ~np.isfinite(dets)
            dets[bad] = np.linalg.det(mats[bad])
    return dets


def _leibniz(M: np.ndarray) -> np.ndarray:
    """a d - b c of each 2 x 2 matrix of a stack."""
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def principal_blocks(M, rows) -> np.ndarray:
    """The principal restrictions M[I|I] for every row I of the index array `rows`.

    M is (..., n, n) and rows a (c, r) zero-based array such as
    `index_plan(r, n).combos`; the result is (..., c, r, r).
    """
    return M[..., rows[:, :, None], rows[:, None, :]]


def map_restrictions(M, r: int, evaluate, elements: int = 0, axis: int = 0) -> np.ndarray:
    """evaluate of the restrictions M[I|I], I in Q_{r,n}, in chunks joined in I order.

    M is (..., n, n); evaluate maps a (..., c, r, r) chunk to its c values along
    `axis`.  c keeps the chunk, and `elements` (evaluate's largest temporary
    for one restriction), within the stack budget, and is at least 1.
    """
    rows = index_plan(r, M.shape[-1]).combos
    size = max(elements, math.prod(M.shape[:-2]) * r * r)
    return in_slices(
        lambda s: evaluate(principal_blocks(M, rows[s])), len(rows), budget_length(size), axis
    )


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
    idx = np.array([I.zero_based() for I in basis], dtype=np.intp)
    entries = map_blocks(to_complex(A), idx[:, None], idx[None, :], per_batch)
    return TensorBlock(basis, basis, entries / np.outer(norms, norms))


def sym_power_projected(A, k: int) -> TensorBlock:
    """Compression of the k-th symmetric power to the strict-index basis."""
    n = require_square(A).shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}")
    basis, idx = enumerate_strict(k, n), index_plan(k, n).combos
    return TensorBlock(basis, basis, map_blocks(A, idx[:, None], idx[None, :], per_batch))


def antisym_power(A, k: int) -> TensorBlock:
    """k-th antisymmetric (compound) power: entries det A[I|J] on Q_{k,n}."""
    n = require_square(A).shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}")
    basis, idx = enumerate_strict(k, n), index_plan(k, n).combos
    return TensorBlock(basis, basis, map_blocks(A, idx[:, None], idx[None, :], det_batch))


def tilde_sym_block(A, k: int, mod=None) -> TensorBlock:
    """Compressed complementary-permanent operator: (J, I) entry per A(I|J).

    Every entry comes from one Ryser pass over the column sets of A
    (`permanent.complement_permanents`), an exact A through one lift.  At
    k = n the complement is empty and the single entry is per(empty) = 1.
    Given mod, A is a (..., n, n) stack of residues and the entries (..., C, C).
    """
    table = complement_permanents(require_square(A) if mod is None else A, k, mod)
    basis = enumerate_strict(k, np.shape(A)[-1])
    return TensorBlock(basis, basis, np.ascontiguousarray(np.swapaxes(table, -1, -2)))


def tilde_antisym_block(A, k: int) -> TensorBlock:
    """Compressed signed complementary-minor operator.

    (J, I) entry is (-1)^{|I|+|J|} det A(I|J).
    """
    n = require_square(A).shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}")
    basis = enumerate_strict(k, n)
    return TensorBlock(basis, basis, signed_complement_minors(A, k).T)


def signed_complement_minors(A, k: int, mod=None) -> np.ndarray:
    """(-1)^{|I|+|J|} det A(I|J) for I, J in Q_{k,n}, indexed (..., I, J).

    A is (..., n, n); the result is (..., C, C), C = C(n, k).  Given mod, A
    holds residues and the results lie in (-p, p).
    """
    plan = index_plan(k, np.shape(A)[-1])
    minors = map_blocks(A, plan.complements[:, None], plan.complements[None, :], det_batch, mod=mod)
    odd = plan.parity[:, None] ^ plan.parity[None, :]
    return np.where(odd, -minors, minors)


def mixed_sym_projected(directions, mod=None) -> TensorBlock:
    """Compressed symmetrized product X^1 v ... v X^k on Q_{k,n}.

    Entry (I, J) = (1/k!) sum_sigma per of the k x k matrix with (l, m)
    entry X^{sigma(m)}_{i_l j_m}.  Given mod, directions is a (..., k, n, n)
    stack of residues.
    """
    return _mixed_block(directions, symmetric=True, mod=mod)


def mixed_antisym_projected(directions) -> TensorBlock:
    """Compressed antisymmetrized product X^1 ^ ... ^ X^k on Q_{k,n}."""
    return _mixed_block(directions, symmetric=False)


def _mixed_block(directions, symmetric: bool, mod=None) -> TensorBlock:
    if mod is None:
        directions = tuple(directions)
        if not directions:
            raise ValueError("need at least one direction")
        n = require_square(directions[0]).shape[0]
        for X in directions:
            if np.asarray(X).shape != (n, n):
                raise ValueError("all directions must be square of the same order")
        if len(directions) > n:
            raise ValueError(f"need k <= {n}")
        directions = np.stack(directions)
    basis = enumerate_strict(directions.shape[-3], directions.shape[-1])
    evaluate = per_batch if symmetric else det_batch
    return TensorBlock(basis, basis, mixed_entries(directions, evaluate, mod))


def mixed_entries(Xs, evaluate, mod=None) -> np.ndarray:
    """(1/k!) sum_sigma evaluate(X^sigma[I|J]), I, J in Q_{k,n}: (..., C, C).

    Column m of X^sigma[I|J] is column j_m of X^{sigma(m)}.  Xs is a (..., k, n, n)
    stack; `evaluate` is `per_batch` for the symmetrized product, else `det_batch`.
    Given mod, Xs holds residues and 1/k! is the inverse of k! mod p.
    """
    k, n = Xs.shape[-3], Xs.shape[-1]
    plan = index_plan(k, n)
    combos = plan.combos
    acc = sum(
        map_blocks(Xs, combos[:, None], combos[None, :], evaluate, sigma, mod) for sigma in plan.perms
    )
    return divided(acc, math.factorial(k), mod)


def block_trace(B: TensorBlock, C: TensorBlock, mod=None):
    """tr(B.entries @ C.entries), mode-generic, in O(|C|^2); with mod, of each residue image."""
    BE, CE = B.entries, C.entries
    if BE.shape[-1] != CE.shape[-2] or BE.shape[-2] != CE.shape[-1]:
        raise ValueError("incompatible block shapes for a trace product")
    return total(product(BE, np.swapaxes(CE, -1, -2), mod), mod)
