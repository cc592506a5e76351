"""Symmetric / antisymmetric tensor-power blocks and their compressions.

Every block is built on the lexicographically ordered multi-index basis by
`permanent.map_blocks`, in budgeted slices, except `tilde_sym_block`: its
complementary permanents per A(I|J) all come from one table by Glynn's
formula (`permanent.complement_permanents`), which calls no `per`.  Only
the strict-index blocks of the tilde operators and mixed powers are built;
the formulas need no others.

`det_batch` is the determinant evaluator of both modes, and one set of
division-free expansions (`_expansion`) serves floating stacks and residue
stacks alike through order 4 (`_EXPANDED`): 1 and a at orders 0 and 1,
a d - b c at order 2, the cofactor expansion along row 0 at order 3 and the
Laplace expansion along rows 0 and 1, six products of complementary 2 x 2
minors, at order 4.  So the minors and replaced matrices that the `D^k g_r`
forms evaluate need no LU.  A floating stack whose expansion overflows
gives those values by LAPACK LU, one whose expansion underflows is taken
by LU whole, and from order 5 on a floating stack runs LU.  An exact stack
of every order runs `det_bareiss`: det_batch itself on int64 residues mod
primes, through the one multimodular lift of exact values
(`permanent.modular_values`), which recovers them by the Chinese remainder
theorem.  Given the primes of a residue stack (`mod`), as there and in the
exact closed forms, det_batch reduces every product of the expansions mod
p, and from order 5 takes the last coefficient g_n of Berkowitz's
division-free recurrence (`_berkowitz`); no residue determinant needs a
modular inverse.  `det_bareiss` with minors r lifts g_r, the sum of r x r
principal minors: its residue kernel sums the expanded minors of each whole
image (`principal_minor_sums`) through r = 3 and takes `_berkowitz`'s g_r
from r = 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .multiindex import MultiIndex, enumerate_strict, enumerate_weak, index_plan, multiplicity
from .permanent import budget_length, complement_permanents, in_slices, map_blocks, modular_values, per_batch
# no block here calls per; `tensor.per` stays bound for code that wraps or
# patches the evaluator under each module's name for it (bench/tracing.py)
from .permanent import per  # noqa: F401
from .scalars import (
    divided,
    is_exact,
    matmul,
    moduli,
    product,
    require_square,
    require_square_stack,
    residues,
    to_complex,
    total,
)

_EXPANDED = 4  # the largest order of `det_batch`'s division-free expansions
_MINOR_SUMS = 3  # the largest r whose residue g_r sums principal minors, not `_berkowitz`


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


def det_bareiss(A, minors: int | None = None):
    """Determinants of an (..., n, n) exact stack, from their values mod primes.

    The stack runs through the multimodular lift of exact values
    (`permanent.modular_values`) with the residue branch of `det_batch` as
    its kernel, so the values are exact, `Fraction` entries included, and
    keep int parts while integral.  A single matrix gives a scalar.

    Given minors = r, each matrix gives instead g_r, the sum of its r x r
    principal minors, lifted as one value of degree r: the kernel sums the
    expanded minors of each residue image up to order `_MINOR_SUMS`
    (`principal_minor_sums`), and takes `_berkowitz`'s g_r of the whole
    image beyond.
    """
    A = np.asarray(A)
    items = A.reshape(math.prod(A.shape[:-2]), *A.shape[-2:])
    if minors is None:
        return modular_values(items, A.shape[-1], det_batch).reshape(A.shape[:-2])[()]

    def g(images, mod):  # (c,): g_r of each image mod p
        if minors > _MINOR_SUMS:
            return _berkowitz(images, mod)[..., minors]
        return principal_minor_sums(images, minors, mod)

    return modular_values(items, minors, g).reshape(A.shape[:-2])[()]


def det_batch(mats: np.ndarray, mod=None) -> np.ndarray:
    """Determinants of a stack of k x k matrices, in the stack's mode.

    An exact (object) stack of every order runs `det_bareiss`, which lifts
    its values mod primes from the residue branch below, and returns
    ExactComplex values, int parts while integral.  Both other modes take
    the same division-free expansions through order `_EXPANDED`: 1 and a at
    orders 0 and 1, a d - b c at order 2, the cofactor expansion along row 0
    at order 3 and the Laplace expansion along rows 0 and 1 at order 4
    (`_expansion`).  A floating stack returns complex128; its expansion runs
    with overflow, invalid operations and underflow trapped: the values that
    overflow come out non-finite and are taken by LAPACK LU, and a stack in
    which an intermediate underflows, and so loses its precision in the
    subnormal range, is taken by LU whole.  From order 5 on it runs LU.
    Given mod, the stack holds residues in [0, p), p < 2^31, and so do its
    values: each product of the expansions is reduced mod p, and orders
    >= 5 are g_n of `_berkowitz`, which divides nowhere.
    """
    mats = require_square_stack(mats)
    k = mats.shape[-1]
    if mod is not None:
        mod = moduli(mod, mats.shape[:-2])
    elif is_exact(mats):
        return det_bareiss(mats)
    else:
        mats = mats.astype(complex, copy=False)
    if k < 2:
        return mats[..., 0, 0].copy() if k else np.ones(mats.shape[:-2], dtype=mats.dtype)
    if k > _EXPANDED:
        return np.linalg.det(mats) if mod is None else _berkowitz(mats, mod)[..., k]
    if mod is not None:
        return _expansion(mats, mod)
    try:
        with np.errstate(over="raise", invalid="raise", under="raise"):
            return _expansion(mats)
    except FloatingPointError:
        pass
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            with np.errstate(under="raise"):
                dets = np.array(_expansion(mats))
        except FloatingPointError:  # a subnormal intermediate: the whole stack by LU
            return np.linalg.det(mats)
        bad = ~np.isfinite(dets)  # an overflow leaves inf or nan in its value, as nothing divides
        dets[bad] = np.linalg.det(mats[bad])
    return dets


def _expansion(mats, mod=None) -> np.ndarray:
    """det of each matrix of a stack of order 2, 3 or 4, with no division.

    Order 2 is a d - b c, order 3 the cofactor expansion along row 0 and
    order 4 the Laplace expansion along rows 0 and 1, six products of
    complementary 2 x 2 minors.  Orders 3 and 4 gather the entries of their
    terms with one `np.take` (`_TERM_ENTRIES`), term first, and add the terms
    one after another, elementwise, so that a matrix of a stack gets bit for
    bit its value alone.  Given mod, every minor and product is reduced mod p,
    so each stays below 2^62.
    """
    k = mats.shape[-1]
    if k == 2:
        return _reduced(mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0], mod)
    mod = None if mod is None else mod.ravel()
    entries = np.take(mats.reshape(-1, k * k).T, _TERM_ENTRIES[k], axis=0)  # (f, t, matrices)
    minors = _reduced(_minors(entries[-4:]), mod)
    lead = entries[0] if k == 3 else _reduced(_minors(entries[:4]), mod)
    terms = _reduced(lead * minors, mod)
    dets = terms[0]
    for term in terms[1:]:
        dets = dets + term
    return _reduced(dets, mod).reshape(mats.shape[:-2])[()]


def _minors(entries):
    """a d - b c for the stacked entries a, d, b, c."""
    a, d, b, c = entries
    return a * d - b * c


def _minor_entries(row: int, pairs, k: int) -> list[np.ndarray]:
    """The flat indices i k + j of a, d, b, c of the minors a d - b c on rows
    row, row + 1 and each column pair (a, b) of `pairs`, for order k."""
    (a, b), top = np.array(pairs).T, row * k
    return [top + a, top + k + b, top + b, top + k + a]


# the terms of `_expansion`: row 0's entry at order 3, or the minor of rows 0,
# 1 on the column pair, times the minor of the last two rows on the
# complementary columns, ordered so that each term's sign is +
_TERM_ENTRIES = {
    3: np.array([[0, 1, 2], *_minor_entries(1, [(1, 2), (2, 0), (0, 1)], 3)]),
    4: np.array([
        *_minor_entries(0, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4),
        *_minor_entries(2, [(2, 3), (3, 1), (1, 2), (0, 3), (2, 0), (0, 1)], 4),
    ]),
}


def _reduced(x, mod):
    """x mod p, mod broadcast along x's trailing axes (`residues` takes it on the leading ones)."""
    return x if mod is None else x % mod


def _berkowitz(A, mod=None) -> np.ndarray:
    """(..., n + 1): 1, g_1, ..., g_n of each matrix of an (..., n, n) stack, with no division.

    Berkowitz's recurrence (S. J. Berkowitz, IPL 18 (1984)), run on N = -A,
    whose characteristic polynomial is x^n + g_1 x^{n-1} + ... + g_n: the
    leading (k + 1) x (k + 1) block of N is its leading k x k block N_k
    bordered by the column c_k, the row r_k and the corner m_k, and its
    coefficients are those of N_k times the (k + 2) x (k + 1) lower
    triangular Toeplitz matrix with first column
    (1, -m_k, -r_k c_k, -r_k N_k c_k, ..., -r_k N_k^{k-1} c_k).  Column k of
    W_0 = triu(N, 1) is c_k, and column k of W_{j+1} = triu(N W_j, 1) is
    N_k^{j+1} c_k, so each product N W_j holds r_k N_k^j c_k for every k at
    once, on its diagonal.  Given mod, A holds residues and the prime of each
    matrix, and every step runs mod that prime; then g_n is the residue
    determinant that `det_batch` returns from order 4 on.
    """
    N = residues(-A, mod)
    n = N.shape[-1]
    upper, toeplitz = _berkowitz_plan(n)
    # row k: the first column of the Toeplitz matrix of step k, then zeros
    columns = np.zeros(N.shape[:-2] + (n, n + 2), N.dtype)
    columns[..., 1] = N.diagonal(0, -2, -1)
    W = N * upper
    for j in range(2, n + 1):
        NW = matmul(N, W, mod)
        columns[..., j] = NW.diagonal(0, -2, -1)
        W = NW * upper
    columns = residues(-columns, mod)
    columns[..., 0] = 1
    p = np.ones(N.shape[:-2] + (1, 1), N.dtype)
    for k in range(n):
        # toeplitz[:k + 2, :k + 1] indexes row k, with -1 at the zeros above the diagonal
        p = matmul(columns[..., k, toeplitz[:k + 2, :k + 1]], p, mod)
    return p[..., 0]


@lru_cache(maxsize=None)
def _berkowitz_plan(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The mask of triu(., 1) at order n, and the (n + 1, n) Toeplitz index table.

    Entry (a, b) of the table is a - b on and below the diagonal, and -1 above.
    """
    i = np.arange(n + 1)
    toeplitz = i[:, None] - i[:n]
    toeplitz[toeplitz < 0] = -1
    return i[:n, None] < i[:n], toeplitz


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


def principal_minor_sums(M, r: int, mod=None) -> np.ndarray:
    """g_r, the r x r principal minors summed, of each matrix of an (..., n, n) stack (mod p given mod)."""
    dets = map_restrictions(M, r, lambda MI: det_batch(MI, mod), axis=-1)  # (..., C(n, r))
    # summed over a contiguous axis, a matrix of a stack gives bit for bit its sum alone
    return residues(np.ascontiguousarray(dets).sum(axis=-1), mod)


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

    Every entry comes from one table by Glynn's formula
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
