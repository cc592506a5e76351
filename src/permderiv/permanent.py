"""Permanent evaluation and the submatrix machinery built around it.

`per_naive` is the literal sum over all n! permutations and serves as the
independent oracle.  `per` and `per_batch` share one blocked Ryser kernel
in both modes, O(2^n * n) per matrix: the row sums over all subsets of up
to ten columns are formed at once (a product with a cached 0/1 subset table
on floats, one addition per subset on exact entries), and only the subsets
of the remaining columns are looped over in Python.  The products, signs
and chunking are the same for a complex128 stack and an ExactComplex one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .multiindex import MultiIndex, enumerate_strict, index_plan
from .scalars import ExactComplex, is_exact, require_square, zeros_like_mode

NAIVE_MAX_N = 10
_LOW_COLUMNS = 10  # at most this many columns go into the cached subset table
_STACK_BUDGET = 1 << 16  # complex elements in one kernel temporary


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


def per(A):
    """Permanent of a square matrix, by the blocked Ryser kernel in A's mode."""
    return _ryser_stack(require_square(A)[None])[0]


def per_batch(mats: np.ndarray) -> np.ndarray:
    """Permanents of a stack of k x k matrices, in the stack's mode.

    A floating stack returns complex128 and an exact (object) stack an object
    array; both run the one blocked Ryser kernel.
    """
    mats = np.asarray(mats)
    m, k = mats.shape[:-2], mats.shape[-1]
    return _ryser_stack(mats.reshape(math.prod(m), k, k)).reshape(m)


def _ryser_stack(mats: np.ndarray) -> np.ndarray:
    """Permanents of an (m, n, n) stack by Ryser's formula, in its mode.

    A floating stack is cast to complex128 and an object stack stays object.
    The stack is walked in chunks of whole matrices, so no temporary holds
    more than _STACK_BUDGET elements whatever n or m.
    """
    if not is_exact(mats):
        mats = np.asarray(mats, dtype=complex)
    m, n = mats.shape[0], mats.shape[-1]
    if n == 0:
        return np.full(m, _one(mats), dtype=mats.dtype)
    b, bits, signs, chunk = _ryser_plan(n, _LOW_COLUMNS, _STACK_BUDGET)
    if m <= chunk:
        return _ryser_block(mats, b, bits, signs)
    return np.concatenate(
        [_ryser_block(mats[s:s + chunk], b, bits, signs) for s in range(0, m, chunk)]
    )


def slice_length(n: int) -> int:
    """Matrices of order n per slice when a stack is built and evaluated in parts.

    A slice holds at most _STACK_BUDGET elements (more only when the kernel
    puts more in one chunk) and whole kernel chunks, so a stack evaluated
    slice by slice runs in the same chunks, bit for bit, as in one call.
    """
    chunk = _ryser_plan(n, _LOW_COLUMNS, _STACK_BUDGET)[3]
    return max(_STACK_BUDGET // (n * n * chunk), 1) * chunk


@lru_cache(maxsize=None)
def _ryser_plan(n: int, low_columns: int, budget: int):
    """Split of order n: low column count b, its subset table and signs, chunk size.

    bits is the (b, 2^b) 0/1 table of the subsets L of the low columns and
    signs[L] = (-1)^(n + |L|); b is cut so that n * 2^b <= budget.
    """
    b = max(min(n, low_columns, (budget // n).bit_length() - 1), 0)
    bits = (np.arange(1 << b) >> np.arange(b)[:, None]) & 1
    signs = 1 - 2 * ((n + bits.sum(axis=0)) % 2)
    bits, signs = bits.astype(complex), signs.astype(complex)
    bits.flags.writeable = signs.flags.writeable = False  # shared by every caller
    return b, bits, signs, max(budget // (n << b), 1)


def _ryser_block(block, b, bits, signs):
    """per A = sum over column sets S of (-1)^(n+|S|) prod_i sum_{j in S} a_ij.

    S splits into a set L of the low b columns and a set T of the other
    n - b.  The row sums of every L come from one product with the subset
    table on a floating block and, on an exact block, by doubling: the sets
    holding column j are those without it plus column j, one addition per
    entry.  Each T, looped over in Python, adds its row sums as a column.
    """
    c, n = block.shape[0], block.shape[-1]
    exact = block.dtype == object
    if exact:
        low = np.empty((c, n, 1 << b), dtype=object)
        low[..., 0] = ExactComplex(0)
        for j in range(b):
            np.add(low[..., :1 << j], block[:, :, j, None], out=low[..., 1 << j:2 << j])
        plus = signs.real > 0
    else:
        low = (block[:, :, :b].reshape(c * n, b) @ bits).reshape(c, n, 1 << b)
    shifts = np.arange(n - b)
    sums = np.empty_like(low) if n > b else None
    acc = None
    for t in range(1 << (n - b)):
        rows = low
        if t:
            high = block[:, :, b:] @ ((t >> shifts) & 1)
            rows = np.add(low, high[:, :, None], out=sums)
        prods = rows[:, 0] if n == 1 else rows[:, 0] * rows[:, 1]
        for i in range(2, n):
            prods *= rows[:, i]
        if exact:  # adding and subtracting costs no ExactComplex multiplication
            term = prods[:, plus].sum(axis=-1) - prods[:, ~plus].sum(axis=-1)
        else:
            term = prods.dot(signs)
        if bin(t).count("1") % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


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
    for index in (I, J):
        if index.entries and (index.entries[0] < 1 or index.entries[-1] > n):
            raise ValueError(f"entries {index.entries} out of range [1..{n}]")
    return A[_kept(n, I.entries)[:, None], _kept(n, J.entries)]


@lru_cache
def _kept(n: int, entries: tuple[int, ...]) -> np.ndarray:
    """The zero-based indices of [1..n] minus the 1-based entries, read-only."""
    kept = np.array([i for i in range(n) if i + 1 not in entries], dtype=np.intp)
    kept.flags.writeable = False  # shared by every caller
    return kept


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


def replacement_stack(A, Xs, part=slice(None)):
    """Every A(J; X^sigma) for sigma in S_k and J in Q_{k,n}, sigma outermost.

    A is (..., n, n) and Xs is (..., k, n, n); the result is a
    (..., k! C(n,k), n, n) stack in the common mode of A and Xs, or only the
    `part` slice of it.
    """
    k, n = Xs.shape[-3], Xs.shape[-1]
    # slot 0 of `sources` is A, slot p + 1 is X^p; slots[m, j] picks column j's slot
    sources = np.concatenate([np.asarray(A)[..., None, :, :], Xs], axis=-3)
    slots = index_plan(k, n).slots[part]
    return sources[..., slots[:, None, :], np.arange(n)[:, None], np.arange(n)]


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
    return ExactComplex(1) if is_exact(A) else complex(1.0)
