"""Permanent evaluation and the submatrix machinery built around it.

`per_naive` is the literal sum over all n! permutations and serves as the
independent oracle.  `per` and `per_batch` share one blocked Ryser kernel
in both modes, O(2^n * n) per matrix: the row sums over all subsets of up
to ten columns are formed at once (a product with a cached 0/1 subset
table), and only the subsets of the remaining columns are looped over in
Python.  A stack within one chunk, as a single matrix always is, goes
straight into the kernel, so a scalar `per` costs about one matmul, one row
product and one dot.  An exact stack runs that kernel on int64 images mod
primes p = 1 (mod 4) below 2^31, where i maps to a square root of -1, and its
permanents are lifted back by the Chinese remainder theorem (the classic
multimodular method).  That driver, `_modular_stack`, takes its residue
kernel as an argument; exact determinants (`tensor.det_bareiss`) run through
it with Bareiss's recurrence mod p in place of Ryser's formula.  The
formulas gather their submatrices through `multiindex.index_plan`;
`map_submatrices` gathers the complements of `padj`, `laplace_per` and
`tilde_sym_block` in budgeted slices, one `per` per entry.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .multiindex import MultiIndex, complement, index_plan
from .scalars import (
    ExactComplex,
    exact_from_parts,
    is_exact,
    rational_parts,
    require_square,
    require_square_stack,
    zeros_like_mode,
)

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
    terms = (
        reduce(operator.mul, (A[i, j] for i, j in enumerate(sigma)))
        for sigma in itertools.permutations(range(n))
    )
    return reduce(operator.add, terms)


def per(A):
    """Permanent of a square matrix, by the blocked Ryser kernel in A's mode.

    An exact matrix runs as int64 images mod primes (see `_modular_stack`).
    """
    return _ryser_stack(require_square(A)[None])[0]


def per_batch(mats: np.ndarray) -> np.ndarray:
    """Permanents of a stack of k x k matrices, in the stack's mode.

    A floating stack returns complex128 and an exact (object) stack an object
    array of ExactComplex; both run the one blocked Ryser kernel, an exact
    stack on its int64 images mod primes.
    """
    mats = require_square_stack(mats)
    m, k = mats.shape[:-2], mats.shape[-1]
    return _ryser_stack(mats.reshape(math.prod(m), k, k)).reshape(m)


def _ryser_stack(mats: np.ndarray, mod=None) -> np.ndarray:
    """Permanents of an (m, n, n) stack by Ryser's formula, in its mode.

    A floating stack is cast to complex128.  An object stack is evaluated
    slice by slice (`slice_length`) as int64 images mod primes, by this
    function as the kernel, and lifted back to ExactComplex
    (`_modular_stack`), so its temporaries grow with the number of primes P
    (2P images per matrix) but not with m.  With mod,
    the stack holds those int64 images and mod the modulus of each.  The
    stack is walked in chunks of whole matrices, so no kernel temporary holds
    more than _STACK_BUDGET elements whatever n or m.
    """
    m, n = mats.shape[0], mats.shape[-1]
    exact = mats.dtype == object
    if n == 0:
        return np.full(m, _one(mats), dtype=object if exact else complex)
    if mod is None and exact:
        return _modular_stack(mats, _ryser_stack)
    if mod is None:
        mats = mats.astype(complex, copy=False)
    b, bits, signs, chunk = _ryser_plan(n, _LOW_COLUMNS, _STACK_BUDGET, mats.dtype)
    if m <= chunk:  # one chunk, as for a single matrix: no slice and no closure
        return _ryser_block(mats, b, bits, signs, mod)
    return in_slices(
        lambda s: _ryser_block(mats[s], b, bits, signs, None if mod is None else mod[s]), m, chunk
    )


def in_slices(evaluate, count: int, step: int, axis: int = 0) -> np.ndarray:
    """evaluate(s) for the slices s of range(count) of length step, joined along axis.

    A count within one step is evaluated as evaluate(slice(None)), with no copy.
    """
    if count <= step:
        return evaluate(slice(None))
    return np.concatenate([evaluate(slice(s, s + step)) for s in range(0, count, step)], axis=axis)


def budget_length(elements: int) -> int:
    """How many items of `elements` elements each one slice holds: at least 1."""
    return max(_STACK_BUDGET // max(elements, 1), 1)


def slice_length(n: int) -> int:
    """Matrices of order n per slice when a stack is built and evaluated in parts.

    A slice holds at most _STACK_BUDGET elements (more only when the kernel
    puts more in one chunk) and whole kernel chunks, so a stack evaluated
    slice by slice runs in the same chunks, bit for bit, as in one call.
    """
    chunk = _ryser_plan(n, _LOW_COLUMNS, _STACK_BUDGET)[3]
    return budget_length(n * n * chunk) * chunk


@lru_cache(maxsize=None)
def _ryser_plan(n: int, low_columns: int, budget: int, dtype=complex):
    """Split of order n: low column count b, its subset table and signs, chunk size.

    bits is the (b, 2^b) 0/1 table of the subsets L of the low columns and
    signs[L] = (-1)^(n + |L|), both of dtype (complex, or int64 for residues);
    b is cut so that n * 2^b <= budget.
    """
    b = max(min(n, low_columns, (budget // n).bit_length() - 1), 0)
    bits = (np.arange(1 << b) >> np.arange(b)[:, None]) & 1
    signs = 1 - 2 * ((n + bits.sum(axis=0)) % 2)
    bits, signs = bits.astype(dtype), signs.astype(dtype)
    bits.flags.writeable = signs.flags.writeable = False  # shared by every caller
    return b, bits, signs, max(budget // (n << b), 1)


def _ryser_block(block, b, bits, signs, mod=None):
    """per A = sum over column sets S of (-1)^(n+|S|) prod_i sum_{j in S} a_ij.

    S splits into a set L of the low b columns and a set T of the other
    n - b.  The row sums of every L come from one product with the subset
    table, and each T, looped over in Python, adds its row sums as a column.

    With mod, the block holds int64 residues below 2^31 and each matrix's
    value is returned mod its modulus.  Row sums are reduced before every
    product and products after it, so a product stays below 2^62, a signed
    sum of 2^b <= 2^10 products below 2^41, and the accumulator is reduced
    after every T.
    """
    c, n = block.shape[0], block.shape[-1]
    low = (block[:, :, :b].reshape(c * n, b) @ bits).reshape(c, n, 1 << b)
    if mod is not None:
        p, rows_p = mod[:, None], mod[:, None, None]
        low %= rows_p
    if n > b:
        shifts, sums = np.arange(n - b), np.empty_like(low)
    acc = None
    for t in range(1 << (n - b)):
        rows = low
        if t:
            high = block[:, :, b:] @ ((t >> shifts) & 1)
            rows = np.add(low, high[:, :, None], out=sums)
            if mod is not None:
                rows %= rows_p
        if mod is None:
            prods = rows.prod(axis=1)  # row by row, left to right, as a loop of *=
        else:
            prods = rows[:, 0]
            for i in range(1, n):
                prods = prods * rows[:, i] % p
        term = prods.dot(signs)
        if t.bit_count() % 2:
            term = -term
        acc = term if acc is None else acc + term
        if mod is not None:
            acc %= mod
    return acc


def _modular_stack(mats: np.ndarray, kernel) -> np.ndarray:
    """The values of an exact (m, n, n) stack from int64 images mod primes.

    kernel(images, mod) maps an int64 stack of residues, and the prime of
    each matrix, to its values mod those primes: `_ryser_stack` for per and
    `tensor._bareiss_residues` for det.  The stack is walked in slices of
    `slice_length(n)`.  Each row is scaled by the lcm of its denominators
    (per and det are multilinear in the rows) and the result divided by the
    product of the scales.  The parts of every value are bounded by
    prod_i sum_j (|re_ij| + |im_ij|), which bounds per |A| and so |det A|
    too, and primes are taken until their product M exceeds twice that
    (Hadamard's row 2-norm bound holds for det, not per: per J_4 = 24 > 16 =
    its bound).  As s^2 = -1 (mod p), the images re + s im and re - s im
    (mod p) have values u = R + s I and v = R - s I; R = (u + v) / 2 and
    I = (u - v) / 2s are combined over the primes by the Chinese remainder
    theorem and lifted to (-M/2, M/2].  Matrices of order 0 give 1.  A
    TypeError is raised when an entry is not a Gaussian rational.
    """
    m, n = mats.shape[0], mats.shape[-1]
    if n == 0:
        return np.full(m, ExactComplex(1), dtype=object)
    if m > slice_length(n):
        return in_slices(lambda s: _modular_stack(mats[s], kernel), m, slice_length(n))
    re, im = rational_parts(mats.ravel().tolist())
    scales = _clear_rows(re, im, n) if {*map(type, re), *map(type, im)} - {int} else [1] * m
    try:
        cleared = np.array([re, im], dtype=np.int64)
        mags = np.abs(cleared).view(np.uint64)  # exact, also |-2^63|
    except OverflowError:  # parts beyond int64 stay Python ints until reduced mod p
        cleared = np.array([re, im], dtype=object)
        mags = np.abs(cleared)
    rows = mags.reshape(2, m * n, n).sum(axis=(0, 2), dtype=object)  # in Python ints
    bound = rows.reshape(m, n).prod(axis=1).max(initial=0)
    p, signed_s, halves, weights, M = _crt_plan(_prime_count(2 * bound))
    cleared = (cleared % p).astype(np.int64, copy=False)  # (P, 2, m n n)
    images = (cleared[:, :1] + cleared[:, 1:] * signed_s) % p  # re + s im and re - s im
    uv = kernel(images.reshape(-1, n, n), np.repeat(p.ravel(), 2 * m)).reshape(len(p), 2, m)
    u, v = uv[:, :1], uv[:, 1:]
    RI = np.concatenate([u + v, u - v], axis=1) * halves % p  # (u + v) / 2 and (u - v) / 2s
    R, I = (
        [_lift(sum(map(operator.mul, weights, residues)) % M, M) for residues in zip(*x)]
        for x in RI.transpose(1, 0, 2).tolist()
    )
    if any(d != 1 for d in scales):
        R, I = ([Fraction(x, d) for x, d in zip(X, scales)] for X in (R, I))
    return exact_from_parts(R, I)


def _clear_rows(re: list, im: list, n: int) -> list[int]:
    """Scale each row of n parts, in place, by the lcm of its denominators.

    The parts become ints; returns each matrix's product of row scales.
    """
    scales = []
    for r in range(0, len(re), n):
        scale = math.lcm(*(x.denominator for x in re[r:r + n] + im[r:r + n]))
        for parts in (re, im):
            parts[r:r + n] = [x.numerator * (scale // x.denominator) for x in parts[r:r + n]]
        scales.append(scale)
    return [math.prod(scales[i:i + n]) for i in range(0, len(scales), n)]


def _lift(x: int, M: int) -> int:
    """The representative of x mod M in (-M/2, M/2]."""
    return x - M if x > M // 2 else x


def _prime_count(bound: int) -> int:
    """The fewest leading primes of the moduli (at least one) whose product exceeds bound."""
    count, product = 0, 1
    while not count or product <= bound:
        product *= _modulus(count)[0]
        count += 1
    return count


@lru_cache(maxsize=None)
def _crt_plan(count: int):
    """The first `count` moduli as arrays: primes p (P, 1, 1), s and -s
    (P, 2, 1), 1/2 and 1/2s mod p (P, 2, 1), the CRT weights (w = 1 mod p,
    0 mod every other prime) and the product M of the primes."""
    moduli = [_modulus(i) for i in range(count)]
    M = math.prod(q for q, _ in moduli)
    p = np.array([q for q, _ in moduli], dtype=np.int64)[:, None, None]
    signed_s = np.array([[[t], [-t]] for _, t in moduli], dtype=np.int64)
    halves = np.array([[[(q + 1) // 2], [pow(2 * t, -1, q)]] for q, t in moduli], dtype=np.int64)
    for a in (p, signed_s, halves):
        a.flags.writeable = False  # shared by every caller
    return p, signed_s, halves, [M // q * pow(M // q, -1, q) for q, _ in moduli], M


@lru_cache(maxsize=None)
def _modulus(i: int) -> tuple[int, int]:
    """The i-th of the primes p = 1 (mod 4) below 2^31, largest first, with
    an s where s^2 = -1 (mod p).  Each is found on first use, so importing
    finds none."""
    q = (_modulus(i - 1)[0] if i else 1 << 31) - 1
    q -= (q - 1) % 4
    while not np.all(q % np.arange(3, math.isqrt(q) + 1, 2)):  # trial division
        q -= 4
    a = 2
    while pow(a, (q - 1) // 2, q) != q - 1:  # a quadratic non-residue
        a += 1
    return q, pow(a, (q - 1) // 4, q)


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
    rows, cols = (np.setdiff1d(np.arange(n), x.zero_based()) for x in (I, J))
    return A[rows[:, None], cols]


def map_submatrices(A, rows, cols, evaluate) -> np.ndarray:
    """evaluate(A[r|c]), one call each, for every pair of an index row r of `rows` and c of `cols`.

    rows and cols are (..., i) and (..., j) zero-based index arrays whose
    leading shapes broadcast, e.g. `comps[:, None]` and `comps[None, :]` for
    every pair of complements; the result has that shape and A's mode.  The
    submatrices are gathered by one fancy index per slice of
    `budget_length(i * j)` of them.  `evaluate` is a scalar evaluator (`per`).
    """
    A = np.asarray(A)
    shape = np.broadcast_shapes(rows.shape[:-1], cols.shape[:-1])
    rows, cols = (np.broadcast_to(x, shape + x.shape[-1:]) for x in (rows, cols))
    count, dtype = math.prod(shape), object if A.dtype == object else complex

    def values(s):
        at = np.unravel_index(np.arange(*s.indices(count)), shape)
        subs = A[rows[at][:, :, None], cols[at][:, None, :]]
        return np.fromiter(map(evaluate, subs), dtype, len(subs))

    return in_slices(values, count, budget_length(rows.shape[-1] * cols.shape[-1])).reshape(shape)


def laplace_per(A, I: MultiIndex):
    """Laplace expansion along rows I: sum_J per A[I|J] * per A(I|J)."""
    A = require_square(A)
    n = A.shape[0]
    rows, kept = (np.array(x.zero_based(), dtype=np.intp) for x in (I, complement(I, n)))
    plan = index_plan(len(I), n)
    tops = map_submatrices(A, rows, plan.combos, per)
    bottoms = map_submatrices(A, kept, plan.complements, per)
    return reduce(operator.add, map(operator.mul, tops, bottoms))


def padj(A):
    """Permanental adjoint: (i,j)-entry is per A(i|j)."""
    A = require_square(A)
    if A.shape[0] < 1:
        raise ValueError("padj requires n >= 1")
    comps = index_plan(1, A.shape[0]).complements
    return map_submatrices(A, comps[:, None], comps[None, :], per)


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
    plan = index_plan(k, n)
    # row r = s C + c pairs sigma = perms[s] with J = combos[c]; slots[r, j]
    # is the source of column j: slot 0 of `sources` is A, slot p + 1 is X^p.
    # Only the part's rows are built, and one take gathers them by flat index.
    rows = np.arange(*part.indices(len(plan.perms) * len(plan.combos)))
    s, c = np.divmod(rows, max(len(plan.combos), 1))
    slots = np.zeros((len(rows), n), dtype=np.intp)
    slots[np.arange(len(rows))[:, None], plan.combos.take(c, axis=0)] = plan.perms.take(s, axis=0) + 1
    sources = np.concatenate([np.asarray(A)[..., None, :, :], Xs], axis=-3)
    flat = sources.reshape(*sources.shape[:-3], -1)
    return flat.take(slots[:, None, :] * (n * n) + np.arange(n * n).reshape(n, n), axis=-1)


def replacement_values(A, Xs, evaluate) -> np.ndarray:
    """evaluate (`per_batch` or `det_batch`) of `replacement_stack(A, Xs)`: (..., k! C(n,k)).

    The stack is built and evaluated in `slice_length(n)` slices, so memory stays bounded.
    """
    k, n = Xs.shape[-3], Xs.shape[-1]
    return in_slices(
        lambda s: evaluate(replacement_stack(A, Xs, s)), math.perm(n, k), slice_length(n), axis=-1
    )


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
