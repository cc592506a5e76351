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
multimodular method).  Every exact value takes that one lift,
`modular_values`, with its residue kernel as an argument: Ryser's formula
for exact stacks, Bareiss's recurrence mod p for exact determinants
(`tensor.det_bareiss`), or a closed form itself, run once on the images of
all its operands, so that one value is lifted per call.  `per_batch`,
`map_blocks` and `each(per)` take a residue stack with its primes (`mod`)
for that.  The formulas index through `multiindex.index_plan`, and
`map_blocks` gathers and evaluates every block of submatrices in budgeted
slices: `per` of each block (`each`) for `padj`, `laplace_per` and
`tilde_sym_block`.
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
    moduli,
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
        return ExactComplex(1) if is_exact(A) else complex(1.0)
    terms = (
        reduce(operator.mul, (A[i, j] for i, j in enumerate(sigma)))
        for sigma in itertools.permutations(range(n))
    )
    return reduce(operator.add, terms)


def per(A):
    """Permanent of a square matrix, by the blocked Ryser kernel in A's mode.

    An exact matrix runs as int64 images mod primes (see `modular_values`).
    """
    return _ryser_stack(require_square(A)[None])[0]


def per_batch(mats: np.ndarray, mod=None) -> np.ndarray:
    """Permanents of a stack of k x k matrices, in the stack's mode.

    A floating stack returns complex128 and an exact (object) stack an object
    array of ExactComplex; both run the one blocked Ryser kernel, an exact
    stack on its int64 images mod primes.  Given mod, the stack holds residues
    (see `scalars.moduli`) and the values are residues.
    """
    mats = require_square_stack(mats)
    m, k = mats.shape[:-2], mats.shape[-1]
    flat = mats.reshape(math.prod(m), k, k)
    return _ryser_stack(flat, None if mod is None else moduli(mod, m).reshape(-1)).reshape(m)


def _ryser_stack(mats: np.ndarray, mod=None) -> np.ndarray:
    """Permanents of an (m, n, n) stack by Ryser's formula, in its mode.

    A floating stack is cast to complex128.  An object stack is evaluated
    slice by slice (`slice_length`) as int64 images mod primes, by this
    function as the kernel, and lifted back to ExactComplex
    (`modular_values`), so its temporaries grow with the number of primes P
    (2P images per matrix) but not with m.  With mod,
    the stack holds those int64 images and mod the modulus of each.  The
    stack is walked in chunks of whole matrices, so no kernel temporary holds
    more than _STACK_BUDGET elements whatever n or m.
    """
    m, n = mats.shape[0], mats.shape[-1]
    if mats.dtype == object:
        return modular_values(mats, n, math.prod, _ryser_stack)
    if n == 0:
        return np.ones(m, complex if mod is None else np.int64)
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
    chunk = _ryser_plan(n, _LOW_COLUMNS, _STACK_BUDGET)[3] if n else 1
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


def modular_values(M: np.ndarray, degree: int, bound, kernel) -> np.ndarray:
    """The exact values of an (m, ..., n, n) stack of items, from int64 images mod primes.

    An item is one matrix (for per and det) or the operands of a closed form
    (A and the directions), and its value a polynomial in the item's entries,
    homogeneous of `degree`, with integer coefficients after at most
    divisions by integers prime to every modulus.  kernel(images, mod) maps
    a (c, ..., n, n) int64 stack of residues, and the prime of each image, to
    its values mod those primes: `_ryser_stack` for per,
    `tensor._bareiss_residues` for det, or a closed form.  Each item's entries
    are put over one common denominator d and its value divided by d^degree.
    bound(rows) bounds both parts of the value of the integer item from the
    row sums rows_i of |re| + |im| over all of its matrices (n Python ints):
    `math.prod` bounds per and so |det| too (Hadamard's row 2-norm bound holds
    for det, not per: per J_4 = 24 > 16 = its bound), and `_multimodular`
    takes the primes each item needs and lifts its value.  A stack is walked
    in slices of `slice_length(n)` items, and an item without entries (order
    0) has the value 1.  TypeError when an entry is not a Gaussian rational.
    """
    m, n = M.shape[0], M.shape[-1]
    if not M.size:
        return np.full(m, ExactComplex(1), dtype=object)
    if m > slice_length(n):
        return in_slices(lambda s: modular_values(M[s], degree, bound, kernel), m, slice_length(n))
    re, im = rational_parts(M.ravel().tolist())
    scales, size = [1] * m, len(re) // m
    if {*map(type, re), *map(type, im)} - {int}:
        for i in range(m):
            item = slice(i * size, (i + 1) * size)
            d = math.lcm(*(x.denominator for x in re[item] + im[item]))
            for parts in (re, im):
                parts[item] = [x.numerator * (d // x.denominator) for x in parts[item]]
            scales[i] = d**degree
    try:
        parts = np.array([re, im], dtype=np.int64)
        mags = np.abs(parts).view(np.uint64)  # exact, also |-2^63|
    except OverflowError:  # parts beyond int64 stay Python ints until reduced mod p
        parts = np.array([re, im], dtype=object)
        mags = np.abs(parts)
    # row i of each item, summed over its matrices, in Python ints
    rows = mags.reshape(2, m, -1, n, n).sum(axis=(0, 2, 4), dtype=object).tolist()
    R, I = _multimodular(parts.reshape(2, *M.shape), map(bound, rows), kernel)
    if any(d != 1 for d in scales):
        R, I = ([Fraction(x, d) for x, d in zip(X, scales)] for X in (R, I))
    return exact_from_parts(R, I)


def _multimodular(parts: np.ndarray, bounds, kernel) -> tuple[list, list]:
    """The integer values of m items, real and imaginary parts, from images mod primes.

    parts is a (2, m, ...) array of the int parts (re and im) of each item's
    operands, and bounds[i] bounds both parts of item i's value.  Item i
    takes the fewest primes p = 1 (mod 4) whose product M exceeds twice its
    bound; items that need the same count form a group, and the images of
    every group go to one call kernel(images, mod), which maps a (c, ...)
    int64 stack of residues and the prime of each to its values mod those
    primes.  As s^2 = -1 (mod p), the images re + s im and re - s im (mod p)
    have values u = R + s I and v = R - s I; R = (u + v) / 2 and
    I = (u - v) / 2s are combined over the primes by the Chinese remainder
    theorem and lifted to (-M/2, M/2].
    """
    m, shape = parts.shape[1], parts.shape[2:]
    bounds = list(bounds)
    count = _prime_count(2 * max(bounds))
    groups = [(count, np.arange(m))]
    if m > 1 and _prime_count(2 * min(bounds)) != count:
        counts = np.array([_prime_count(2 * b) for b in bounds])
        groups = [(c, np.flatnonzero(counts == c)) for c in np.unique(counts).tolist()]
    images, mods = [], []
    for count, at in groups:
        p, signed_s = _crt_plan(count)[:2]
        group = (parts if len(groups) == 1 else parts[:, at]).reshape(2, -1)
        group = (group % p).astype(np.int64, copy=False)  # (P, 2, size)
        images.append(((group[:, :1] + group[:, 1:] * signed_s) % p).reshape(-1, *shape))
        mods.append(np.repeat(p.ravel(), 2 * len(at)))
    values = kernel(*(x[0] if len(x) == 1 else np.concatenate(x) for x in (images, mods)))
    RI, start = np.empty((2, m), dtype=object), 0
    for count, at in groups:
        p, _, halves = _crt_plan(count)[:3]
        uv = values[start:start + 2 * count * len(at)].reshape(count, 2, len(at))
        start += uv.size
        u, v = uv[:, :1], uv[:, 1:]
        residues = np.concatenate([u + v, u - v], axis=1) * halves % p  # (u + v) / 2 and (u - v) / 2s
        RI[:, at] = _crt_lift(residues.reshape(count, -1), count).reshape(2, -1)
    return RI.tolist()


def _crt_lift(residues: np.ndarray, count: int) -> np.ndarray:
    """The integers in (-M/2, M/2] with the given residues mod each of the first
    `count` primes, M being their product: residues is (count, c) int64.

    Garner's algorithm: the mixed-radix digits x = d_0 + p_0 (d_1 + p_1 (d_2 + ...))
    with 0 <= d_j < p_j come from int64 products below 2^62, and x is assembled
    in int64 for up to two primes (x < p_0 p_1 < 2^62) and in Python ints beyond.
    """
    primes, inverses, M = _crt_plan(count)[3:]
    digits = []
    for j, d in enumerate(residues):
        for i, prior in enumerate(digits):  # (a_j - d_0 - p_0 d_1 - ...) / (p_0 ... p_{j-1}) mod p_j
            d = (d - prior) * inverses[j][i] % primes[j]
        digits.append(d)
    if count > 2:
        digits = [d.astype(object) for d in digits]
    x = digits[-1]
    for d, q in zip(digits[-2::-1], primes[-2::-1]):
        x = x * q + d
    return np.where(x > M // 2, x - M, x)


def _prime_count(bound: int) -> int:
    """The fewest leading primes of the moduli (at least one) whose product exceeds bound."""
    count, product = 0, 1
    while not count or product <= bound:
        product *= _modulus(count)[0]
        count += 1
    return count


@lru_cache(maxsize=None)
def _crt_plan(count: int):
    """The first `count` moduli: as arrays, the primes p (P, 1, 1), s and -s
    (P, 2, 1) and 1/2 and 1/2s mod p (P, 2, 1); as Python ints, the primes,
    Garner's inverses (inverses[j][i] = 1/p_i mod p_j for i < j) and the
    product M of the primes."""
    moduli = [_modulus(i) for i in range(count)]
    primes = [q for q, _ in moduli]
    p = np.array(primes, dtype=np.int64)[:, None, None]
    signed_s = np.array([[[t], [-t]] for _, t in moduli], dtype=np.int64)
    halves = np.array([[[(q + 1) // 2], [pow(2 * t, -1, q)]] for q, t in moduli], dtype=np.int64)
    for a in (p, signed_s, halves):
        a.flags.writeable = False  # shared by every caller
    inverses = [[pow(primes[i], -1, q) for i in range(j)] for j, q in enumerate(primes)]
    return p, signed_s, halves, primes, inverses, math.prod(primes)


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
    ri, cj = I.zero_based(), J.zero_based()
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


def map_blocks(M, rows, cols, evaluate, source=None, mod=None) -> np.ndarray:
    """evaluate(M[r|c]) for every pair of an index row r of `rows` and c of `cols`.

    rows and cols are (..., i) and (..., j) zero-based index arrays whose leading
    shapes broadcast, e.g. `comps[:, None]` and `comps[None, :]` for every pair of
    complements.  With a source, M is a (..., d, n, n) stack of directions and
    column m of a block comes from direction source[m], source being a (..., j)
    index into that axis that broadcasts like cols.  evaluate (`per_batch`,
    `det_batch` or `each(per)`) maps a stack of blocks to their values; the result
    has M's leading shape followed by the broadcast shape, and the evaluator's
    dtype.  Given mod, M holds residues and evaluate(blocks, mod) is given the
    prime of each block.  Blocks beyond one slice of `slice_length(j)` are gathered into
    one buffer and evaluated slice by slice in flat order, so a floating stack
    runs in the same kernel chunks, bit for bit, as in one call; a slice of
    residue images holds as many blocks of each image.
    """
    M = np.asarray(M)
    picks = () if source is None else (source,)
    lead, step = M.shape[:M.ndim - 2 - len(picks)], slice_length(cols.shape[-1])
    primes = () if mod is None else (mod,)
    step *= 1 if mod is None else mod.size  # the same blocks of every image
    # the block count, or more where rows and cols share an axis
    if math.prod(lead) * math.prod(rows.shape[:-1]) * math.prod(cols.shape[:-1]) <= step:
        picked = (x[..., None, :] for x in picks)
        return evaluate(M[(..., *picked, rows[..., :, None], cols[..., None, :])], *primes)
    shape = lead + np.broadcast_shapes(rows.shape[:-1], cols.shape[:-1])
    count = math.prod(shape)
    if mod is not None:
        primes = (moduli(mod, shape).reshape(-1),)
    # flat offsets into M of each block's rows, with M's leading axes, and columns
    M = np.ascontiguousarray(M)
    strides = [s // M.itemsize for s in M.strides]
    axes = (np.arange(d).reshape(-1, *[1] * (len(shape) - p)) for p, d in enumerate(lead))
    left = rows * strides[-2] + sum(a * stride for a, stride in zip(axes, strides))
    right = cols * strides[-1] + sum(x * strides[-3] for x in picks)
    # the buffers serve every slice, so that no slice maps fresh memory; the
    # index, an int per element, is built for a quarter of a slice at a time,
    # and is in range by construction, so `take` may clip and skip its own copy
    blocks = np.empty((step, rows.shape[-1], cols.shape[-1]), M.dtype)
    index, width = np.empty((-(-step // 4), *blocks.shape[1:]), np.intp), shape[-1]

    def gather(start, stop):
        first = start // width
        at = np.unravel_index(np.arange(first, -(-stop // width)), (1, *shape[:-1]))
        lefts, rights = (  # cut from the whole rows of the last axis that cover the slice
            np.broadcast_to(x, (1, *shape, x.shape[-1]))[at].reshape(-1, x.shape[-1])
            [start - first * width:] for x in (left, right)
        )
        for lo in range(0, stop - start, len(index)):
            hi = min(lo + len(index), stop - start)
            np.add(lefts[lo:hi, :, None], rights[lo:hi, None, :], out=index[:hi - lo])
            np.take(M.reshape(-1), index[:hi - lo], out=blocks[lo:hi], mode="clip")
        return blocks[:stop - start]

    out = None
    for start in range(0, count, step):
        stop = min(start + step, count)
        part = evaluate(gather(start, stop), *(x[start:stop] for x in primes))
        if out is None:
            out = np.empty(shape, part.dtype)
        out.reshape(-1)[start:stop] = part
    # numpy writes an operator's result into an operand that is a temporary
    # owning its data, which can round a complex product differently; so the
    # result owns its data just when the evaluator's results do
    return out if part.flags.owndata else out[...]


def each(evaluate):
    """The stack evaluator that calls the scalar `evaluate` (`per`) once for each matrix.

    A residue stack, given with its primes, goes whole to `per_batch`.
    """
    def values(mats, mod=None):
        if mod is not None:
            return per_batch(mats, mod)
        flat = mats.reshape(math.prod(mats.shape[:-2]), *mats.shape[-2:])
        dtype = object if mats.dtype == object else complex
        return np.fromiter(map(evaluate, flat), dtype, len(flat)).reshape(mats.shape[:-2])
    return values


def laplace_per(A, I: MultiIndex):
    """Laplace expansion along rows I: sum_J per A[I|J] * per A(I|J)."""
    A = require_square(A)
    n = A.shape[0]
    rows, kept = (np.array(x.zero_based(), dtype=np.intp) for x in (I, complement(I, n)))
    plan = index_plan(len(I), n)
    tops = map_blocks(A, rows, plan.combos, each(per))
    bottoms = map_blocks(A, kept, plan.complements, each(per))
    return reduce(operator.add, map(operator.mul, tops, bottoms))


def padj(A):
    """Permanental adjoint: (i,j)-entry is per A(i|j)."""
    A = require_square(A)
    if A.shape[0] < 1:
        raise ValueError("padj requires n >= 1")
    comps = index_plan(1, A.shape[0]).complements
    return map_blocks(A, comps[:, None], comps[None, :], each(per))


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


def replacement_values(A, Xs, evaluate, mod=None) -> np.ndarray:
    """evaluate (`per_batch` or `det_batch`) of `replacement_stack(A, Xs)`: (..., k! C(n,k)).

    The stack is built and evaluated in `slice_length(n)` slices, so memory
    stays bounded.  Given mod, A and Xs hold residues, and a slice holds its
    matrices of every image.
    """
    k, n = Xs.shape[-3], Xs.shape[-1]
    primes = () if mod is None else (mod,)
    return in_slices(
        lambda s: evaluate(replacement_stack(A, Xs, s), *primes), math.perm(n, k), slice_length(n), axis=-1
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

