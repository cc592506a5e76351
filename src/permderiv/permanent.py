"""Permanent evaluation and the submatrix machinery built around it.

`per_naive` is the literal sum over all n! permutations and serves as the
independent oracle.  Every other permanent runs Glynn's formula.  `per` and
`per_batch` share one blocked kernel of it in both modes, O(2^(n-1) * n) per
matrix: the row sums over all sign patterns of up to ten columns (the first
fixed at +1) are formed at once (a product with a cached +-1 table), and
only the patterns of the remaining columns are looped over in Python.
Glynn's terms are centred, so on a positive matrix they do not cancel as
subset sums of entries of one sign do.  A floating matrix of up to ten
columns skips the stack and runs the kernel's calls on itself, so a scalar
`per` is one matmul, one row product and one dot, with the scale 2^(1-n)
folded into the signs.  The kernel takes that same dot for each matrix of
a stack, so a floating permanent depends only on its matrix: it has the
same bits alone, in any stack and in any slice of one.  An exact stack
runs that kernel on int64 images mod primes p = 1 (mod 4) below 2^31,
where i maps to a square root of -1, divides by 2^(n-1) mod p, and its
permanents are lifted back by the Chinese remainder theorem (the classic
multimodular method).  Every exact value takes that one lift,
`modular_values`, which bounds it from its degree, with its residue kernel
as an argument: Glynn's formula for exact stacks,
the residue branch of `tensor.det_batch` for exact determinants
(`tensor.det_bareiss`, which also lifts each matrix's sum of r x r
principal minors from its whole images, one value per matrix for exact
`charpoly.g_r`), or a closed form itself (or the exact "per" interpolation
oracle), run once on the images of all its operands, so one value is lifted
per call.  `per_batch`, `map_blocks`, `per_each` and
`complement_permanents` take a residue stack with its primes (`mod`) for
that.  `complement_permanents` gives per A(I|J) for every pair of k-sets,
for `tensor.tilde_sym_block`, by one Walsh-Hadamard transform of Glynn's
terms per row set I.  Both put the axis they reduce over first, so that
numpy walks contiguous memory: the kernel's row sums are laid out row
first, and the row product multiplies whole rows; the table's are laid out
sign pattern first, and each doubling step and butterfly pass adds whole
slabs.  Every element still takes the same operations in the same order as
in any other layout, so the layout moves no bit.  The formulas index
through `multiindex.index_plan`, and `map_blocks` gathers and evaluates
every block of submatrices in budgeted slices; only `padj` and `dper`
still evaluate theirs with `per_each`: scalar `per` of each floating block,
and one `per_batch` lift of an exact gather.
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
    divided,
    exact_from_parts,
    is_exact,
    moduli,
    rational_parts,
    require_square,
    require_square_stack,
    residues,
    zero_like,
)

NAIVE_MAX_N = 10
_LOW_COLUMNS = 10  # at most this many columns go into the cached sign table
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
    """Permanent of a square matrix, by the blocked Glynn kernel in A's mode.

    A floating matrix whose columns all fit the sign table (n <= 10 at the
    default budget) runs the kernel's three calls on itself; other orders
    take a stack of one.  Either way the value has the bits of `per_batch`
    of any stack that holds the matrix.  An exact matrix runs as int64
    images mod primes (see `modular_values`).
    """
    A = require_square(A)
    if len(A) and A.dtype != object:
        b, deltas, signs = _glynn_plan(len(A), _LOW_COLUMNS, _STACK_BUDGET)[:3]
        if b == len(A):
            return np.multiply.reduce(A.astype(complex, copy=False).dot(deltas), axis=0).dot(signs)
    return _glynn_stack(A[None])[0]


def per_batch(mats: np.ndarray, mod=None) -> np.ndarray:
    """Permanents of a stack of k x k matrices, in the stack's mode.

    A floating stack returns complex128 and an exact (object) stack an object
    array of ExactComplex; both run the one blocked Glynn kernel, an exact
    stack on its int64 images mod primes.  Given mod, the stack holds residues
    (see `scalars.moduli`) and the values are residues.
    """
    mats = require_square_stack(mats)
    m, k = mats.shape[:-2], mats.shape[-1]
    flat = mats.reshape(math.prod(m), k, k)
    return _glynn_stack(flat, None if mod is None else moduli(mod, m).reshape(-1)).reshape(m)


def _glynn_stack(mats: np.ndarray, mod=None) -> np.ndarray:
    """Permanents of an (m, n, n) stack by Glynn's formula, in its mode.

    A floating stack is cast to complex128, and each value has the bits of
    `per` of its matrix.  An object stack is evaluated slice by slice as
    int64 images mod primes, by this function as the kernel, and lifted back
    to ExactComplex (`modular_values`), so its temporaries grow with the
    number of primes P (2P images per matrix) but not with m.  With mod, the
    stack holds those int64 images and mod the odd prime of each, and the
    sums are divided by 2^(n-1) mod p.  The stack is walked in chunks of
    whole matrices, so no kernel temporary holds more than _STACK_BUDGET
    elements whatever n or m.
    """
    m, n = mats.shape[0], mats.shape[-1]
    if mats.dtype == object:
        return modular_values(mats, n, _glynn_stack)
    if n == 0:
        return np.ones(m, complex if mod is None else np.int64)
    if mod is None:
        mats = mats.astype(complex, copy=False)
    b, deltas, signs, chunk = _glynn_plan(n, _LOW_COLUMNS, _STACK_BUDGET, mats.dtype)
    values = in_slices(
        lambda s: _glynn_block(mats[s], b, deltas, signs, None if mod is None else mod[s]), m, chunk
    )
    return values if mod is None else divided(values, 1 << (n - 1), mod)


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


@lru_cache(maxsize=None)
def _glynn_plan(n: int, low_columns: int, budget: int, dtype=complex):
    """Split of order n: low column count b, its sign table and signs, chunk size.

    deltas is the (b, 2^(b-1)) +-1 table of the sign patterns delta of the
    low columns with delta_1 = +1, and signs[L] = prod_j delta_j(L), scaled
    by 2^(1-n) for a floating dtype (exact in binary floating point), both of
    dtype (complex, or int64 for residues); b >= 1 is cut so that
    n * 2^(b-1) <= budget.
    """
    b = max(min(n, low_columns, (budget // n).bit_length()), 1)
    flips = (np.arange(1 << (b - 1)) >> np.arange(b - 1)[:, None]) & 1
    deltas = np.vstack([np.ones(1 << (b - 1), flips.dtype), 1 - 2 * flips])
    signs = 1 - 2 * (flips.sum(axis=0) % 2)
    deltas, signs = deltas.astype(dtype), signs.astype(dtype)
    if dtype != np.int64:
        signs *= 2.0 ** (1 - n)
    deltas.flags.writeable = signs.flags.writeable = False  # shared by every caller
    return b, deltas, signs, max(budget // (n << (b - 1)), 1)


def _glynn_block(block, b, deltas, signs, mod=None):
    """per A = 2^(1-n) sum over delta in {+-1}^n, delta_1 = 1, of
    (prod_k delta_k) prod_i sum_j delta_j a_ij (D. G. Glynn, European
    J. Combin. 31 (2010)).

    delta splits into a pattern L of the low b columns and a pattern T of the
    other n - b.  The row sums of every L come from one product with the sign
    table, and each T, looped over in Python, adds every high column, signed,
    to them.  A floating block's signs carry the factor 2^(1-n).  The row
    sums are laid out (n, c, 2^(b-1)), row first, so the product over the
    rows multiplies contiguous (c, 2^(b-1)) slabs, one row after the other:
    the same *= per element as along a middle axis.  The product with the
    sign table gives a row the same sums wherever the row stands among its
    operand's rows.  T's high-column sums are still formed on the
    untransposed block, as a (c, n) product, and added transposed: formed
    on the transposed block, they moved the last bit of some values.  Each
    matrix's signed sum over L is a dot of its own, the call scalar `per`
    makes, so its value does not depend on the block it stands in.

    With mod, the block holds int64 residues below 2^31 and each matrix's
    value, 2^(n-1) per A, is returned mod its modulus.  Row sums are reduced
    before every product and products after it, so a product stays below
    2^62, a signed sum of 2^(b-1) <= 2^9 products below 2^40, and the
    accumulator is reduced after every T.
    """
    c, n = block.shape[0], block.shape[-1]
    # rows first: low[i] holds row i's sums of every matrix and pattern L
    low = block[:, :, :b].transpose(1, 0, 2).reshape(n * c, b).dot(deltas).reshape(n, c, 1 << (b - 1))
    if mod is not None:
        p = mod[:, None]
        low %= p
    if n > b:
        shifts, sums = np.arange(n - b), np.empty_like(low)
    acc = None
    for t in range(1 << (n - b)):
        rows = low
        if n > b:
            high = block[:, :, b:] @ (1 - 2 * ((t >> shifts) & 1))  # (c, n)
            rows = np.add(low, high.T[:, :, None], out=sums)
            if mod is not None:
                rows %= p
        if mod is None:
            prods = np.multiply.reduce(rows, axis=0)  # row by row, left to right, as a loop of *=
            term = np.matmul(prods[:, None, :], signs[:, None])[:, 0, 0]  # one dot per matrix, as in `per`
        else:
            prods = rows[0]
            for i in range(1, n):
                prods = prods * rows[i] % p
            term = prods.dot(signs)
        if t.bit_count() % 2:
            term = -term
        acc = term if acc is None else acc + term
        if mod is not None:
            acc %= mod
    return acc


def complement_permanents(A, k: int, mod=None) -> np.ndarray:
    """per A(I|J) for every I, J in Q_{k,n}, indexed (..., I, J), by Glynn's formula.

    Differentiated, Glynn's formula reads per A(I|J) = 2^(1-n) times the sum
    over delta in {+-1}^n, delta_1 = 1, of chi(delta) prod_{l not in I}
    r_l(delta), with r_l(delta) = sum_j delta_j a_lj over all n columns and
    chi(delta) = prod_{j not in J} delta_j: the sum over delta keeps just
    the terms that take each column outside J once and no column of J.  So
    one Walsh-Hadamard transform of a row set's products over the sign
    patterns gives its whole row of the table.

    delta splits into a pattern L of the b = min(n, _LOW_COLUMNS) low
    columns and a pattern T of the others.  The row sums of every L are
    built by doubling, pattern first, (2^(b-1), s, n) for s matrices; each
    T, looped over, adds its high columns, signed, one at a time in column
    order.  For each chunk of row sets I the n - k kept rows are
    multiplied, b - 1 butterfly passes over the pattern axis give every low
    character, and each J adds its own, negated where T flips an odd number
    of columns outside J, to its entry, in T order.  Every step is
    elementwise and b does not depend on _STACK_BUDGET, which only chunks
    the matrices (whose row sums fit it, or one matrix's: at most 512 n
    elements) and the row sets (whose products and a factor fit it), so it
    moves no bit.  The scale 2^(1-n) is exact.  Given mod, A holds residues
    and so do the values: row sums are reduced before the products,
    products after each, the transform after its b - 1 <= 9 passes (below
    2^40) and the entries after every T.  An exact A is one lift.
    """
    A = require_square_stack(A)
    lead, n = A.shape[:-2], A.shape[-1]
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}")
    exact, C = mod is None and A.dtype == object, math.comb(n, k)
    if k == n or not A.size:
        one = ExactComplex(1) if exact else 1
        return np.full((*lead, C, C), one, object if exact else complex if mod is None else np.int64)
    flat = A.reshape(-1, n, n)
    if exact:
        values = modular_values(flat, n - k, lambda M, p: complement_permanents(M, k, p))
        return values.reshape(*lead, C, C)
    if mod is None:
        flat = flat.astype(complex, copy=False)
    else:
        mod = moduli(mod, lead).reshape(-1)
    b, kept = min(n, _LOW_COLUMNS), index_plan(k, n).complements
    outside = (1 << kept).sum(axis=1)  # the columns [n] - J of each J, as bits
    low, high = outside >> 1 & (1 << (b - 1)) - 1, (outside >> b).tolist()

    def block(s):  # (J, matrix, I) entries of the matrices s
        mats, p = flat[s], None if mod is None else mod[None, s, None]
        sums = mats[None, :, :, 0]
        for j in range(1, b):  # the patterns with delta_j = -1 follow those without
            sums = np.concatenate([sums + mats[:, :, j], sums - mats[:, :, j]])
        table, step = np.zeros((C, len(mats), C), mats.dtype), budget_length(2 * len(mats) << (b - 1))
        for t in range(1 << (n - b)):
            # whether T flips an odd number of the columns outside each J
            r, odd = sums, np.array([(t & x).bit_count() % 2 for x in high], bool)[:, None, None]
            for j in range(b, n):
                r = (np.subtract if t >> (j - b) & 1 else np.add)(r, mats[:, :, j])
            r = residues(r, p)
            for c in range(0, C, step):
                first, *others = kept[c:c + step].T
                G = r.take(first, axis=-1)
                for i in others:
                    G = residues(np.multiply(G, r.take(i, axis=-1), out=G), p)
                for j in range(b - 1):  # the butterflies (x, y) -> (x + y, x - y) on bit j of L
                    x, y = G.reshape(-1, 2, G[0].size << j).transpose(1, 0, 2)  # views: G is contiguous
                    x[...], y[...] = x + y, x - y
                terms = residues(G, p).take(low, axis=0)
                table[:, :, c:c + step] += np.negative(terms, out=terms, where=odd)
            table = residues(table, p)
        if mod is None:
            return table * 2.0 ** (1 - n)
        return divided(table, 1 << (n - 1), p)

    table = in_slices(block, len(flat), budget_length(n << (b - 1)), axis=1)
    return table.transpose(1, 2, 0).reshape(*lead, C, C)


def modular_values(M: np.ndarray, degree: int, kernel) -> np.ndarray:
    """The exact values of an (m, ..., n, n) stack of items, from int64 images mod primes.

    An item is one matrix (for per and det) or the operands of a closed form
    (A and the directions), and its value a polynomial in the item's entries,
    homogeneous of `degree`, with integer coefficients after at most
    divisions by integers prime to every modulus; or a table of such
    values, as `complement_permanents` gives.  kernel(images, mod) maps a
    (c, ..., n, n) int64 stack of residues, and the prime of each image, to
    its values mod those primes, (c,) or (c, ...) for tables:
    `_glynn_stack` for per, `tensor.det_batch` for det,
    `complement_permanents`, a closed form, or the exact "per" oracle
    (`oracle._interpolated_residues`).  Each item's entries are put over one
    common denominator d and its value divided by d^degree.

    Every such value (per, det, a complement, g_r, a Berkowitz coefficient,
    each closed form, the coefficient of t_1...t_k in per(A + sum_p t_p X^p))
    is a sum of signed products of `degree` entries from distinct rows of the
    item's matrices, no product of the same entries twice, so e_degree(rho)
    bounds both of its parts, rho_i being the sum of
    |re| + |im| over row i of every matrix of the integer item: at degree n,
    prod_i rho_i (Hadamard's row 2-norm bound holds for det, not per:
    per J_4 = 24 > 16).  `_multimodular` takes the primes each item needs
    and lifts its value.  The result is (m,), or (m, ...) for tables.  A
    stack is walked in slices of `budget_length` of one item's elements,
    and an item without entries (order 0) has the value 1.  TypeError when
    an entry is not a Gaussian rational.
    """
    m, n = M.shape[0], M.shape[-1]
    if not M.size:
        return np.full(m, ExactComplex(1), dtype=object)
    step = budget_length(M[0].size)
    if m > step:
        return in_slices(lambda s: modular_values(M[s], degree, kernel), m, step)
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
        # a row sum adds both parts of n entries of each of the item's matrices
        if int(mags.max()) * (2 * size // n) >= 1 << 64:
            mags = mags.astype(object)
    except OverflowError:  # parts beyond int64 stay Python ints until reduced mod p
        parts = np.array([re, im], dtype=object)
        mags = np.abs(parts)
    # row i of each item, summed over its matrices, as Python ints
    rows = mags.reshape(2, m, -1, n, n).sum(axis=(0, 2, 4)).tolist()
    bounds = (_elementary(rho, degree) for rho in rows)
    R, I, shape = _multimodular(parts.reshape(2, *M.shape), bounds, kernel)
    if any(d != 1 for d in scales):
        scales = [d for d in scales for _ in range(math.prod(shape))]  # Python ints, unbounded
        R, I = ([Fraction(x, d) for x, d in zip(X, scales)] for X in (R, I))
    return exact_from_parts(R, I).reshape(m, *shape)


def _elementary(values: list, degree: int) -> int:
    """e_degree(values) of Python ints, exactly: their product when degree is their count."""
    if degree == len(values):
        return math.prod(values)
    e = [1] + [0] * degree
    for x in values:
        for j in range(degree, 0, -1):
            e[j] += e[j - 1] * x
    return e[degree]


def _multimodular(parts: np.ndarray, bounds, kernel) -> tuple[list, list, tuple]:
    """The integer values of m items, real and imaginary parts, from images mod primes.

    parts is a (2, m, ...) array of the int parts (re and im) of each item's
    operands, and bounds[i] bounds both parts of every value of item i.  An
    item has one value, or a table of the kernel's trailing shape, which is
    returned with the two lists of parts (item by item, each table in C
    order).  Item i
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
        p, signed_s, _, pairs = _crt_plan(count)[:4]
        group = (parts if len(groups) == 1 else parts[:, at]).reshape(2, -1)
        if group.dtype == object:  # one Python % per part and pair of primes, whose product fits int64
            group = (group % pairs).astype(np.int64)[np.arange(count) // 2]
        group = group % p  # (P, 2, size)
        images.append(((group[:, :1] + group[:, 1:] * signed_s) % p).reshape(-1, *shape))
        mods.append(np.repeat(p.ravel(), 2 * len(at)))
    values = kernel(*(x[0] if len(x) == 1 else np.concatenate(x) for x in (images, mods)))
    table = values.shape[1:]
    lifted, start, width = [], 0, math.prod(table)
    for count, at in groups:
        p, _, halves = _crt_plan(count)[:3]
        uv = values[start:start + 2 * count * len(at)].reshape(count, 2, len(at) * width)
        start += 2 * count * len(at)
        u, v = uv[:, :1], uv[:, 1:]
        residues = np.concatenate([u + v, u - v], axis=1) * halves % p  # (u + v) / 2 and (u - v) / 2s
        lifted.append(_crt_lift(residues.reshape(count, -1), count))
    if len(groups) == 1:
        return lifted[0][:m * width], lifted[0][m * width:], table
    RI = np.empty((2, m, width), dtype=object)
    for (_, at), x in zip(groups, lifted):
        RI[:, at] = np.array(x, dtype=object).reshape(2, -1, width)
    return *RI.reshape(2, -1).tolist(), table


def _crt_lift(residues: np.ndarray, count: int) -> list:
    """The integers in (-M/2, M/2] with the given residues mod each of the first
    `count` primes, M being their product: residues is (count, c) int64.

    On Python ints, x = sum_j a_j c_j mod M with c_j = (M/p_j) ((M/p_j)^-1 mod p_j),
    one product per value and prime; a residue mod one prime is its own x.
    """
    coefficients, M = _crt_plan(count)[4:]
    lifted = residues[0].tolist()
    if count > 1:
        lifted = [sum(map(operator.mul, a, coefficients)) % M for a in zip(*residues.tolist())]
    return [x - M if x > M // 2 else x for x in lifted]


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
    (P, 2, 1), 1/2 and 1/2s mod p (P, 2, 1), and the products of the primes
    two by two (an object array (ceil(P/2), 1, 1), each below 2^62); as Python
    ints, the coefficients c_j = (M/p_j) ((M/p_j)^-1 mod p_j) of the Chinese
    remainder theorem and the product M of the primes."""
    moduli = [_modulus(i) for i in range(count)]
    primes = [q for q, _ in moduli]
    p = np.array(primes, dtype=np.int64)[:, None, None]
    signed_s = np.array([[[t], [-t]] for _, t in moduli], dtype=np.int64)
    halves = np.array([[[(q + 1) // 2], [pow(2 * t, -1, q)]] for q, t in moduli], dtype=np.int64)
    pairs = np.array([math.prod(primes[i:i + 2]) for i in range(0, count, 2)], dtype=object)[:, None, None]
    for a in (p, signed_s, halves, pairs):
        a.flags.writeable = False  # shared by every caller
    M = math.prod(primes)
    return p, signed_s, halves, pairs, [M // q * pow(M // q, -1, q) for q in primes], M


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
    `det_batch` or `per_each`) maps a stack of blocks to their values; the result
    has M's leading shape followed by the broadcast shape, and the evaluator's
    dtype.  Given mod, M holds residues and evaluate(blocks, mod) is given the
    prime of each block.  Blocks beyond one slice of `budget_length(i j)` are
    gathered into one reused buffer and evaluated slice by slice in flat
    order; a slice of residue images holds as many blocks of each image.
    """
    M = np.asarray(M)
    picks = () if source is None else (source,)
    lead, step = M.shape[:M.ndim - 2 - len(picks)], budget_length(rows.shape[-1] * cols.shape[-1])
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


def per_each(mats, mod=None) -> np.ndarray:
    """Permanents of a stack, by one scalar `per` call per floating matrix.

    Only `padj` and `dper` evaluate their gathers with it, so that their
    scalar `per` calls stay what the benchmark's layer counts measure; the
    values are those of `per_batch`.  An exact stack, or a residue stack
    given with its primes, goes whole to `per_batch`, so that an exact
    gather is one lift.
    """
    if mod is not None or mats.dtype == object:
        return per_batch(mats, mod)
    flat = mats.reshape(math.prod(mats.shape[:-2]), *mats.shape[-2:])
    return np.fromiter(map(per, flat), complex, len(flat)).reshape(mats.shape[:-2])


def laplace_per(A, I: MultiIndex):
    """Laplace expansion along rows I: sum_J per A[I|J] * per A(I|J)."""
    A = require_square(A)
    n = A.shape[0]
    rows, kept = (np.array(x.zero_based(), dtype=np.intp) for x in (I, complement(I, n)))
    plan = index_plan(len(I), n)
    tops = map_blocks(A, rows, plan.combos, per_batch)
    bottoms = map_blocks(A, kept, plan.complements, per_batch)
    return reduce(operator.add, map(operator.mul, tops, bottoms))


def padj(A):
    """Permanental adjoint: (i,j)-entry is per A(i|j)."""
    A = require_square(A)
    if A.shape[0] < 1:
        raise ValueError("padj requires n >= 1")
    comps = index_plan(1, A.shape[0]).complements
    return map_blocks(A, comps[:, None], comps[None, :], per_each)


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

    The stack is built and evaluated in slices of `budget_length(n * n)`
    matrices, so memory stays bounded.  Given mod, A and Xs hold residues,
    and a slice holds its matrices of every image.
    """
    k, n = Xs.shape[-3], Xs.shape[-1]
    primes, step = () if mod is None else (mod,), budget_length(n * n)
    return in_slices(
        lambda s: evaluate(replacement_stack(A, Xs, s), *primes), math.perm(n, k), step, axis=-1
    )


def sigma_columns(spec: ReplacementSpec, sigma: tuple[int, ...], n: int | None = None):
    """Y^sigma_[J]: column j_p from X^{sigma(p)}, all other columns zero."""
    if spec.directions:
        ref = np.asarray(spec.directions[0])
        n, zero = ref.shape[0], zero_like(ref)
    elif n is None:
        raise ValueError("need the matrix order for an empty replacement")
    else:
        zero = 0j
    Y = np.full((n, n), zero)
    for p, jp in enumerate(spec.J.zero_based()):
        X = np.asarray(spec.directions[sigma[p]])
        if X.shape != (n, n):
            raise ValueError(f"direction {sigma[p]} has shape {X.shape}, expected {(n, n)}")
        Y[:, jp] = X[:, jp]
    return Y

