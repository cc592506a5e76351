import itertools
import math
import operator
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from conftest import (
    assert_complements_within_rounding,
    random_complex,
    random_gaussian_integer,
    rel_dev,
    typed,
)
from test_tensor import _leibniz
from permderiv import derivatives, permanent, tensor
from permderiv.charpoly import charpoly_all, dk_gr, g_r
from permderiv.derivatives import dkper
from permderiv.multiindex import MultiIndex, enumerate_strict, index_plan
from permderiv.permanent import (
    ReplacementSpec,
    column_replace,
    complement_permanents,
    laplace_per,
    minor_complement,
    padj,
    per,
    per_batch,
    per_naive,
    sigma_columns,
    submatrix,
)
from permderiv.scalars import ExactComplex, exact_matrix, to_complex
from permderiv.tensor import det, det_batch, tilde_sym_block


def test_per_naive_2x2():
    assert per_naive(np.array([[1, 2], [3, 4]], dtype=complex)) == 10


def test_per_naive_identity():
    for n in (1, 3, 6):
        assert per_naive(np.eye(n, dtype=complex)) == 1


def test_per_naive_1x1():
    c = 2.5 - 1j
    assert per_naive(np.array([[c]])) == c


def test_per_naive_rejects_large():
    with pytest.raises(ValueError):
        per_naive(np.zeros((11, 11), dtype=complex))


def test_per_all_ones():
    for n in range(1, 8):
        assert abs(per(np.ones((n, n), dtype=complex)) - math.factorial(n)) < 1e-9


def test_per_zero_column():
    A = np.ones((5, 5), dtype=complex)
    A[:, 2] = 0
    assert per(A) == 0


def test_per_matches_naive_random(rng):
    for _ in range(200):
        n = int(rng.integers(1, 8))
        A = random_complex(rng, n)
        assert rel_dev([per(A), per_naive(A)]) < 1e-12


def test_per_exact_mode(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        A = random_gaussian_integer(rng, n)
        assert per(A) == per_naive(A)


def test_per_non_square():
    with pytest.raises(ValueError):
        per(np.ones((2, 3), dtype=complex))


def test_per_transpose_and_permutation_invariance(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = random_complex(rng, n)
        assert rel_dev([per(A), per(A.T)]) < 1e-12
        p = rng.permutation(n)
        q = rng.permutation(n)
        assert rel_dev([per(A), per(A[np.ix_(p, q)])]) < 1e-12


def test_per_column_multilinearity(rng):
    n = 4
    A = random_complex(rng, n)
    u = random_complex(rng, n)[:, 0]
    v = random_complex(rng, n)[:, 0]
    alpha = 1.7 - 0.3j
    Au = A.copy()
    Au[:, 2] = u
    Av = A.copy()
    Av[:, 2] = v
    Auv = A.copy()
    Auv[:, 2] = u + alpha * v
    assert rel_dev([per(Auv), per(Au) + alpha * per(Av)]) < 1e-12


def test_submatrix_basic():
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(submatrix(A, MultiIndex((1, 2)), MultiIndex((1, 2))), A)
    assert submatrix(A, MultiIndex((2,)), MultiIndex((1,)))[0, 0] == 3


def test_submatrix_weak_repetition():
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    I = MultiIndex((1, 1), "weak")
    S = submatrix(A, I, I)
    assert np.all(S == 1)


def test_submatrix_bounds():
    A = np.eye(2, dtype=complex)
    with pytest.raises(IndexError):
        submatrix(A, MultiIndex((3,)), MultiIndex((1,)))


def test_minor_complement():
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    assert minor_complement(A, MultiIndex((1,)), MultiIndex((2,)))[0, 0] == 3
    empty = minor_complement(A, MultiIndex((1, 2)), MultiIndex((1, 2)))
    assert empty.shape == (0, 0)
    assert per(empty) == 1


def test_minor_complement_rejects_weak():
    A = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        minor_complement(A, MultiIndex((1, 1), "weak"), MultiIndex((1, 2)))


@pytest.mark.parametrize(
    "I, J, message",
    [
        (MultiIndex((1,)), MultiIndex((1, 2)), "equal length"),
        (MultiIndex((4,)), MultiIndex((1,)), "out of range"),
        (MultiIndex((1,)), MultiIndex((4,)), "out of range"),
        (MultiIndex((0, 1)), MultiIndex((1, 2)), "out of range"),
    ],
)
def test_minor_complement_errors(I, J, message):
    with pytest.raises(ValueError, match=message):
        minor_complement(np.eye(3, dtype=complex), I, J)


def test_minor_complement_matches_submatrix_of_complements(rng):
    from permderiv.multiindex import complement

    A = random_complex(rng, 5)
    for k in range(6):
        for I in enumerate_strict(k, 5):
            for J in enumerate_strict(k, 5):
                expected = submatrix(A, complement(I, 5), complement(J, 5))
                assert np.array_equal(minor_complement(A, I, J), expected)


def test_laplace_2x2_hand():
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    assert laplace_per(A, MultiIndex((1,))) == 10


def test_laplace_reproduces_per(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        A = random_complex(rng, n)
        target = per(A)
        for k in range(1, n + 1):
            for I in enumerate_strict(k, n):
                assert rel_dev([laplace_per(A, I), target]) < 1e-12


@pytest.mark.parametrize("exact", [False, True])
def test_gathers_equal_the_reference_helpers(exact, rng):
    # every sliced gather against per of the reference helpers' submatrices,
    # entry by entry: padj at n = 1 and the empty complement at k = n included
    make = random_gaussian_integer if exact else random_complex
    for n in range(1, 7):
        A = make(rng, n)
        singles = enumerate_strict(1, n)
        expected = [[per(minor_complement(A, I, J)) for J in singles] for I in singles]
        assert padj(A).tolist() == expected
        for k in range(n + 1):
            for I in enumerate_strict(k, n):
                expected = None
                for J in enumerate_strict(k, n):
                    term = per(submatrix(A, I, J)) * per(minor_complement(A, I, J))
                    expected = term if expected is None else expected + term
                assert laplace_per(A, I) == expected


@pytest.mark.parametrize(
    "I", [MultiIndex((1, 2, 3)), MultiIndex((3,)), MultiIndex((0, 1)), MultiIndex((1, 1), "weak")]
)
def test_laplace_rejects_rows_outside_the_matrix(I):
    with pytest.raises(ValueError):
        laplace_per(np.array([[1, 2], [3, 4]], dtype=complex), I)


def test_padj_2x2():
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(padj(A), np.array([[4, 3], [2, 1]], dtype=complex))


def test_padj_identity():
    P = padj(np.eye(4, dtype=complex))
    assert np.array_equal(P, np.eye(4, dtype=complex))


def test_padj_1x1():
    assert padj(np.array([[3.0 + 1j]]))[0, 0] == 1


def test_padj_row_trace_identity(rng):
    # per A = sum_j a_ij per A(i|j) for every row i
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = random_complex(rng, n)
        P = padj(A)
        target = per(A)
        for i in range(n):
            assert rel_dev([np.sum(A[i] * P[i]), target]) < 1e-12


def test_column_replace():
    A = np.zeros((3, 3), dtype=complex)
    X = np.arange(9, dtype=complex).reshape(3, 3)
    Z = column_replace(A, ReplacementSpec(MultiIndex((2,)), (X,)))
    assert np.array_equal(Z[:, 1], X[:, 1])
    assert np.all(Z[:, [0, 2]] == 0)


def test_column_replace_noop():
    A = np.arange(4, dtype=complex).reshape(2, 2)
    Z = column_replace(A, ReplacementSpec(MultiIndex(()), ()))
    assert np.array_equal(Z, A)


def test_column_replace_self():
    A = np.arange(9, dtype=complex).reshape(3, 3)
    Z = column_replace(A, ReplacementSpec(MultiIndex((1, 2, 3)), (A, A, A)))
    assert np.array_equal(Z, A)


def test_sigma_columns():
    X1 = np.full((2, 2), 1.0, dtype=complex)
    X2 = np.full((2, 2), 2.0, dtype=complex)
    spec = ReplacementSpec(MultiIndex((1, 2)), (X1, X2))
    Y = sigma_columns(spec, (1, 0))
    assert np.array_equal(Y[:, 0], X2[:, 0])
    assert np.array_equal(Y[:, 1], X1[:, 1])


def test_sigma_columns_symmetric_in_sigma_when_equal():
    X = np.arange(9, dtype=complex).reshape(3, 3)
    spec = ReplacementSpec(MultiIndex((1, 3)), (X, X))
    assert np.array_equal(sigma_columns(spec, (0, 1)), sigma_columns(spec, (1, 0)))


def test_exact_per_is_exact():
    from permderiv.scalars import exact_matrix

    A = exact_matrix([[1, 2], [3, 4]])
    value = per(A)
    assert isinstance(value, ExactComplex)
    assert value == ExactComplex(10)
    # the batched evaluators keep an exact stack exact
    mats = np.stack([A, exact_matrix([[1, 1j], [2 - 1j, 3]]), exact_matrix([[0, 5], [7, 1]])])
    for batch, scalar in ((per_batch, per), (det_batch, det)):
        values = batch(mats)
        assert values.shape == (3,)
        for M, v in zip(mats, values):
            assert isinstance(v, ExactComplex)
            assert v == scalar(M)


def test_float_per_matches_naive_up_to_8(rng):
    for n in range(9):
        for _ in range(3):
            A = random_complex(rng, n)
            assert rel_dev([per(A), per_naive(A)]) < 1e-12


def test_float_per_matches_exact_per(rng):
    for n in range(1, 10):
        A = random_gaussian_integer(rng, n)
        exact = complex(per(A))
        assert abs(per(to_complex(A)) - exact) <= 1e-12 * max(abs(exact), 1.0)


_DYADIC = st.builds(math.ldexp, st.integers(-(2**53), 2**53), st.integers(-60, 20))


@st.composite
def dyadic_matrices(draw):
    """The (2, n, n) real and imaginary parts, n <= 6, of a matrix of dyadic rationals."""
    n = draw(st.integers(0, 6))
    parts = draw(st.lists(_DYADIC, min_size=2 * n * n, max_size=2 * n * n))
    return np.array(parts).reshape(2, n, n)


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(dyadic_matrices())
def test_float_per_is_within_a_glynn_rounding_bound_of_exact_per(parts):
    """|fl(per A) - per A| <= 2 (n^2 + n + 2^(n-1)) u prod_i rho_i, u = 2^-53.

    Every float is a dyadic rational, so the exact engine gives per A of the
    very entries the floating kernel sees.  Write |z|_1 = |re z| + |im z|,
    which bounds |z| and is submultiplicative, rho_i = sum_j |a_ij|_1, and
    gamma_k = k u / (1 - k u), so that (1 + gamma_j)(1 + gamma_k) <=
    1 + gamma_{j+k} and gamma_k <= 2 k u while k u <= 1/2.  Glynn's formula
    reads per A = 2^(1-n) sum_delta (prod_k delta_k) p_delta over the
    N = 2^(n-1) sign vectors delta with delta_1 = 1, p_delta =
    prod_i s_i(delta) and s_i(delta) = sum_j delta_j a_ij.  For n <= 6 every
    column is in the sign table, and fl(per A) is one product with the +-1
    table, one row product and one dot with the signs +-2^(1-n), whose
    multiplications are exact (a sign, or a power of two far from
    underflow here), so only their additions and the row product round:
    - a row sum s_i(delta) takes n - 1 additions per part, in any order, so
      |fl(s_i) - s_i|_1 <= gamma_{n-1} rho_i and |fl(s_i)|_1 <=
      (1 + gamma_{n-1}) rho_i, as |s_i(delta)|_1 <= rho_i;
    - a complex product rounds each part of ac - bd and ad + bc within
      gamma_2 (|ac| + |bd|), with or without FMA, so |fl(xy) - xy|_1 <=
      gamma_2 |x|_1 |y|_1; the n - 1 products of p_delta, on the rounded
      row sums, give |fl(p_delta) - p_delta|_1 <= gamma_k prod_i rho_i with
      k = n(n - 1) + 2(n - 1);
    - the dot adds the N scaled terms, each within 2^(1-n) (1 + gamma_k)
      prod_i rho_i, with at most N - 1 additions per part, so it rounds
      within gamma_{N-1} N 2^(1-n) (1 + gamma_k) prod_i rho_i =
      gamma_{N-1} (1 + gamma_k) prod_i rho_i.
    The N terms' own errors add up to at most N 2^(1-n) gamma_k prod_i rho_i
    = gamma_k prod_i rho_i, so |fl(per A) - per A|_1 <=
    gamma_{n^2 + n + 2^(n-1) - 3} prod_i rho_i, which the bound above covers
    with 3 roundings to spare.  The scale 2^(1-n) cancels the term count,
    so unlike Ryser's bound for 2^n unscaled terms it has no factor 2^n.
    """
    n = parts.shape[-1]
    value = per(parts[0] + 1j * parts[1])
    entries = [[(Fraction(x), Fraction(y)) for x, y in zip(re, im)] for re, im in zip(*parts)]
    exact = per(exact_matrix(entries))
    error = abs(Fraction(value.real) - exact.re) + abs(Fraction(value.imag) - exact.im)
    rho = math.prod(sum(abs(x) + abs(y) for x, y in row) for row in entries)
    assert error <= 2 * (n * n + n + 2 ** (n - 1)) * Fraction(1, 2**53) * rho


@pytest.mark.parametrize("n", [12, 14, 16])
def test_float_per_of_a_positive_matrix_is_accurate(n):
    # subset sums of positive entries share a sign and cancel badly in the
    # signed sum; Glynn's terms are centred
    A = np.random.default_rng(20261020 + n).random((n, n))
    exact = per(exact_matrix([[Fraction(x) for x in row] for row in A.tolist()]))
    value = per(A)
    assert exact.im == 0 and exact.re > 0
    error = abs(Fraction(value.real) - exact.re) + abs(Fraction(value.imag))
    assert error <= Fraction(1, 10**13) * exact.re


def test_float_per_of_the_all_ones_matrix():
    # per J_16 = 16!, a sum that subset-sum formulas lose digits of
    value = per(np.ones((16, 16)))
    assert abs(value - math.factorial(16)) <= 1e-14 * math.factorial(16)


@seed(20261020)
@settings(max_examples=60, deadline=None, database=None)
@given(dyadic_matrices(), st.integers(0, 6))
def test_complement_permanents_are_within_a_glynn_rounding_bound(parts, k):
    """|fl(per A(I|J)) - per A(I|J)|_1 <= 2 (m(n - 1) + 2(m - 1) + b - 2 + 2^(n-b)) u
    prod_{i not in I} rho_i, m = n - k >= 1, rho_i = sum_j |a_ij|_1 over all n
    columns, b = min(n, _LOW_COLUMNS) and u = 2^-53.

    As for `per` above, with gamma_k = k u / (1 - k u) and exact inputs (every
    float is dyadic).  The entry is 2^(1-n) times a sum of N = 2^(n-1) terms
    +-p_delta, p_delta = prod_{i not in I} r_i(delta) and r_i(delta) =
    sum_j delta_j a_ij over all n columns.  The negations, the gathers and
    the scale 2^(1-n) are exact, so only these round:
    - r_i(delta) adds the n signed columns, the b low ones in one product
      with the sign table and the high ones for the pattern T one at a time
      in column order, n - 1 additions of exact terms:
      |fl(r_i) - r_i|_1 <= gamma_{n-1} rho_i, as |r_i(delta)|_1 <= rho_i;
    - the m - 1 complex products over the rows i not in I, on those sums,
      give |fl(p_delta) - p_delta|_1 <= gamma_K prod_i rho_i, K = m(n - 1) +
      2(m - 1);
    - the b - 1 butterfly passes sum the 2^(b-1) signed terms of one T in a
      tree of depth b - 1, within gamma_{b-1} of the sum of their
      |fl(p_delta)|_1;
    - the entry adds the 2^(n-b) sums of the patterns T to 0 in turn, the
      first add exact, within gamma_{2^(n-b)-1} of the sum of their |.|_1.
    Each of the N terms is at most (1 + gamma_K) prod_i rho_i, and the scale
    2^(1-n) cancels N, so the error is at most ((1 + gamma_K)(1 +
    gamma_{b-1})(1 + gamma_{2^(n-b)-1}) - 1) prod_i rho_i <=
    gamma_{K + b - 2 + 2^(n-b)} prod_i rho_i, which the bound covers as
    gamma_j <= 2 j u.  It has no factor 2^m, as a subset-sum bound over the
    2^m column sets of A(I|J) has; but rho_i runs over the columns J too, so
    an entry whose kept rows are dominated by entries in the columns J is
    bounded by those entries, not by its own.
    """
    n = parts.shape[-1]
    assume(n)
    k = min(k, n)
    A = parts[0] + 1j * parts[1]
    assert_complements_within_rounding(A, k, complement_permanents(A, k))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [10, 12])
def test_float_complement_table_of_a_positive_matrix_is_accurate(n, k):
    # every entry is a sum of Glynn's centred terms, as per A is: subset sums
    # of positive entries lost 5e-13 to 8e-12 relative here
    A = np.random.default_rng(20261020 + n).random((n, n))
    exact = complement_permanents(exact_matrix([[Fraction(x) for x in row] for row in A.tolist()]), k)
    for value, entry in zip(complement_permanents(A, k).ravel().tolist(), exact.ravel()):
        assert entry.im == 0 and entry.re > 0
        error = abs(Fraction(value.real) - entry.re) + abs(Fraction(value.imag))
        assert error <= Fraction(1, 10**13) * entry.re


def test_complement_permanents_are_exact_in_every_part_type():
    # Gaussian-integer, Fraction and 2^70-scaled entries; a zero row makes
    # prod_i rho_i 0, though a complement without that row need not be 0, so
    # the lift bounds a complement of order n - k by e_{n-k}(rho)
    rng = np.random.default_rng(20261020)
    for n in range(1, 7):
        A = random_gaussian_integer(rng, n)
        fractions = A.copy()
        fractions[0, -1] = ExactComplex(Fraction(1, 3), Fraction(-5, 2))
        scaled = A * ExactComplex(2**70, 1)
        scaled[n // 2] = ExactComplex(0)
        for k in range(n + 1):
            basis = enumerate_strict(k, n)
            tables = []
            for M in (A, fractions, scaled):
                tables.append([[per_naive(minor_complement(M, I, J)) for J in basis] for I in basis])
                assert typed(complement_permanents(M, k)) == typed(tables[-1]), (n, k)
            # one lift of the stack: items of other denominators and prime counts
            assert typed(complement_permanents(np.stack((A, fractions, scaled)), k)) == typed(tables)
        # residue images mod three of the primes, against per_batch of every complement
        primes = np.array([permanent._modulus(i)[0] for i in range(3)])
        images = rng.integers(0, primes[:, None, None], (3, n, n))
        for k in range(n + 1):
            keep = index_plan(k, n).complements
            gathered = images[:, keep[:, None, :, None], keep[None, :, None, :]]
            got = complement_permanents(images, k, primes)
            assert got.dtype == np.int64 and np.array_equal(got, per_batch(gathered, primes))


def test_complement_tables_have_the_same_bits_at_every_budget(monkeypatch):
    """Floating tables of a (2, n, n) stack, and residue tables of images mod
    three primes, have the same bytes at every `_STACK_BUDGET`.

    A budget sets only the chunks of matrices and of row sets I: the split
    at b = min(n, _LOW_COLUMNS) low columns does not depend on it, the
    product with the sign table gives each matrix its own row sums, and
    every later step of the transform (high columns, row products,
    butterflies and the sums over the high patterns) is elementwise.  The smaller the
    budget, the smaller the chunks (at 64 from n = 6, and at 256 from n = 7,
    one matrix and one or two row sets), so 64 is checked up to n = 6 and
    256 up to n = 7; every k up to n = 10, and four k from n = 11.
    """
    rng = np.random.default_rng(20261021)
    primes = np.array([permanent._modulus(i)[0] for i in range(3)])
    for n in range(1, 13):
        A = np.stack([random_complex(rng, n) for _ in range(2)]) * 10.0 ** rng.integers(-3, 4, (2, 1, 1))
        images = rng.integers(0, primes[:, None, None], (3, n, n))
        budgets = (1 << 16, 4096, 256, 64)[:4 if n <= 6 else 3 if n == 7 else 2]
        for k in range(n + 1) if n <= 10 else (1, 2, n - 2, n - 1):
            tables = set()
            for budget in budgets:
                monkeypatch.setattr(permanent, "_STACK_BUDGET", budget)
                floating, residues = complement_permanents(A, k), complement_permanents(images, k, primes)
                tables.add((floating.tobytes(), residues.tobytes()))
            assert len(tables) == 1, (n, k)


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_complement_table_attains_its_bound_past_a_prime_count(n, count):
    # at k = n - 1 every entry per A(I|J) is one entry a_ij, bounded by
    # e_1(rho) = sum_i rho_i; with one nonzero entry x that bound is x
    # itself, and the least x with 2x > M, the product of `count` primes,
    # needs count + 1 primes: with count, x > M/2 would lift to x - M
    x = permanent._crt_plan(count)[-1] // 2 + 1
    assert permanent._elementary([0] * (n - 1) + [x], 1) == x
    assert permanent._prime_count(2 * x) == count + 1
    basis = enumerate_strict(n - 1, n)
    for entry in (ExactComplex(x), ExactComplex(0, -x)):
        A = np.full((n, n), ExactComplex(0), dtype=object)
        A[n - 1, n // 2] = entry
        table = [[per_naive(minor_complement(A, I, J)) for J in basis] for I in basis]
        assert entry in sum(table, [])
        assert typed(complement_permanents(A, n - 1)) == typed(table)


def _elementary_bound(rows, degree):
    """e_degree of the row sums, as a sum over row sets (no recurrence)."""
    return sum(math.prod(S) for S in itertools.combinations(rows, degree))


@pytest.mark.parametrize("top", [9, 2**62, 2**100])
@pytest.mark.parametrize("n", range(1, 7))
def test_elementary_bound_is_the_sum_over_row_sets(rng, n, top):
    # e_degree of a row of Python ints at every degree, beyond int64 too;
    # a zero row and a row of equal entries ride along
    rows = [[int(x) for x in rng.integers(0, min(top, 2**62), n, endpoint=True)] for _ in range(3)]
    rows[0][0] = top
    rows += [[top] * n, [0] * n]
    for rho, degree in itertools.product(rows, range(n + 1)):
        assert permanent._elementary(rho, degree) == _elementary_bound(rho, degree), (rho, degree)


def test_every_lifted_value_is_within_e_degree_of_its_row_sums():
    # each lift bounds an item's value by e_degree(rho), rho_i the sum of
    # |re| + |im| over row i of every matrix of the item: per, det and the
    # D^k per forms at degree n, complements at n - k, g_r, the Berkowitz
    # coefficients and the D^k g_r forms at r.  Diagonal items with
    # positive entries attain it for per, det and g_r.  Where a literal sum
    # is cheap, the value also equals it, so a lift over too few primes fails
    rng = np.random.default_rng(20261021)
    worst = {}

    def check(kind, value, operands, degree, reference=None):
        rows = [sum(abs(z.re) + abs(z.im) for M in operands for z in M[i]) for i in range(len(operands[0]))]
        bound = _elementary_bound(rows, degree)
        assert type(value) is ExactComplex and max(abs(value.re), abs(value.im)) <= bound, (kind, degree)
        if bound:
            worst[kind] = max(worst.get(kind, 0), max(abs(value.re), abs(value.im)) / bound)
        if reference is not None:
            assert typed([value]) == typed([reference]), (kind, degree)

    for n in range(1, 5):
        A = random_gaussian_integer(rng, n)
        fractions = A / 3
        scaled = A * 2**70 + random_gaussian_integer(rng, n)
        zero_row = scaled.copy()
        zero_row[0] = ExactComplex(0)
        diagonal = np.full((n, n), ExactComplex(0), dtype=object)
        diagonal[range(n), range(n)] = [ExactComplex(int(v)) for v in rng.integers(1, 9, n)]
        stack = np.stack((A, fractions, scaled, zero_row, diagonal))
        directions = [random_gaussian_integer(rng, n) for _ in range(n + 1)]
        for M, value in zip(stack, per_batch(stack)):
            check("per", value, [M], n, per_naive(M))
        for M, value in zip(stack, det_batch(stack)):
            check("det", value, [M], n, _leibniz(M))
        for k in range(n + 1):
            basis = enumerate_strict(k, n)
            for M, table in zip(stack, complement_permanents(stack, k)):
                for value, (I, J) in zip(table.ravel(), itertools.product(basis, basis)):
                    check("complement", value, [M], n - k, per_naive(minor_complement(M, I, J)))
        for r in range(1, n + 1):
            for M, value in zip(stack, g_r(stack, r)):
                minors = (_leibniz(minor_complement(M, I, I)) for I in enumerate_strict(n - r, n))
                check("g_r", value, [M], r, sum(minors, ExactComplex(0)))
        for M in stack:
            for r, value in enumerate(charpoly_all(M), 1):
                check("charpoly", value, [M], r)
            for k in range(1, n + 1):
                Xs = tuple(directions[:k])
                for value in dkper(M, Xs, "all").values():
                    check("dkper", value, [M, *Xs], n)
                for r in range(k, n + 1):
                    for value in dk_gr(M, Xs, k, r, "all").values():
                        check("dk_gr", value, [M, *Xs], r)
    assert worst["per"] == worst["det"] == worst["g_r"] == worst["charpoly"] == 1
    assert set(worst) == {"per", "det", "complement", "g_r", "charpoly", "dkper", "dk_gr"}


def test_per_batch_keeps_the_stack_shape(rng):
    for k in (1, 3, 5):
        mats = rng.standard_normal((2, 3, k, k)) + 1j * rng.standard_normal((2, 3, k, k))
        values = per_batch(mats)
        assert values.shape == (2, 3) and values.dtype == complex
        for idx in np.ndindex(2, 3):
            assert rel_dev([values[idx], per_naive(mats[idx])]) < 1e-12
    empty = per_batch(np.zeros((4, 0, 0), dtype=complex))
    assert empty.shape == (4,) and np.all(empty == 1)
    # a stack of no matrices, floating and as residues with no primes
    for dtype, mod in ((complex, None), (np.int64, np.array([], np.int64))):
        none = per_batch(np.zeros((0, 3, 3), dtype), mod)
        assert none.shape == (0,) and none.dtype == dtype


def test_kernel_chunk_loops(rng, monkeypatch):
    # two low columns and a 32-element budget: n = 6 loops over 2^4 sign
    # patterns of the high columns and walks a stack of 5 in chunks of 2, on
    # complex128 and on the int64 images of an exact stack alike (an exact
    # stack is also split into slices of 2 before it is mapped to images)
    monkeypatch.setattr(permanent, "_LOW_COLUMNS", 2)
    monkeypatch.setattr(permanent, "_STACK_BUDGET", 32)
    assert _kernel_plan(6) == (2, 2)
    mats = np.stack([random_complex(rng, 6) for _ in range(5)])
    for M, value in zip(mats, per_batch(mats)):
        assert rel_dev([value, per(M), per_naive(M)]) < 1e-12
    mats = np.stack([random_gaussian_integer(rng, 6) for _ in range(5)])
    values = per_batch(mats)
    assert values.dtype == object
    for M, value in zip(mats, values):
        assert isinstance(value, ExactComplex) and value == per(M) == per_naive(M)


def _kernel_plan(n):
    """(b, chunk) at order n >= 1: the plan's low column count, and the
    matrices in one kernel chunk, `budget_length(n 2^(b-1))`."""
    b = permanent._glynn_plan(n, permanent._LOW_COLUMNS)[0]
    return b, permanent.budget_length(n << (b - 1))


def _glynn_reference(mats):
    """The float kernel written out from Glynn's formula, matrix by matrix.

    per A = 2^(1-n) sum over delta in {+-1}^n, delta_1 = 1, of
    (prod_k delta_k) prod_i sum_j delta_j a_ij.  The deltas of the b low
    columns are the rows of a table, column L setting delta_j = -1 for bit
    j - 1 of L; pattern t of the high columns sets delta_{b+j} = -1 for bit j
    of t.  Each row product is an explicit loop of *=, and each matrix's
    signed sum over L is a dot of its own.
    """
    m, n = mats.shape[0], mats.shape[-1]
    if n == 0:
        return np.ones(m, dtype=complex)
    b = _kernel_plan(n)[0]
    L = np.arange(2 ** (b - 1))
    low_deltas = np.array([np.ones_like(L)] + [1 - 2 * (L >> (j - 1) & 1) for j in range(1, b)])
    low_signs = (low_deltas.prod(axis=0) * 2.0 ** (1 - n)).astype(complex)
    block = mats.astype(complex)
    low = (block[:, :, :b].reshape(m * n, b) @ low_deltas.astype(complex)).reshape(m, n, -1)
    for t in range(2 ** (n - b)):
        high_deltas = np.array([1 - 2 * (t >> j & 1) for j in range(n - b)], dtype=np.int64)
        rows = low if n == b else low + (block[:, :, b:] @ high_deltas)[:, :, None]
        prods = rows[:, 0].copy()
        for i in range(1, n):
            prods *= rows[:, i]
        term = np.array([row.dot(low_signs) for row in prods])
        if high_deltas.prod() < 0:
            term = -term
        acc = acc + term if t else term
    return acc


def test_kernel_is_bit_identical_to_the_explicit_row_loop(rng):
    # n = 11..14 exceed the ten low columns, so the high-column loop runs;
    # each stack holds one matrix more than a kernel chunk.  Every matrix,
    # alone and in its stack, is held to the one value of the reference
    for n in range(15):
        m = _kernel_plan(n)[1] + 1 if n else 2
        mats = np.stack([random_complex(rng, n) for _ in range(m)])
        mats *= 10.0 ** rng.integers(-3, 4, (m, 1, 1))
        expected = _glynn_reference(mats)
        assert permanent._glynn_stack(mats).tobytes() == expected.tobytes()
        assert per_batch(mats).tobytes() == expected.tobytes()
        assert b"".join(per(M).tobytes() for M in mats) == expected.tobytes()
        for i in (0, m - 2, m - 1):
            M = mats[i]
            alone = expected[i].tobytes()
            assert _glynn_reference(M[None]).tobytes() == alone
            assert permanent._glynn_stack(M[None]).tobytes() == alone
            for value in (per(M), per_batch(M[None])[0]):
                assert type(value) is np.complex128 and value.tobytes() == alone


@pytest.mark.parametrize("budget", [permanent._STACK_BUDGET, 64])
def test_floating_permanents_do_not_depend_on_their_stack(budget, rng, monkeypatch):
    # a floating permanent depends only on its matrix: per_batch(M)[i],
    # per(M[i]) and per_batch of any slice of M that holds i have the same
    # bytes, for stacks that cross kernel chunks and parts of many scales,
    # and at any budget the bytes of the default one
    default = permanent._STACK_BUDGET
    monkeypatch.setattr(permanent, "_STACK_BUDGET", budget)
    for n in range(15):
        chunk = _kernel_plan(n)[1] if n else 1
        m = chunk + 1 + int(rng.integers(1, min(chunk, 64) + 1))
        re, im = rng.standard_normal((2, m, n, n)) * 10.0 ** rng.integers(-3, 4, (2, m, 1, 1))
        mats = re + 1j * im
        whole = per_batch(mats)
        with monkeypatch.context() as patch:
            patch.setattr(permanent, "_STACK_BUDGET", default)
            assert per_batch(mats).tobytes() == whole.tobytes(), n
        assert b"".join(per(M).tobytes() for M in mats) == whole.tobytes(), n
        cuts = [(chunk - 1, chunk + 1), (1, m), (0, m - 1), (chunk, m)]
        cuts += [tuple(sorted(rng.choice(m + 1, 2, replace=False).tolist())) for _ in range(3)]
        for lo, hi in cuts:
            assert per_batch(mats[lo:hi]).tobytes() == whole[lo:hi].tobytes(), (n, lo, hi)


def _layouts(rng, n, dtype):
    """An n x n matrix of dtype, contiguous, transposed and strided."""
    re, im = rng.standard_normal((2, 2 * n, 2 * n)) * 10.0 ** rng.integers(-3, 4)
    parts = {bool: re > 0, np.int64: np.round(4 * re), float: re}
    B = parts.get(dtype, re + 1j * im).astype(dtype)
    M = np.ascontiguousarray(B[:n, :n])
    return M, M.T, B[::2, ::2]


@pytest.mark.parametrize("budget", [permanent._STACK_BUDGET, 64])
def test_scalar_per_has_the_bits_of_a_stack_of_one(budget, rng, monkeypatch):
    # a matrix whose columns all fit the sign table (n <= 10, at any budget)
    # skips the stack; a larger one goes through it as a stack of one
    monkeypatch.setattr(permanent, "_STACK_BUDGET", budget)
    stacks = []
    stack = permanent._glynn_stack
    monkeypatch.setattr(permanent, "_glynn_stack", lambda *a: stacks.append(a) or stack(*a))
    for n in range(13):
        direct = 0 < n == _kernel_plan(n)[0]
        for dtype in (complex, np.complex64, float, np.int64, bool):
            for M in _layouts(rng, n, dtype):
                del stacks[:]
                value = per(M)
                assert len(stacks) == (not direct)
                assert type(value) is np.complex128
                assert value.tobytes() == per_batch(M[None])[0].tobytes(), (n, dtype)
    A = random_gaussian_integer(rng, 6)
    assert _is_exact_result(per(A)) and per(A) == per_naive(A)


def test_exact_single_matrices_equal_their_stacks(rng):
    for n in range(15):
        mats = np.stack([random_gaussian_integer(rng, n, -2, 3) for _ in range(3)])
        stacked = per_batch(mats)
        for M, value in zip(mats, stacked):
            single = (per(M), per_batch(M[None])[0], permanent._glynn_stack(M[None])[0])
            assert all(_is_exact_result(v) and v == value for v in single)
            if n <= 6:
                assert value == per_naive(M)
            elif n <= 9:
                assert value == laplace_per(M, MultiIndex((1,)))


@pytest.mark.parametrize("n", [4, 8])
def test_exact_per_of_large_constant_matrices_takes_enough_primes(n):
    # per(c J_n) = n! c^n.  Hadamard's bound prod_i ||row i||_2 = (sqrt(n) c)^n
    # holds for determinants, not permanents, and is below n! c^n (at n = 4:
    # 16 c^4 < 24 c^4).  The second c puts n! c^n above M/2 for a product M of
    # leading moduli that exceeds twice Hadamard's bound, so primes counted
    # from that bound would lift the result wrongly.
    M = math.prod(permanent._modulus(i)[0] for i in range(4))
    gap = round((M / (2 * math.sqrt(math.factorial(n) * n ** (n / 2)))) ** (1 / n))
    assert 2 * n ** (n // 2) * gap**n < M < 2 * math.factorial(n) * gap**n
    for c in (10**30, gap):
        J = np.full((n, n), ExactComplex(c), dtype=object)
        negated = J.copy()
        negated[1] = ExactComplex(-c)
        assert per(J) == math.factorial(n) * c**n and _is_exact_result(per(J))
        assert per(negated) == -math.factorial(n) * c**n
        assert per_batch(np.stack([J, negated])).tolist() == [per(J), per(negated)]


def test_per_batch_memory_is_bounded(rng):
    # unchunked, the row sums of all 2^10 column subsets of 2000 10 x 10
    # matrices would take 2000 * 10 * 1024 * 16 B, about 330 MB
    mats = rng.standard_normal((2000, 10, 10)) + 1j * rng.standard_normal((2000, 10, 10))
    tracemalloc.start()
    try:
        values = per_batch(mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert rel_dev([values[7], per(mats[7])]) < 1e-12


# -- exact stacks: int64 images mod primes ---------------------------------------


@st.composite
def exact_stacks(draw):
    """(m, n, n) object stacks, n <= 6, mixing ExactComplex, int and Fraction entries."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(1, 3))
    # 2^45 needs several primes; 2^70 is beyond int64 and reduced as Python ints
    bound = draw(st.sampled_from([4, 2**20, 2**45, 2**70]))
    part = st.integers(-bound, bound)
    denominator = st.integers(1, 12)
    entry = st.one_of(
        st.builds(ExactComplex, part, part),
        part,
        st.builds(Fraction, part, denominator),
        st.builds(lambda a, d, b: ExactComplex(Fraction(a, d), b), part, denominator, part),
    )
    mats = np.empty((m, n, n), dtype=object)
    for idx in np.ndindex(mats.shape):
        mats[idx] = draw(entry)
    if m > 1 and draw(st.booleans()):
        # one item over denominators near 2^40 and one integral: they need
        # different prime counts and each is lifted over its own
        large = st.integers(2**39, 2**40)
        for idx in np.ndindex(n, n):
            mats[(0, *idx)] = ExactComplex(Fraction(draw(part), draw(large)), draw(part))
            mats[(1, *idx)] = draw(st.integers(-4, 4))
    zeros = draw(st.sampled_from(["none", "row", "all"]))
    if zeros == "row" and n:
        mats[:, draw(st.integers(0, n - 1))] = 0
    elif zeros == "all":
        mats[...] = ExactComplex(0)
    return mats


def _is_exact_result(value):
    parts = (value.re, value.im)
    return type(value) is ExactComplex and all(
        type(x) is (int if Fraction(x).denominator == 1 else Fraction) for x in parts
    )


@settings(max_examples=60, deadline=None)
@given(exact_stacks())
def test_exact_per_and_per_batch_equal_the_permutation_sum(mats):
    values = per_batch(mats)
    assert values.shape == (len(mats),) and values.dtype == object
    for M, value in zip(mats, values):
        expected = per_naive(M)
        assert value == expected and _is_exact_result(value)
        single = per(M)
        assert single == expected and _is_exact_result(single)


def test_a_denominator_power_between_2_63_and_2_64_beside_an_integral_item():
    # the second item's d^5 = 6930^5 lies in [2^63, 2^64): beside the first
    # item's scale 1, a numpy array of the scales would be float64
    zero = np.full((5, 5), ExactComplex(0), dtype=object)
    scaled = zero.copy()
    scaled[4] = [0, Fraction(1, 7), Fraction(1, 9), Fraction(1, 10), Fraction(1, 11)]
    scaled[3] = [Fraction(1, 7)] * 5
    assert 2**63 <= 6930**5 < 2**64
    for M in (scaled, scaled * ExactComplex(2, 1) + np.eye(5, dtype=int)):
        values = per_batch(np.stack([zero, M]))
        assert values.tolist() == [0, per_naive(M)] and all(map(_is_exact_result, values))
        assert det_batch(np.stack([zero, M])).tolist() == [0, _leibniz(M)]


@settings(max_examples=60, deadline=None)
@given(exact_stacks())
def test_exact_det_batch_equals_the_signed_permutation_sum(mats):
    values = det_batch(mats)
    assert values.shape == (len(mats),) and values.dtype == object
    for M, value in zip(mats, values):
        expected = _leibniz(M)
        assert value == expected and _is_exact_result(value)
        single = det(M)
        assert single == expected and _is_exact_result(single)


def _primes_of_item(M):
    """The primes M needs: the row 1-norm product over its common denominator."""
    d = math.lcm(*(Fraction(x).denominator for z in M.ravel() for x in (z.re, z.im)))
    rows = [sum(abs(z.re) + abs(z.im) for z in row) * d for row in M]
    return permanent._prime_count(2 * int(math.prod(rows)))


def test_each_item_is_lifted_over_its_own_denominator(rng, monkeypatch):
    # nine denominators near 2^20 put one matrix over a common denominator
    # of about 2^170, and the integral matrix stacked with it takes one prime
    big = random_gaussian_integer(rng, 3)
    for i, j in np.ndindex(3, 3):
        big[i, j] = big[i, j] / (2**20 + 7 * (3 * i + j)) + 1
    small = random_gaussian_integer(rng, 3)
    counts = [_primes_of_item(small), _primes_of_item(big)]
    assert counts[0] == 1 and counts[1] >= 10
    kernel, images = permanent._glynn_stack, []

    def counted(mats, mod=None):
        if mod is not None:
            images.append(len(mats))
        return kernel(mats, mod)

    monkeypatch.setattr(permanent, "_glynn_stack", counted)
    values = per_batch(np.stack([small, big]))
    assert images == [2 * sum(counts)]  # re + s im and re - s im per prime
    for M, value in zip((small, big), values):
        assert value == per_naive(M) and _is_exact_result(value)
    dets = det_batch(np.stack([small, big, small]))
    assert dets.tolist() == [_leibniz(small), _leibniz(big), _leibniz(small)]
    assert all(_is_exact_result(value) for value in dets)


def test_parts_beyond_int64_are_reduced_mod_each_prime(rng, monkeypatch):
    A = random_gaussian_integer(rng, 4)
    A[1, 2] = ExactComplex(3, 2**63)
    # a Fraction row whose cleared parts no longer fit int64
    B = random_gaussian_integer(rng, 4)
    B[0] = [ExactComplex(Fraction(2**62, 3)), ExactComplex(Fraction(1, 5)), 1, 0]
    # -2^63 itself fits int64; 200-digit parts need about 45 primes at n = 2
    C = A.copy()
    C[1, 2] = ExactComplex(-(2**63), 7)
    D = np.full((4, 4), ExactComplex(10**200, -1), dtype=object)
    for M in (A, B, C, D, D[:2, :2]):
        value = per(M)
        assert value == per_naive(M) and _is_exact_result(value)
    # slices of 2 matrices (a 32-element budget): the second slice holds the
    # parts beyond int64 and takes more primes than the first
    monkeypatch.setattr(permanent, "_LOW_COLUMNS", 2)
    monkeypatch.setattr(permanent, "_STACK_BUDGET", 32)
    assert permanent.budget_length(4 * 4) == 2
    mats = np.stack([random_gaussian_integer(rng, 4) for _ in range(2)] + [A, B])
    values = per_batch(mats)
    assert all(v == per_naive(M) and _is_exact_result(v) for M, v in zip(mats, values))


def test_row_sums_of_int64_parts_do_not_wrap():
    # every part fits int64, but each row's |re| + |im| sums to 2^64 or more,
    # beyond uint64, so the bound must be summed in Python ints
    M = np.full((2, 2), ExactComplex(2**62, -(2**62)), dtype=object)
    N = np.array([[ExactComplex(2**63 - 1, 2**63 - 1), 3], [1, ExactComplex(-(2**63), 5)]], dtype=object)
    for A in (M, N):
        assert per(A) == per_naive(A) and _is_exact_result(per(A))
        assert det(A) == _leibniz(A) and _is_exact_result(det(A))


def test_exact_per_batch_memory_does_not_grow_with_the_stack(rng, monkeypatch):
    # a 1024-element budget cuts 4 x 4 stacks into slices of 64 matrices;
    # beyond the results kept, 20 slices take no more memory than one
    monkeypatch.setattr(permanent, "_STACK_BUDGET", 1024)
    assert permanent.budget_length(4 * 4) == 64
    mats = np.stack([random_gaussian_integer(rng, 4) for _ in range(1280)])
    per_batch(mats[:64])
    extra = []
    for m in (64, 1280):
        tracemalloc.start()
        try:
            values = per_batch(mats[:m])
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        extra.append(peak - current)
    assert extra[1] < 2 * extra[0]
    assert values[-1] == per(mats[-1])


def test_entries_that_are_not_gaussian_rationals_raise_type_error():
    for bad in (1.5, 1.0, 0.5 + 2j, "a"):
        A = np.array([[bad, 1], [2, 3]], dtype=object)
        with pytest.raises(TypeError):
            per(A)
        with pytest.raises(TypeError):
            per_batch(np.stack([A, A]))


def test_object_stacks_of_numpy_integers_lift_exactly(rng):
    ints = rng.integers(-(2**40), 2**40, (3, 4, 4))
    ints[0, 0, 0], ints[1, 2, 3] = 2**62, -(2**63)  # beyond the float and the per bound
    python = ints.astype(object)
    numpy = np.empty(ints.shape, dtype=object)
    for index, x in np.ndenumerate(ints):
        numpy[index] = np.int32(x % 2**31) if sum(index) % 3 == 1 else np.int64(x)
        python[index] = int(numpy[index])
    assert type(python[0, 0, 0]) is int and python[0, 0, 0] == 2**62 and python[1, 2, 3] == -(2**63)
    assert type(numpy[0, 0, 0]) is np.int64 and type(numpy[0, 0, 1]) is np.int32
    assert typed([per(M) for M in numpy]) == typed([per(M) for M in python])
    assert typed(per_batch(numpy)) == typed(per_batch(python))
    assert typed(det_batch(numpy)) == typed(det_batch(python))
    assert per_batch(numpy).tolist() == [per_naive(M) for M in python]


def _counted(monkeypatch, name, modules):
    """Record (stack, result) of each call of `name` through any of the modules."""
    calls, original = [], getattr(permanent, name)

    def counted(mats, *args):
        result = original(mats, *args)
        calls.append((mats, result))
        return result

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def _mixed_exact(rng, n):
    """A Gaussian-integer matrix with a part beyond int64 and a Fraction part."""
    A = random_gaussian_integer(rng, n)
    A[0, -1] = ExactComplex(2**61 + 1, -3)
    A[-1, 0] = ExactComplex(Fraction(1, 2), 2)
    return A


def test_exact_gathers_are_one_lift_each(rng, monkeypatch):
    n = 5
    A, X = _mixed_exact(rng, n), _mixed_exact(rng, n)
    singles, pairs = enumerate_strict(1, n), enumerate_strict(2, n)
    padj_ref = [per(minor_complement(A, I, J)) for I in singles for J in singles]
    tilde_ref = [per(minor_complement(A, I, J)) for J in pairs for I in pairs]
    laplace_ref = sum(
        (per(submatrix(A, pairs[0], J)) * per(minor_complement(A, pairs[0], J)) for J in pairs), ExactComplex(0)
    )
    columns_ref = [per(column_replace(A, ReplacementSpec(J, (X,)))) for J in singles]
    minors_ref = [per(minor_complement(A.T, I, J)) for I in singles for J in singles]
    scalar = _counted(monkeypatch, "per", (permanent, derivatives, tensor))
    batches = _counted(monkeypatch, "per_batch", (permanent,))
    lifts = _counted(monkeypatch, "modular_values", (permanent,))

    assert typed(padj(A)) == typed(padj_ref) and len(batches) == len(lifts) == 1
    # the one Ryser pass over the columns of A is lifted once, with no per_batch call
    assert typed(tilde_sym_block(A, 2).entries) == typed(tilde_ref) and len(batches) == 1 and len(lifts) == 2
    assert typed(laplace_per(A, pairs[0])) == typed(laplace_ref) and len(batches) == 3 and len(lifts) == 4
    del batches[:]
    value = derivatives.dper(A, X)
    # padj, then the column route on the replaced matrices, then the minors of A^T
    assert [mats.shape for mats, _ in batches] == [(n, n, n - 1, n - 1), (n, n, n), (n, n, n - 1, n - 1)]
    assert typed(batches[0][1]) == typed(padj_ref)
    assert typed(batches[1][1]) == typed(columns_ref)
    assert typed(batches[2][1]) == typed(minors_ref)
    assert value == sum(map(operator.mul, X.ravel(), padj_ref), ExactComplex(0))
    assert not scalar


def test_floating_gathers_call_per_once_per_block(rng, monkeypatch):
    n, A, X = 5, random_complex(rng, 5), random_complex(rng, 5)
    scalar = _counted(monkeypatch, "per", (permanent, derivatives, tensor))
    batches = _counted(monkeypatch, "per_batch", (permanent,))
    padj(A)
    assert len(scalar) == n * n
    derivatives.dper(A, X)  # padj, the n replaced matrices and the minors of A^T
    assert len(scalar) == n * n + (n * n + n + n * n)
    tilde_sym_block(A, 2)  # one Ryser pass over the columns of A: no per and no per_batch call
    assert len(scalar) == 3 * n * n + n
    assert not batches


def test_cached_moduli_are_primes_one_mod_four_with_a_root_of_minus_one():
    assert permanent._prime_count(2**400) >= 13
    moduli = [permanent._modulus(i) for i in range(permanent._modulus.cache_info().currsize)]
    assert len(moduli) >= 13
    primes = [p for p, _ in moduli]
    assert primes == sorted(set(primes), reverse=True)
    divisors = np.arange(2, math.isqrt(2**31) + 1)
    for p, s in moduli:
        assert p < 2**31 and p % 4 == 1 and (s * s + 1) % p == 0
        assert np.all(p % divisors[divisors < p]), p


def test_residues_near_the_prime_do_not_overflow(monkeypatch):
    # c = -1 mod the first prime, so every image residue is p - 1 and every
    # product of two residues is near 2^62; four low columns make the
    # high-column loop run from n = 5 on
    monkeypatch.setattr(permanent, "_LOW_COLUMNS", 4)
    c = permanent._modulus(0)[0] - 1
    for n in range(1, 13):
        J = np.full((n, n), ExactComplex(c), dtype=object)
        assert per(J) == c**n * math.factorial(n)


def test_import_builds_no_prime_table():
    code = (
        "import permderiv; from permderiv import permanent; "
        "print(permanent._modulus.cache_info().currsize, permanent._crt_plan.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0"]
