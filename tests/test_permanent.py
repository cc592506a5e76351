import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_complex, random_gaussian_integer, rel_dev
from test_tensor import _leibniz
from permderiv import permanent
from permderiv.multiindex import MultiIndex, enumerate_strict
from permderiv.permanent import (
    ReplacementSpec,
    column_replace,
    laplace_per,
    minor_complement,
    padj,
    per,
    per_batch,
    per_naive,
    sigma_columns,
    submatrix,
)
from permderiv.scalars import ExactComplex, to_complex
from permderiv.tensor import det, det_batch


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


def test_per_batch_keeps_the_stack_shape(rng):
    for k in (1, 3, 5):
        mats = rng.standard_normal((2, 3, k, k)) + 1j * rng.standard_normal((2, 3, k, k))
        values = per_batch(mats)
        assert values.shape == (2, 3) and values.dtype == complex
        for idx in np.ndindex(2, 3):
            assert rel_dev([values[idx], per_naive(mats[idx])]) < 1e-12
    empty = per_batch(np.zeros((4, 0, 0), dtype=complex))
    assert empty.shape == (4,) and np.all(empty == 1)


def test_kernel_chunk_loops(rng, monkeypatch):
    # two low columns and a 64-element budget: n = 6 loops over 2^4 high
    # column subsets and walks a stack of 5 in chunks of 2, on complex128
    # and on the int64 images of an exact stack alike (an exact stack is
    # also split into slices of 2 before it is mapped to images)
    monkeypatch.setattr(permanent, "_LOW_COLUMNS", 2)
    monkeypatch.setattr(permanent, "_STACK_BUDGET", 64)
    b, _, _, chunk = permanent._ryser_plan(6, 2, 64)
    assert (b, chunk) == (2, 2)
    mats = np.stack([random_complex(rng, 6) for _ in range(5)])
    for M, value in zip(mats, per_batch(mats)):
        assert rel_dev([value, per(M), per_naive(M)]) < 1e-12
    mats = np.stack([random_gaussian_integer(rng, 6) for _ in range(5)])
    values = per_batch(mats)
    assert values.dtype == object
    for M, value in zip(mats, values):
        assert isinstance(value, ExactComplex) and value == per(M) == per_naive(M)


def _kernel_plan(n):
    return permanent._ryser_plan(n, permanent._LOW_COLUMNS, permanent._STACK_BUDGET)


def _ryser_reference(mats):
    """The float kernel written out: each row product an explicit loop of *=, chunk by chunk."""
    m, n = mats.shape[0], mats.shape[-1]
    if n == 0:
        return np.ones(m, dtype=complex)
    b, bits, signs, chunk = _kernel_plan(n)
    values = []
    for start in range(0, m, chunk):
        block = mats[start:start + chunk].astype(complex)
        c = len(block)
        low = (block[:, :, :b].reshape(c * n, b) @ bits).reshape(c, n, 1 << b)
        for t in range(1 << (n - b)):
            rows = low
            if t:
                rows = low + (block[:, :, b:] @ ((t >> np.arange(n - b)) & 1))[:, :, None]
            prods = rows[:, 0].copy()
            for i in range(1, n):
                prods *= rows[:, i]
            term = prods.dot(signs)
            if bin(t).count("1") % 2:
                term = -term
            acc = acc + term if t else term
        values.append(acc)
    return np.concatenate(values)


def test_kernel_is_bit_identical_to_the_explicit_row_loop(rng):
    # n = 11..14 exceed the ten low columns, so the high-column loop runs;
    # each stack holds one matrix more than a kernel chunk.  A matrix alone
    # and in a stack may differ in the last bit (the low sums are one matmul
    # over the chunk), so each is held to the reference of the same shape.
    for n in range(15):
        m = _kernel_plan(n)[3] + 1 if n else 2
        mats = np.stack([random_complex(rng, n) for _ in range(m)])
        mats *= 10.0 ** rng.integers(-3, 4, (m, 1, 1))
        expected = _ryser_reference(mats)
        assert permanent._ryser_stack(mats).tobytes() == expected.tobytes()
        assert per_batch(mats).tobytes() == expected.tobytes()
        for M in mats[[0, m - 2, m - 1]]:
            alone = _ryser_reference(M[None])
            assert permanent._ryser_stack(M[None]).tobytes() == alone.tobytes()
            for value in (per(M), per_batch(M[None])[0]):
                assert type(value) is np.complex128 and value.tobytes() == alone.tobytes()


def test_exact_single_matrices_equal_their_stacks(rng):
    for n in range(15):
        mats = np.stack([random_gaussian_integer(rng, n, -2, 3) for _ in range(3)])
        stacked = per_batch(mats)
        for M, value in zip(mats, stacked):
            single = (per(M), per_batch(M[None])[0], permanent._ryser_stack(M[None])[0])
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
    kernel, images = permanent._ryser_stack, []

    def counted(mats, mod=None):
        if mod is not None:
            images.append(len(mats))
        return kernel(mats, mod)

    monkeypatch.setattr(permanent, "_ryser_stack", counted)
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
    # slices of 4 matrices (a 64-element budget): the second slice holds the
    # parts beyond int64 and takes more primes than the first
    monkeypatch.setattr(permanent, "_LOW_COLUMNS", 2)
    monkeypatch.setattr(permanent, "_STACK_BUDGET", 64)
    assert permanent.slice_length(4) == 4
    mats = np.stack([random_gaussian_integer(rng, 4) for _ in range(4)] + [A, B])
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
    assert permanent.slice_length(4) == 64
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
