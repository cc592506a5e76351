import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_complex, random_gaussian_integer, rel_dev
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
