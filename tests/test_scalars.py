"""ExactComplex: int parts on Gaussian integers, Fraction parts only after a
non-exact division, and hashing consistent with equality."""

import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_gaussian_integer
from permderiv.charpoly import dk_gr
from permderiv.derivatives import FORMULAS, dkper
from permderiv.oracle import mixed_partial_interp
from permderiv.permanent import per, per_batch
from permderiv.scalars import ExactComplex, exact_matrix, matmul, require_directions
from permderiv.tensor import det_bareiss, det_batch


def _int_parts(z):
    return isinstance(z, ExactComplex) and type(z.re) is int and type(z.im) is int


@pytest.mark.parametrize("n", [3, 5])
def test_gaussian_integer_results_have_int_parts(rng, n):
    A = random_gaussian_integer(rng, n)
    Xs = [random_gaussian_integer(rng, n) for _ in range(2)]
    stack = np.stack([A, *Xs])
    results = [per(A), det_bareiss(A), *per_batch(stack), *det_batch(stack)]
    for formula in FORMULAS:
        results.append(dkper(A, Xs, formula=formula))
        results.append(dk_gr(A, Xs, 2, 3, formula=formula))
    if n <= 3:
        results.append(mixed_partial_interp("per", A, Xs))
        results.append(mixed_partial_interp("gr", A, Xs, r=3))
    for z in results:
        assert _int_parts(z), repr(z)


def test_integral_parts_are_ints():
    z = ExactComplex(Fraction(4, 2), Fraction(-6, 3))
    assert type(z.re) is int and z.re == 2
    assert type(z.im) is int and z.im == -2
    z = ExactComplex(np.int64(3), np.int32(-2))
    assert type(z.re) is int and type(z.im) is int
    assert repr(ExactComplex(3)) == "ExactComplex(3, 0)"
    # a Fraction sum that comes out integral is an int again
    half = ExactComplex(Fraction(1, 2), Fraction(-1, 2))
    assert _int_parts(half + half)
    assert _int_parts(half * 2)


def test_exact_matrix_keeps_numpy_integers_exact():
    big = 2**60 + 1  # 2^60 as a float
    M = exact_matrix(np.array([[big, -3]]))
    assert M.tolist() == [[big, -3]] and all(map(_int_parts, M.ravel()))
    M = exact_matrix(np.array([[[big, -big], [7, 2**62]]]))
    assert M.tolist() == [[ExactComplex(big, -big), ExactComplex(7, 2**62)]]
    assert all(map(_int_parts, M.ravel()))
    M = exact_matrix([[np.int64(big), (np.int32(2), np.uint64(2**63))], [Fraction(1, 2), 3 - 4j]])
    assert M.tolist() == [[big, ExactComplex(2, 2**63)], [Fraction(1, 2), ExactComplex(3, -4)]]
    assert type(M[1, 0].re) is Fraction and _int_parts(M[1, 1])


def test_exact_matrix_takes_integral_reals_as_ints():
    M = exact_matrix([[np.float64(3.0), 1e200, (2.0, -0.0)]])
    assert M.tolist() == [[3, int(1e200), 2]] and all(map(_int_parts, M.ravel()))
    assert exact_matrix([]).shape == (0, 0) and exact_matrix([[]]).shape == (1, 0)


def test_boolean_entries_are_zero_or_one_at_every_entry_point():
    # numpy booleans, Python booleans and a bool operand made exact by
    # require_directions are the same 0/1 matrix, with int parts
    eye = np.array([[True, False], [False, True]])
    X = exact_matrix([[1, 2], [3, 4]])
    matrices = [
        exact_matrix(eye),
        exact_matrix([[True, False], [0, 1]]),
        require_directions(eye, (X,))[0],
        exact_matrix([[(np.True_, np.False_), 0], [0, np.True_]]),
    ]
    for M in matrices:
        assert M.tolist() == [[1, 0], [0, 1]] and all(map(_int_parts, M.ravel()))
    assert dkper(exact_matrix(np.eye(2, dtype=bool)), (X,)) == 1 + 4


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, 2], [3]], "same length"),
        ([[1], [2, 3]], "same length"),
        ([["7"]], "got '7'"),
        ([[None]], "got None"),
        ([[1.5]], "got 1.5"),
        ([[(1, 0.5)]], "got 0.5"),
        ([[1 + 0.5j]], "got 0.5"),
        ([[float("inf")]], "got inf"),
        ([[float("nan")]], "got nan"),
        ([[(1, "2")]], "got '2'"),
    ],
)
def test_exact_matrix_refuses_what_is_not_a_gaussian_integer(rows, message):
    with pytest.raises(ValueError, match=message):
        exact_matrix(rows)


def test_numpy_integers_coerce_exactly_and_non_finite_complexes_compare_unequal():
    z = ExactComplex(3) + np.int64(2**60 + 1)
    assert _int_parts(z) and z == 2**60 + 4 and z == np.int64(2**60 + 4)
    for other in (complex("inf"), complex("nan"), complex(1, float("inf")), 1.0, np.float64(1.0)):
        assert not ExactComplex(1) == other


def test_division_gives_fraction_parts_only_when_inexact():
    q = ExactComplex(3, 4) * ExactComplex(1, -2) / ExactComplex(1, -2)
    assert _int_parts(q) and q == ExactComplex(3, 4)
    q = ExactComplex(1, 1) / ExactComplex(1, 2)  # (1+i)(1-2i)/5 = (3-i)/5
    assert q == ExactComplex(Fraction(3, 5), Fraction(-1, 5))
    assert type(q.re) is Fraction and type(q.im) is Fraction
    q = ExactComplex(3) / 2
    assert type(q.re) is Fraction and q.re == Fraction(3, 2)
    assert type(q.im) is int and q.im == 0


@pytest.mark.parametrize("zero", [ExactComplex(0), 0, Fraction(0), 0j])
def test_division_by_exact_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        ExactComplex(1, 2) / zero
    with pytest.raises(ZeroDivisionError):
        ExactComplex(Fraction(1, 3)) / zero


@pytest.mark.parametrize(
    "z, other",
    [
        (ExactComplex(1), 1),
        (ExactComplex(-7), -7),
        (ExactComplex(2, -1), 2 - 1j),
        (ExactComplex(0, 1), 1j),
        (ExactComplex(Fraction(1, 2)), Fraction(1, 2)),
        (ExactComplex(2**70, -(2**60)), complex(2.0**70, -(2.0**60))),
        (ExactComplex(-1000004, 1), complex(-1000004, 1)),  # CPython maps -1 to -2
    ],
    ids=["int", "negative-int", "complex", "imaginary-unit", "fraction", "wrapping", "minus-one"],
)
def test_hash_agrees_with_eq(z, other):
    assert z == other
    assert hash(z) == hash(other)
    assert len({z, other}) == 1


_SMALL = st.integers(-6, 6)
_RATIONALS = st.builds(Fraction, _SMALL, st.integers(1, 4))
_PAIRS = st.tuples(_RATIONALS, _RATIONALS)


def _ref(op, x, y):
    """Reference arithmetic on (Fraction, Fraction) pairs."""
    (a, b), (c, d) = x, y
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - c, b - d
    if op is operator.mul:
        return a * c - b * d, a * d + b * c
    norm = c * c + d * d
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def _operand(pair, kind):
    """The operand of the given kind built from pair, and its value as a pair."""
    re, im = pair
    if kind == "int":
        return int(re), (Fraction(int(re)), Fraction(0))
    if kind == "fraction":
        return re, (re, Fraction(0))
    return ExactComplex(re, im), pair


@given(
    x=_PAIRS,
    y=_PAIRS,
    op=st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]),
    kind=st.sampled_from(["exact", "int", "fraction"]),
    reflected=st.booleans(),
)
def test_arithmetic_matches_fraction_pairs(x, y, op, kind, reflected):
    z = ExactComplex(*x)
    other, y = _operand(y, kind)
    left, right = (other, z) if reflected else (z, other)
    ref_left, ref_right = (y, x) if reflected else (x, y)
    if op is operator.truediv and ref_right == (0, 0):
        with pytest.raises(ZeroDivisionError):
            op(left, right)
        return
    got = op(left, right)
    want = _ref(op, ref_left, ref_right)
    assert isinstance(got, ExactComplex)
    assert (got.re, got.im) == want
    for part, ref in zip((got.re, got.im), want):
        assert type(part) is (int if ref.denominator == 1 else Fraction)
    assert (got == ExactComplex(*want)) and got == op(left, right)
    assert (z == other) == (x == y)
    assert hash(got) == hash(ExactComplex(*want))


def test_residue_matmul_equals_the_python_int_product(rng):
    # residues up to p - 1 < 2^31, as many as 1000 per sum, against Python ints
    mod = np.array([2**31 - 1, 2147483629, 65537])
    for m, k, n in [(3, 4, 2), (5, 1000, 3)]:
        a = rng.integers(0, mod[:, None, None], (3, m, k))
        b = rng.integers(0, mod[:, None, None], (3, k, n))
        a[0], b[0] = mod[0] - 1, mod[0] - 1
        got = matmul(a, b, mod)
        assert got.dtype == np.int64
        expected = [[[sum(int(x) * int(y) for x, y in zip(row, col)) % int(q) for col in B.T] for row in A]
                    for A, B, q in zip(a, b, mod)]
        assert got.tolist() == expected
