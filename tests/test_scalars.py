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
from permderiv.permanent import RYSER_CROSSOVER, per, per_batch
from permderiv.scalars import ExactComplex
from permderiv.tensor import det_bareiss, det_batch


def _int_parts(z):
    return isinstance(z, ExactComplex) and type(z.re) is int and type(z.im) is int


@pytest.mark.parametrize("n", [3, RYSER_CROSSOVER])
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
