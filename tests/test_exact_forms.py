"""The six exact closed forms, run on int64 residue images and lifted once.

Each exact form must equal the other two and the interpolation oracle
(which stays on ExactComplex arithmetic), with the same part types, for
Fraction parts, parts beyond int64 and integer operands mixed with exact
ones; it must take enough primes for large entries; and it must do no
ExactComplex arithmetic of its own.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from permderiv import ExactComplex, exact_matrix, permanent
from permderiv.charpoly import dk_gr_columns, dk_gr_minors, dk_gr_tensor
from permderiv.derivatives import dkper_columns, dkper_minors, dkper_tensor
from permderiv.oracle import mixed_partial_interp

PER_FORMS = (dkper_columns, dkper_minors, dkper_tensor)
GR_FORMS = (dk_gr_columns, dk_gr_minors, dk_gr_tensor)

small = st.integers(-4, 4)
part = st.one_of(
    small,
    small,
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(lambda s, x: s * 2**70 + x, st.sampled_from([-1, 1]), small),
)


@st.composite
def operands(draw):
    """(A, directions) of order n <= 3 with up to n + 1 directions: exact
    operands with any Gaussian-rational parts, and int64 ones among them."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, n + 1))

    def operand(exact):
        if not exact:
            return np.array(draw(st.lists(small, min_size=n * n, max_size=n * n))).reshape(n, n)
        pairs = draw(st.lists(st.tuples(part, part), min_size=n * n, max_size=n * n))
        return exact_matrix([pairs[i * n:(i + 1) * n] for i in range(n)])

    kinds = draw(st.lists(st.booleans(), min_size=k + 1, max_size=k + 1))
    if not any(kinds):
        kinds[draw(st.integers(0, k))] = True  # at least one exact operand
    A, *directions = (operand(exact) for exact in kinds)
    return A, tuple(directions)


def _parts(z):
    return z, type(z), type(z.re), type(z.im)


@seed(20241019)
@settings(max_examples=100, deadline=None, database=None)
@given(operands(), st.data())
def test_exact_forms_equal_each_other_and_the_oracle(ops, data):
    A, directions = ops
    n, k = A.shape[0], len(directions)
    oracle = mixed_partial_interp("per", A, directions)
    assert isinstance(oracle, ExactComplex)
    for form in PER_FORMS:
        assert _parts(form(A, directions)) == _parts(oracle), form.__name__
    r = data.draw(st.integers(1, n), label="r")
    if k >= 1:  # the g_r forms need k >= 1; k > r gives 0
        oracle = mixed_partial_interp("gr", A, directions, r=r)
        for form in GR_FORMS:
            assert _parts(form(A, directions, k, r)) == _parts(oracle), form.__name__


@pytest.mark.parametrize("c", [3, 10**9, 2**62 - 1, 10**30])
@pytest.mark.parametrize("n, k", [(2, 1), (3, 2), (4, 4), (5, 3)])
def test_large_constant_matrices_take_enough_primes(c, n, k):
    # D^k per(cJ)(cJ, ..., cJ) = c^n n! n! / (n - k)!, from per((1 + t) cJ);
    # constant J has g_r = 0 from r = 2 on, so the g_r forms take the scalar
    # matrix cI: D^k g_r(cI)(cI, ...) = C(n, r) c^r r! / (r - k)!
    J = np.full((n, n), ExactComplex(c), dtype=object)
    expected = c**n * math.factorial(n) ** 2 // math.factorial(n - k)
    for form in PER_FORMS:
        assert form(J, (J,) * k) == expected, form.__name__
    eye = exact_matrix((np.eye(n, dtype=np.int64).astype(object) * c).tolist())
    for r in range(k, n + 1):
        expected = math.comb(n, r) * c**r * math.factorial(r) // math.factorial(r - k)
        for form in GR_FORMS:
            assert form(eye, (eye,) * k, k, r) == expected, form.__name__


@pytest.mark.parametrize("k", [1, 3])
def test_exact_forms_in_small_slices_equal_the_oracle(k, monkeypatch):
    # a 64-element budget cuts every gather and replacement stack of the
    # residue images into slices that hold the same blocks of every image
    rng = np.random.default_rng(11)
    A, *directions = (exact_matrix(rng.integers(-40, 41, (5, 5, 2)).tolist()) for _ in range(k + 1))
    A[2, 3] = ExactComplex(2**70, Fraction(1, 3))
    monkeypatch.setattr(permanent, "_STACK_BUDGET", 64)
    oracle = mixed_partial_interp("per", A, directions)
    assert [form(A, directions) for form in PER_FORMS] == [oracle] * 3
    for r in (k, 4):
        oracle = mixed_partial_interp("gr", A, directions, r=r)
        assert [form(A, directions, k, r) for form in GR_FORMS] == [oracle] * 3


def test_exact_forms_do_no_exact_arithmetic(monkeypatch):
    rng = np.random.default_rng(7)

    def operand():
        M = exact_matrix(rng.integers(-4, 5, (4, 4, 2)).tolist())
        M[0, 1] = ExactComplex(Fraction(-5, 3), 2**70)
        return M

    A, X, Y = operand(), operand(), operand()
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__"):
        method = getattr(ExactComplex, name)
        monkeypatch.setattr(ExactComplex, name, lambda *a, m=method, name=name: calls.append(name) or m(*a))
    per_values = [form(A, (X, Y)) for form in PER_FORMS]
    gr_values = [[form(A, (X, Y), 2, r) for form in GR_FORMS] for r in (1, 2, 3)]
    assert calls == []
    monkeypatch.undo()
    assert per_values == [mixed_partial_interp("per", A, (X, Y))] * 3
    for r, values in zip((1, 2, 3), gr_values):
        assert values == [mixed_partial_interp("gr", A, (X, Y), r=r)] * 3
