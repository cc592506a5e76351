import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_complex, random_gaussian_integer, rel_dev
from permderiv import derivatives, permanent
from permderiv.derivatives import (
    dkper,
    dkper_columns,
    dkper_minors,
    dkper_tensor,
    dper,
)
from permderiv.oracle import mixed_partial_interp
from permderiv.multiindex import index_plan
from permderiv.permanent import padj, per, per_batch, replacement_stack
from permderiv.scalars import ExactComplex, exact_matrix, to_complex, total


def test_dper_identity_is_trace(rng):
    for n in (2, 3, 5):
        X = random_complex(rng, n)
        assert rel_dev([dper(np.eye(n, dtype=complex), X), np.trace(X)]) < 1e-12


def test_dper_2x2_hand():
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    assert dper(A, np.eye(2, dtype=complex)) == 5


def test_dper_zero_direction(rng):
    assert dper(random_complex(rng, 3), np.zeros((3, 3), dtype=complex)) == 0


def test_dper_three_forms_agree(rng):
    # the adjoint-trace value is asserted against both expansions inside dper
    for _ in range(200):
        n = int(rng.integers(2, 6))
        dper(random_complex(rng, n), random_complex(rng, n))


def test_three_formulas_agree_floating(rng):
    for _ in range(30):
        n = int(rng.integers(2, 6))
        A = random_complex(rng, n)
        k = int(rng.integers(1, n + 1))
        dirs = tuple(random_complex(rng, n) for _ in range(k))
        assert (
            rel_dev([dkper_columns(A, dirs), dkper_minors(A, dirs), dkper_tensor(A, dirs)]) < 1e-10
        )


def test_three_formulas_agree_exact(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        A = random_gaussian_integer(rng, n)
        k = int(rng.integers(1, min(n, 3) + 1))
        dirs = tuple(random_gaussian_integer(rng, n) for _ in range(k))
        v1 = dkper_columns(A, dirs)
        assert v1 == dkper_minors(A, dirs) == dkper_tensor(A, dirs)
        assert v1 == mixed_partial_interp("per", A, dirs)
        assert isinstance(v1, ExactComplex)


def test_k_equals_n_collapses(rng):
    for n in (2, 3, 4):
        A = random_complex(rng, n)
        X = random_complex(rng, n)
        expected = math.factorial(n) * per(X)
        for f in (dkper_columns, dkper_minors, dkper_tensor):
            assert rel_dev([f(A, (X,) * n), expected]) < 1e-10


def test_k_above_n_is_zero(rng):
    A = random_complex(rng, 3)
    X = random_complex(rng, 3)
    for k in (4, 5):
        dirs = (X,) * k
        assert dkper_columns(A, dirs) == 0
        assert dkper_minors(A, dirs) == 0
        assert dkper_tensor(A, dirs) == 0


def test_first_order_consistency(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = random_complex(rng, n)
        X = random_complex(rng, n)
        base = dper(A, X)
        for f in (dkper_columns, dkper_minors, dkper_tensor):
            assert rel_dev([f(A, (X,)), base]) < 1e-12


def test_direction_permutation_symmetry(rng):
    n = 4
    A = random_complex(rng, n)
    dirs = tuple(random_complex(rng, n) for _ in range(3))
    base = dkper_columns(A, dirs)
    for p in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        shuffled = tuple(dirs[i] for i in p)
        assert rel_dev([dkper_columns(A, shuffled), base]) < 1e-10


def test_multilinearity(rng):
    n = 4
    A = random_complex(rng, n)
    X = random_complex(rng, n)
    U = random_complex(rng, n)
    V = random_complex(rng, n)
    alpha = 0.9 - 1.4j
    lhs = dkper_columns(A, (X, U + alpha * V))
    rhs = dkper_columns(A, (X, U)) + alpha * dkper_columns(A, (X, V))
    assert rel_dev([lhs, rhs]) < 1e-10


def test_dispatch_all(rng):
    A = random_complex(rng, 3)
    dirs = (random_complex(rng, 3), random_complex(rng, 3))
    out = dkper(A, dirs, "all")
    assert set(out) == {"columns", "minors", "tensor"}
    assert rel_dev(list(out.values())) < 1e-10


def test_shape_mismatch():
    A = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        dkper(A, (np.eye(2, dtype=complex),))
    with pytest.raises(ValueError):
        dper(A, np.eye(2, dtype=complex))


def _dominant_a(n, seed=3):
    """Gaussian-integer A times 2^40 + 1 and a standard normal complex X."""
    rng = np.random.default_rng(seed)
    A = (2**40 + 1) * (rng.integers(-4, 5, (n, n)) + 1j * rng.integers(-4, 5, (n, n)))
    return A, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.mark.parametrize("n", range(2, 8))
def test_dper_accepts_an_a_that_dwarfs_x(n):
    # the routes differ by far more than 1e-12 sum |P X| but stay within the
    # rounding bound of the permanent kernel on the A(j; X)
    A, X = _dominant_a(n)
    exact = [np.array([[ExactComplex(Fraction(z.real), Fraction(z.imag)) for z in row] for row in M])
             for M in (A, X)]
    reference = complex(dper(*exact))  # the floats' own value, exactly
    assert abs(dper(A, X) - reference) <= 1e-12 * abs(reference)


@pytest.mark.parametrize("route", ["padj", "replacement_stack", "map_blocks"])
def test_dper_cross_check_catches_a_wrong_route(route, rng, monkeypatch):
    # a relative error of 1e-4 in one entry of any route fails the check
    wrong = getattr(derivatives, route)

    def perturbed(*args, **kwargs):
        values = np.array(wrong(*args, **kwargs))
        values.reshape(-1)[1] *= 1 + 1e-4
        return values

    monkeypatch.setattr(derivatives, route, perturbed)
    for n in range(3, 8):
        with pytest.raises(AssertionError, match="first-order forms disagree"):
            dper(random_complex(rng, n), random_complex(rng, n))


def test_dper_accepts_cancelling_terms():
    # tr(padj(A)^T X) is about 0 while its terms are about 1e5: the
    # cross-check inside dper must scale with the terms, not with the value
    for seed in range(20):
        rng = np.random.default_rng(seed)
        A = 10 * random_complex(rng, 6)
        X = random_complex(rng, 6)
        P = padj(A)
        X = X - (np.sum(P * X) / np.sum(P * P.conj())) * P.conj()
        value = dper(A, X)
        assert abs(value) <= 1e-12 * np.abs(P * X).sum()


# -- the columns form walks its replacement stack in slices --------------------


@pytest.mark.parametrize("exact, n, k", [(False, 6, 3), (False, 5, 5), (True, 5, 2)])
def test_columns_form_slices_give_the_same_value(exact, n, k, rng, monkeypatch):
    # a 300-element budget cuts the k! C(n,k) replacement stack into several slices
    monkeypatch.setattr(permanent, "_STACK_BUDGET", 300)
    make = random_gaussian_integer if exact else random_complex
    A, dirs = make(rng, n), tuple(make(rng, n) for _ in range(k))
    whole = total(per_batch(replacement_stack(A, np.stack(dirs))))
    calls = []
    # an exact form evaluates each slice on all its residue images at once: (2P, s, n, n)
    counted = lambda mats, *mod: calls.append(mats.shape[-3]) or per_batch(mats, *mod)  # noqa: E731
    monkeypatch.setattr(derivatives, "per_batch", counted)
    value = dkper_columns(A, dirs)
    assert value == whole and type(value) is type(whole)
    assert len(calls) > 1 and sum(calls) == math.factorial(k) * math.comb(n, k)
    assert max(calls) * n * n <= 300


def test_columns_form_memory_is_bounded_at_n8_k8(rng):
    # the whole 8! = 40 320-matrix replacement stack alone would take 41 MB;
    # the (k, n) index plan is kept for the process, so it is built first
    A, X = random_complex(rng, 8), random_complex(rng, 8)
    index_plan(8, 8).perms
    tracemalloc.start()
    try:
        value = dkper_columns(A, (X,) * 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert rel_dev([value, math.factorial(8) * per(X)]) < 1e-10


@pytest.mark.parametrize("form", [dkper_minors, dkper_tensor])
def test_minor_and_tensor_forms_memory_is_bounded_at_n9_k4(form, rng):
    # gathering all 126^2 blocks of each kind at once took 7.5 MiB (minors)
    # and 5.9 MiB (tensor); the index plans are kept for the process, so
    # they are built first
    A, dirs = random_complex(rng, 9), tuple(random_complex(rng, 9) for _ in range(4))
    plan = index_plan(4, 9)
    plan.combos, plan.complements, plan.perms
    tracemalloc.start()
    try:
        value = form(A, dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert rel_dev([value, dkper_columns(A, dirs)]) < 1e-10


def test_columns_form_keeps_no_slot_table(rng):
    # a whole 8! x 8 slot table of the replacement stack would stay at 2.6 MB;
    # only the plan's combinations and permutations are kept, so build them first
    A, X = random_complex(rng, 8), random_complex(rng, 8)
    plan = index_plan(8, 8)
    plan.combos, plan.perms
    dkper_columns(A, (X,) * 8)  # warms the kernel's own caches
    tracemalloc.start()
    try:
        value = dkper_columns(A, (X,) * 8)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2**20
    assert not hasattr(plan, "slots")
    assert rel_dev([value, math.factorial(8) * per(X)]) < 1e-10


@pytest.mark.parametrize("n, k", [(8, 1), (8, 2), (10, 1), (10, 2)])
def test_tensor_form_of_positive_inputs_is_within_its_rounding_bound(n, k):
    """|fl(D) - D|_1 <= 2 (e_A + e_X + 2 K u) S for the tensor form's value of
    D = D^k per(A)(X^1, ..., X^k), with u = 2^-53 and |z|_1 = |re z| + |im z|.

    Every float is a dyadic rational, so the exact engine gives D of the very
    inputs the floating form sees.  The form is D = k! sum_{I,J} T_JI M_IJ,
    with T_JI = per A(I|J) from `complement_permanents` and M_IJ = (1/k!)
    sum_sigma per X^sigma[I|J] from `per_batch`, over the C = C(n, k) sets
    I, J.  With rho(I, J) = prod_{i not in I} sum_{j not in J} |a_ij|_1 and
    xi(I, J) = sum_sigma prod_i (row i's sum of |X^sigma[I|J]|_1),
    |per A(I|J)|_1 <= rho and |k! M_IJ|_1 <= xi, and:
    - each T_JI lies within e_A rho, e_A = 2^(m+1) (m^2 + 3m) u, m = n - k
      (`conftest.assert_complements_within_rounding`);
    - each per X^sigma[I|J] lies within e_X times its row sums' product,
      e_X = 2 (k^2 + k + 2^(k-1)) u (the Glynn bound of `test_permanent`);
      the sum over the k! sigma rounds k! - 1 times, the division by k! and
      the final product by k! once each;
    - each product T_JI M_IJ rounds within gamma_2, and the sum of the C^2
      products takes at most C^2 - 1 additions per part, in any order.
    So fl(D) - D is within ((1 + e_A)(1 + e_X)(1 + gamma_K) - 1) S, with
    S = sum_{I,J} rho xi and K = k! + C^2 + 2, which is at most
    2 (e_A + e_X + 2 K u) S while e_A + e_X + 2 K u <= 1/2.  On uniform
    [0, 1) inputs the bound is loose (rho / per A(I|J) grows like e^m), and
    the measured error stays far below it, though above the other forms'.
    """
    rng = np.random.default_rng(20261021 + 10 * n + k)
    A, *Xs = rng.random((k + 1, n, n))
    a, *xs = ([[Fraction(x) for x in row] for row in M.tolist()] for M in (A, *Xs))
    exact = dkper(exact_matrix(a), [exact_matrix(x) for x in xs], "tensor")
    value = dkper(A, Xs, "tensor")
    plan = index_plan(k, n)
    sets, perms = list(zip(plan.combos.tolist(), plan.complements.tolist())), plan.perms.tolist()
    S = sum(  # the entries are nonnegative reals, their own |z|_1
        math.prod(sum(a[i][j] for j in J_out) for i in I_out)  # rho(I, J)
        * sum(math.prod(sum(xs[s][i][j] for s, j in zip(sigma, J)) for i in I) for sigma in perms)  # xi(I, J)
        for I, I_out in sets
        for J, J_out in sets
    )
    m, u, K = n - k, Fraction(1, 2**53), math.factorial(k) + len(plan.combos) ** 2 + 2
    e_A, e_X = 2 ** (m + 1) * (m * m + 3 * m) * u, 2 * (k * k + k + 2 ** (k - 1)) * u
    assert exact.im == 0 and exact.re > 0
    error = abs(Fraction(value.real) - exact.re) + abs(Fraction(value.imag))
    assert error <= 2 * (e_A + e_X + 2 * K * u) * S


# -- properties of D^k per, for all three forms --------------------------------

FORMS = (dkper_columns, dkper_minors, dkper_tensor)
_SIZES = st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, min(n, 3)))
)
_PROPERTY = settings(max_examples=20, deadline=None)


def _instance(seed, n, k, exact=False):
    rng = np.random.default_rng(seed)
    make = random_gaussian_integer if exact else random_complex
    return make(rng, n), tuple(make(rng, n) for _ in range(k))


def _forms(A, dirs):
    dirs = tuple(dirs)
    return [form(A, dirs) for form in FORMS]


@_PROPERTY
@given(size=_SIZES, seed=st.integers(0, 2**32 - 1), order=st.randoms())
def test_property_direction_order_does_not_matter(size, seed, order):
    n, k = size
    A, dirs = _instance(seed, n, k)
    shuffled = list(dirs)
    order.shuffle(shuffled)
    for value, permuted in zip(_forms(A, dirs), _forms(A, shuffled)):
        assert rel_dev([value, permuted]) < 1e-10


@_PROPERTY
@given(size=_SIZES, seed=st.integers(0, 2**32 - 1))
def test_property_linear_in_the_first_slot(size, seed):
    n, k = size
    A, dirs = _instance(seed, n, k + 1)
    U, V, rest = dirs[0], dirs[1], dirs[2:]
    alpha = complex(*np.random.default_rng(seed).standard_normal(2))
    lhs = _forms(A, (U + alpha * V, *rest))
    for value, u, v in zip(lhs, _forms(A, (U, *rest)), _forms(A, (V, *rest))):
        assert rel_dev([value, u + alpha * v]) < 1e-10


@_PROPERTY
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), exact=st.booleans())
def test_property_order_above_n_is_an_exact_zero(n, seed, exact):
    A, dirs = _instance(seed, n, n + 1, exact)
    for value in _forms(A, dirs):
        assert value == 0
        assert isinstance(value, ExactComplex if exact else complex)


@_PROPERTY
@given(size=_SIZES, seed=st.integers(0, 2**32 - 1))
def test_property_exact_mode_agrees_with_floating_mode(size, seed):
    n, k = size
    A, dirs = _instance(seed, n, k, exact=True)
    floating = _forms(to_complex(A), map(to_complex, dirs))
    for value, approx in zip(_forms(A, dirs), floating):
        assert isinstance(value, ExactComplex)
        assert rel_dev([complex(value), approx]) < 1e-10


@_PROPERTY
@given(size=_SIZES.filter(lambda s: s[0] <= 4), seed=st.integers(0, 2**32 - 1))
def test_property_exact_mode_equals_the_interpolation_oracle(size, seed):
    n, k = size
    A, dirs = _instance(seed, n, k, exact=True)
    oracle = mixed_partial_interp("per", A, dirs)
    for value in _forms(A, dirs):
        assert value == oracle
