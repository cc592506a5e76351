import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_complex, random_gaussian_integer, rel_dev
from test_tensor import _leibniz, _order3_exact_cases, _parts
from permderiv import charpoly, oracle, permanent, tensor
from permderiv.charpoly import (
    charpoly_all,
    dk_gr,
    dk_gr_columns,
    dk_gr_minors,
    dk_gr_tensor,
    g_r,
    principal_restrictions,
)
from permderiv.norms import dk_gr_norm_exact, gr_perturb_bound
from permderiv.oracle import finite_diff, mixed_partial_interp
from permderiv.multiindex import enumerate_strict, index_plan
from permderiv.permanent import replacement_stack, submatrix
from permderiv.scalars import ExactComplex, exact_matrix, to_complex, total
from permderiv.tensor import (
    block_trace,
    det_batch,
    mixed_antisym_projected,
    signed_complement_minors,
    tilde_antisym_block,
)


def test_g1_is_trace_gn_is_det(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        A = random_complex(rng, n)
        assert rel_dev([g_r(A, 1), np.trace(A)]) < 1e-12
        assert rel_dev([g_r(A, n), np.linalg.det(A)]) < 1e-10


def test_charpoly_diag123():
    A = np.diag([1.0, 2.0, 3.0]).astype(complex)
    g = charpoly_all(A).g
    assert np.allclose(g, [6, 11, 6])


def test_charpoly_identity():
    g = charpoly_all(np.eye(4, dtype=complex)).g
    assert np.allclose(g, [math.comb(4, r) for r in range(1, 5)])


def test_charpoly_nilpotent():
    N = np.diag(np.ones(3), 1).astype(complex)
    assert np.allclose(charpoly_all(N).g, 0)


def test_charpoly_matches_numpy_roots(rng):
    # det(xI - A) = x^n - g1 x^{n-1} + ... + (-1)^n g_n
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = random_complex(rng, n)
        g = charpoly_all(A).g
        coeffs = [1.0] + [(-1) ** r * g[r - 1] for r in range(1, n + 1)]
        eigs = np.linalg.eigvals(A)
        ref = np.poly(eigs)
        assert np.allclose(coeffs, ref, rtol=1e-8, atol=1e-8)


def _minor_sum(M, r):
    """g_r of an exact matrix as its Leibniz principal minors, summed in ExactComplex."""
    return sum((_leibniz(P.value) for P in principal_restrictions(M, r)), ExactComplex(0))


@pytest.mark.parametrize("n", range(1, 8))
def test_exact_berkowitz_equals_the_principal_minor_sums(rng, n):
    # charpoly_all (Berkowitz's recurrence from order 4) and g_r against the
    # Leibniz minors summed in ExactComplex: Gaussian integers, Fraction parts
    # and parts beyond int64, part types included
    cases = _order3_exact_cases(rng, n) if n > 1 else [exact_matrix([[(Fraction(2, 3), -(2**70))]])]
    for M in [random_gaussian_integer(rng, n), *cases]:
        coefficients = charpoly_all(M)
        assert len(coefficients) == n
        for r, value in enumerate(coefficients, 1):
            reference, minors = _minor_sum(M, r), g_r(M, r)
            assert isinstance(value, ExactComplex)
            assert value == minors == reference
            assert _parts(value) == _parts(minors) == _parts(reference)


@pytest.mark.parametrize("n", range(13))
def test_floating_berkowitz_agrees_with_the_principal_minor_sums(rng, n):
    for _ in range(3):
        A = random_complex(rng, n)
        g = charpoly_all(A).g
        minors = [g_r(A, r) for r in range(1, n + 1)]
        assert len(g) == n and all(type(value) is complex for value in g)
        scale = max([1.0, *map(abs, minors)])
        assert max([0.0, *(abs(a - b) for a, b in zip(g, minors))]) <= 1e-12 * scale


def test_floating_charpoly_makes_no_determinant_call_at_n16(rng, monkeypatch):
    calls = []
    for module in (charpoly, tensor):
        evaluate = module.det_batch
        monkeypatch.setattr(module, "det_batch", lambda *a, evaluate=evaluate: calls.append(1) or evaluate(*a))
    A = random_complex(rng, 16)
    g = charpoly_all(A).g
    assert calls == []
    assert rel_dev([g[0], np.trace(A)]) < 1e-12 and rel_dev([g[-1], np.linalg.det(A)]) < 1e-10


def _counted_minor_sums(monkeypatch):
    """The r of every `g_r` call that `charpoly_all` makes, as they come."""
    calls = []
    minor_sums = charpoly.g_r
    monkeypatch.setattr(charpoly, "g_r", lambda *a: calls.append(a[1]) or minor_sums(*a))
    return calls


def test_charpoly_takes_the_minor_sums_where_only_the_recurrence_overflows(monkeypatch):
    # g = (0, -1e200, 0), but A_2 c_2 = (0, 1e400) overflows inside the
    # recurrence; its rerun on 2^-e A is exact, so no minor sum runs
    A = np.array([[0, 0, 1e200], [1e200, 0, 0], [1, 0, 0]], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(charpoly._berkowitz(A)).all()
    calls = _counted_minor_sums(monkeypatch)
    assert charpoly_all(A).g == (0, -1e200, 0)
    assert calls == []


def test_charpoly_of_an_overflowing_block_matrix_at_n18_runs_no_minor_sum(rng, monkeypatch):
    # a 1e200 2 x 2 block beside a strictly upper triangular block of the
    # same scale: g = (2e200, 0, ..., 0), and the recurrence overflows; the
    # 2^18 - 1 minor sums took about 0.9 s
    n = 18
    A = np.zeros((n, n), dtype=complex)
    A[:2, :2] = 1e200
    A[2:, 2:] = 1e200 * np.triu(random_complex(rng, n - 2), 1)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(charpoly._berkowitz(A)).all()
    calls = _counted_minor_sums(monkeypatch)
    assert charpoly_all(A).g == (2e200, *[0] * (n - 1))
    assert calls == []


def test_charpoly_takes_the_minor_sums_where_the_rescaled_recurrence_underflows(rng, monkeypatch):
    # a 1e200 2 x 2 block beside an O(1) block B: on 2^-e A the products of
    # B's entries underflow, and that run's g_r for r >= 3 would be 0; as its
    # trace is 2e200 and its determinant 0, g_r(A) = g_r(B) + 2e200 g_{r-1}(B)
    n = 8
    A = np.zeros((n, n), dtype=complex)
    A[:2, :2] = 1e200
    A[2:, 2:] = B = random_complex(rng, n - 2)
    calls = _counted_minor_sums(monkeypatch)
    g = charpoly_all(A).g
    assert calls == list(range(1, n + 1))
    h = (1, *charpoly_all(B).g, 0, 0)
    for r, value in enumerate(g, 1):
        expected = h[r] + 2e200 * h[r - 1]
        assert abs(value - expected) <= 1e-12 * abs(expected)


def test_charpoly_keeps_coefficients_beyond_the_float_range_without_minor_sums(rng, monkeypatch):
    # 1e200 times a random 10 x 10: the run on 2^-e A is finite, and only
    # its scale-back by 2^(e r) overflows, for every r >= 2; those minor sums
    # cost 2^10 - 1 determinants and let numpy's overflow warnings out
    A = 1e200 * random_complex(rng, 10)
    calls = _counted_minor_sums(monkeypatch)
    g = charpoly_all(A).g
    assert calls == []
    assert rel_dev([g[0], np.trace(A)]) < 1e-12
    assert not any(cmath.isfinite(value) for value in g[1:])


def test_minor_sums_that_overflow_warn_no_caller(rng, monkeypatch):
    # a 1e200 3 x 3 block beside an O(1) block: the rescaled run underflows,
    # so every coefficient is a minor sum, and from r = 2 on they overflow
    # (pytest turns a warning that escapes into a failure)
    n = 6
    A = np.zeros((n, n), dtype=complex)
    A[:3, :3] = 1e200 * random_complex(rng, 3)
    A[3:, 3:] = random_complex(rng, 3)
    calls = _counted_minor_sums(monkeypatch)
    g = charpoly_all(A).g
    assert calls == list(range(1, n + 1))
    assert rel_dev([g[0], np.trace(A)]) < 1e-12
    assert not any(cmath.isfinite(value) for value in g[1:])


def test_r_out_of_range(rng):
    A = random_complex(rng, 3)
    with pytest.raises(ValueError):
        g_r(A, 0)
    with pytest.raises(ValueError):
        g_r(A, 4)


def test_dk_gr_jacobi_r_n_k_1(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = random_complex(rng, n)
        X = random_complex(rng, n)
        adj = np.linalg.det(A) * np.linalg.inv(A)
        target = np.trace(adj @ X)
        for f in (dk_gr_columns, dk_gr_minors, dk_gr_tensor):
            assert rel_dev([f(A, (X,), 1, n), target]) < 1e-10


def test_dk_gr_r1_k1_is_trace(rng):
    A = random_complex(rng, 4)
    X = random_complex(rng, 4)
    for f in (dk_gr_columns, dk_gr_minors, dk_gr_tensor):
        assert rel_dev([f(A, (X,), 1, 1), np.trace(X)]) < 1e-12


def test_dk_gr_k_above_r_zero(rng):
    A = random_complex(rng, 4)
    dirs = tuple(random_complex(rng, 4) for _ in range(3))
    for f in (dk_gr_columns, dk_gr_minors, dk_gr_tensor):
        assert f(A, dirs, 3, 2) == 0


def test_three_formulas_agree_floating(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = random_complex(rng, n)
        r = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, r + 1))
        dirs = tuple(random_complex(rng, n) for _ in range(k))
        vals = [
            dk_gr_columns(A, dirs, k, r),
            dk_gr_minors(A, dirs, k, r),
            dk_gr_tensor(A, dirs, k, r),
        ]
        assert rel_dev(vals) < 1e-10


def test_three_formulas_agree_exact(rng):
    for _ in range(8):
        n = int(rng.integers(2, 5))
        A = random_gaussian_integer(rng, n)
        r = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, r + 1))
        dirs = tuple(random_gaussian_integer(rng, n) for _ in range(k))
        v1 = dk_gr_columns(A, dirs, k, r)
        assert v1 == dk_gr_minors(A, dirs, k, r) == dk_gr_tensor(A, dirs, k, r)
        assert v1 == mixed_partial_interp("gr", A, dirs, r=r)
        assert isinstance(v1, ExactComplex)


def test_r_equals_k_collapses(rng):
    # D^r g_r(A)(X,...,X) = r! g_r(X), independent of A
    for n in (2, 3, 4):
        A = random_complex(rng, n)
        X = random_complex(rng, n)
        for r in range(1, n + 1):
            val = dk_gr_columns(A, (X,) * r, r, r)
            assert rel_dev([val, math.factorial(r) * g_r(X, r)]) < 1e-10


def test_direction_symmetry_and_multilinearity(rng):
    n = 4
    A = random_complex(rng, n)
    dirs = tuple(random_complex(rng, n) for _ in range(2))
    base = dk_gr_columns(A, dirs, 2, 3)
    assert rel_dev([dk_gr_columns(A, dirs[::-1], 2, 3), base]) < 1e-10
    U, V = random_complex(rng, n), random_complex(rng, n)
    alpha = 1.3 + 0.2j
    lhs = dk_gr_columns(A, (dirs[0], U + alpha * V), 2, 3)
    rhs = dk_gr_columns(A, (dirs[0], U), 2, 3) + alpha * dk_gr_columns(
        A, (dirs[0], V), 2, 3
    )
    assert rel_dev([lhs, rhs]) < 1e-10


def test_finite_difference_first_order(rng):
    for _ in range(5):
        n = int(rng.integers(2, 5))
        A = random_complex(rng, n)
        A /= np.linalg.svd(A, compute_uv=False)[0]
        X = random_complex(rng, n)
        X /= np.linalg.svd(X, compute_uv=False)[0]
        for r in range(1, n + 1):
            fd = finite_diff("gr", A, X, 1e-5, r=r)
            an = dk_gr_columns(A, (X,), 1, r)
            assert rel_dev([fd, an]) < 1e-6


def test_dispatch_all(rng):
    A = random_complex(rng, 3)
    dirs = (random_complex(rng, 3),)
    out = dk_gr(A, dirs, 1, 2, "all")
    assert set(out) == {"columns", "minors", "tensor"}
    assert rel_dev(list(out.values())) < 1e-10


FORMS = (dk_gr_columns, dk_gr_minors, dk_gr_tensor)


def _loop_over_restrictions(A, dirs, k, r):
    """The three forms as one loop over restrictions, each evaluated alone."""
    inner = index_plan(k, r)
    c = inner.combos
    columns = minors = tensor = complex(0.0)
    for I in enumerate_strict(r, A.shape[0]):
        AI = submatrix(A, I, I)
        XI = np.stack([submatrix(X, I, I) for X in dirs])
        columns = columns + total(det_batch(replacement_stack(AI, XI)))
        signed = signed_complement_minors(AI, k)
        for sigma in inner.perms:
            # (l, m) entry X^{sigma(m)}[i_l, j_m] of the block of rows I and columns J
            blocks = XI[sigma, c[:, None, :, None], c[None, :, None, :]]
            minors = minors + total(signed * det_batch(blocks))
        tensor = tensor + block_trace(tilde_antisym_block(AI, k), mixed_antisym_projected(XI))
    return columns, minors, math.factorial(k) * tensor


@pytest.mark.parametrize("n", [1, 4, 6])
def test_batched_forms_equal_the_loop_over_restrictions(n, rng):
    A = random_complex(rng, n)
    dirs = tuple(random_complex(rng, n) for _ in range(3))
    for r in range(1, n + 1):
        for k in range(1, min(r, 3) + 1):
            got = tuple(form(A, dirs[:k], k, r) for form in FORMS)
            assert got == _loop_over_restrictions(A, dirs[:k], k, r)


def _g_r(A, dirs, k, r):
    return g_r(A, r)


def _norm(A, dirs, k, r):
    return dk_gr_norm_exact(A, k, r).value


def _bound(A, dirs, k, r):
    return gr_perturb_bound(A, dirs[0], r).value


@pytest.mark.parametrize("form", FORMS + (_g_r, _norm, _bound))
@pytest.mark.parametrize("exact, n, k, r", [(False, 6, 2, 4), (False, 5, 3, 3), (True, 5, 2, 3)])
def test_one_restriction_per_chunk_gives_the_same_value(form, exact, n, k, r, rng, monkeypatch):
    make = random_gaussian_integer if exact else random_complex
    A = make(rng, n)
    dirs = tuple(make(rng, n) for _ in range(k))
    whole = form(A, dirs, k, r)
    calls, chunks = [], []
    det_batch = charpoly.det_batch
    principal_blocks = tensor.principal_blocks
    monkeypatch.setattr(permanent, "_STACK_BUDGET", 64)
    monkeypatch.setattr(charpoly, "det_batch", lambda *a: calls.append(1) or det_batch(*a))
    monkeypatch.setattr(tensor, "principal_blocks", lambda *a: chunks.append(1) or principal_blocks(*a))
    assert form(A, dirs, k, r) == whole
    if form not in FORMS:
        # several restrictions of r x r elements fit one 64-element chunk
        assert 1 < len(chunks) < math.comb(n, r)
        return
    # one det_batch per chunk, stacked term and slice: C(n, r) chunks.  The
    # columns form's one term is its replacement stack; each of the k! terms
    # of the other forms gathers C(r, k)^2 blocks of order k, so at n, k, r =
    # 6, 2, 4 its 36 blocks take 3 slices of 16 and 15 chunks 90 calls
    if form is dk_gr_columns:
        terms = -(-math.perm(r, k) // permanent.budget_length(r * r))
    else:
        terms = math.factorial(k) * -(-math.comb(r, k) ** 2 // permanent.budget_length(k * k))
    if (n, k, r) == (6, 2, 4) and form is not dk_gr_columns:
        assert len(calls) == 90
    assert len(chunks) == math.comb(n, r)
    assert len(calls) == math.comb(n, r) * terms


@pytest.mark.parametrize("r", range(1, 6))
def test_exact_restrictions_of_every_order_reach_bareiss(r, rng, monkeypatch):
    # an exact g_r of every order is one det_bareiss call on the whole
    # matrix, with the order r, orders 1 and 2 included
    A = random_gaussian_integer(rng, 5)
    reference = _minor_sum(A, r)
    calls = []
    det_bareiss = tensor.det_bareiss

    def counted(m, minors=None):
        calls.append((m.shape, minors))
        return det_bareiss(m, minors)

    monkeypatch.setattr(tensor, "det_bareiss", counted)
    assert g_r(A, r) == reference
    assert calls == [((5, 5), r)]


@pytest.mark.parametrize("r", range(1, 7))
@pytest.mark.parametrize("shape", [(), (3,)])
def test_exact_g_r_from_order_4_is_one_berkowitz_run_per_lift(rng, r, shape, monkeypatch):
    # through order 3 the kernel sums the gathered restrictions' closed-form
    # determinants; from order 4 it takes Berkowitz's g_r of each whole image
    stack = np.stack([random_gaussian_integer(rng, 6) for _ in range(math.prod(shape))])
    stack = stack.reshape(*shape, 6, 6)
    lifts, runs, gathers = [], [], []
    lift, berkowitz, gather = tensor.modular_values, tensor._berkowitz, tensor.principal_blocks
    monkeypatch.setattr(tensor, "modular_values", lambda *a: lifts.append(1) or lift(*a))
    monkeypatch.setattr(tensor, "_berkowitz", lambda *a: runs.append(a[0].shape) or berkowitz(*a))
    monkeypatch.setattr(tensor, "principal_blocks", lambda *a: gathers.append(1) or gather(*a))
    values = np.asarray(g_r(stack, r), dtype=object)
    assert len(lifts) == 1
    if r > 3:
        assert len(runs) == 1 and runs[0][-2:] == (6, 6) and gathers == []
    else:
        assert runs == [] and gathers
    for value, M in zip(values.ravel(), stack.reshape(-1, 6, 6), strict=True):
        reference = _minor_sum(M, r)
        assert value == reference and _parts(value) == _parts(reference)


def test_exact_g_7_of_a_14_by_14_matches_the_floating_minor_sum(rng):
    A = random_gaussian_integer(rng, 14)
    exact, floating = g_r(A, 7), g_r(to_complex(A), 7)
    assert abs(to_complex(np.array([exact]))[0] - floating) <= 1e-9 * abs(floating)


@pytest.mark.parametrize("budget", [None, 2])
def test_exact_g_r_of_a_node_stack_lifts_one_value_per_matrix_and_chunk(rng, monkeypatch, budget):
    # the interpolation oracle's 16 "gr" nodes of order 5 at r = 3, of 10
    # restrictions each: one lift of 16 sums, whether the residue kernel
    # takes the restrictions in one chunk or in chunks of 2
    A, X, Y = (random_gaussian_integer(rng, 5) for _ in range(3))
    nodes = oracle._node_stack(A, (X, Y), np.array([(s, t) for s in range(4) for t in range(4)]))
    references = [_minor_sum(M, 3) for M in nodes]
    if budget:
        monkeypatch.setattr(tensor, "budget_length", lambda elements: budget)
    lift, built, chunks = tensor.modular_values, [], []
    gather = tensor.principal_blocks

    def counted(*args):
        values = lift(*args)
        built.append(len(values))
        return values

    def gathered(M, rows):
        chunks.append(len(rows))
        return gather(M, rows)

    monkeypatch.setattr(tensor, "modular_values", counted)
    monkeypatch.setattr(tensor, "principal_blocks", gathered)
    values = g_r(nodes, 3)
    assert built == [16]
    assert chunks == ([2] * 5 if budget else [10])
    for value, reference in zip(values, references, strict=True):
        assert value == reference and _parts(value) == _parts(reference)


@pytest.mark.parametrize("n", range(1, 7))
def test_exact_g_r_of_a_stack_equals_the_berkowitz_coefficients(rng, n):
    # each matrix's charpoly_all coefficient and its Leibniz minors summed in
    # ExactComplex: Gaussian integers, Fraction parts, parts beyond int64 and
    # a zero row
    stack = np.stack([random_gaussian_integer(rng, n) for _ in range(4)])
    stack[1] = stack[1] / 3
    stack[2] = stack[2] * 2**70 + random_gaussian_integer(rng, n)
    stack[3, 0] = ExactComplex(0)
    coefficients = [charpoly_all(M) for M in stack]
    for r in range(1, n + 1):
        for value, M, g in zip(g_r(stack, r), stack, coefficients, strict=True):
            reference = _minor_sum(M, r)
            assert value == g[r] == reference and _parts(value) == _parts(g[r]) == _parts(reference)


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 6))
def test_exact_g_r_attains_its_bound_past_a_prime_count(n, count):
    # diag(rho) has g_r = e_r(rho), its bound; with rho = (x, 1, ..., 1),
    # e_r = a x + b for a = C(n-1, r-1) and b = C(n-1, r), and the least x
    # with 2 e_r > M, the product of `count` primes, needs count + 1 primes:
    # with count, e_r > M/2 would lift to e_r - M
    M = permanent._crt_plan(count)[-1]
    for r in range(1, n + 1):
        a, b = math.comb(n - 1, r - 1), math.comb(n - 1, r)
        x = (M // 2 - b) // a + 1
        rho = [x] + [1] * (n - 1)
        e = a * x + b
        assert permanent._elementary(rho, r) == e and permanent._prime_count(2 * e) == count + 1
        D = np.full((n, n), ExactComplex(0), dtype=object)
        D[range(n), range(n)] = [ExactComplex(v) for v in rho]
        value = g_r(D, r)
        assert value == e and _parts(value) == (ExactComplex, int, int)
        # the scaled entries of D / 3 have the same bound, and g_r is
        # homogeneous of degree r, not n
        assert g_r(D / 3, r) == Fraction(e, 3**r)


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("n", range(1, 8))
def test_g_r_of_a_stack_equals_g_r_of_each_matrix(rng, n, chunked, monkeypatch):
    floating = np.stack([random_complex(rng, n) for _ in range(3)]).reshape(3, 1, n, n)
    exact = np.stack([random_gaussian_integer(rng, n) for _ in range(3)])
    exact[1, 0] = exact[1, 0] / 3  # Fraction parts
    singles = {r: ([g_r(M, r) for M in floating[:, 0]], [g_r(M, r) for M in exact]) for r in range(1, n + 1)}
    if chunked:  # two restrictions per chunk, joined along the last axis
        monkeypatch.setattr(tensor, "budget_length", lambda elements: 2)
    for r, (floats, exacts) in singles.items():
        values = g_r(floating, r)
        assert values.shape == (3, 1) and values.dtype == complex
        assert values[:, 0].tobytes() == np.array(floats).tobytes()  # bit for bit
        values = g_r(exact, r)
        assert values.shape == (3,) and values.dtype == object
        for value, single in zip(values, exacts):
            assert isinstance(value, ExactComplex) and value == single
            assert (type(value.re), type(value.im)) == (type(single.re), type(single.im))


@pytest.mark.parametrize("name", ["g_r", "charpoly_all", "dk_gr_norm_exact", "gr_perturb_bound"])
def test_restriction_sums_memory_is_bounded_at_n16_r8(name, rng):
    # gathered at once, the 12 870 restrictions of order 8 (and their SVD
    # factors) take 26-40 MB; the index plans are kept for the process, so
    # they are built first
    A, X = random_complex(rng, 16), random_complex(rng, 16)
    run = {
        "g_r": lambda: g_r(A, 8),
        "charpoly_all": lambda: charpoly_all(A),
        "dk_gr_norm_exact": lambda: dk_gr_norm_exact(A, 1, 8),
        "gr_perturb_bound": lambda: gr_perturb_bound(A, X, 8),
    }[name]
    for r in range(1, 17):
        index_plan(r, 16).combos
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("form", FORMS)
def test_peak_memory_is_bounded_at_n10_k3_r6(form, rng):
    A = random_complex(rng, 10)
    dirs = tuple(random_complex(rng, 10) for _ in range(3))
    form(A, dirs, 3, 6)  # build the index plans outside the measurement
    tracemalloc.start()
    try:
        form(A, dirs, 3, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_columns_form_memory_is_bounded_at_n8_k8_r8(rng):
    # one restriction's whole 8! = 40 320-matrix replacement stack would take
    # 41 MB; the index plan is kept for the process, so it is built first
    A, X = random_complex(rng, 8), random_complex(rng, 8)
    plan = index_plan(8, 8)
    plan.combos, plan.perms
    tracemalloc.start()
    try:
        value = dk_gr_columns(A, (X,) * 8, 8, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert rel_dev([value, math.factorial(8) * np.linalg.det(X)]) < 1e-10


@pytest.mark.parametrize("exact", [False, True])
def test_principal_restrictions_equal_the_submatrices(exact, rng):
    make = random_gaussian_integer if exact else random_complex
    for n in range(1, 6):
        A = make(rng, n)
        for r in range(n + 2):
            basis = enumerate_strict(r, n)
            got = principal_restrictions(A, r)
            assert [p.I for p in got] == list(basis)
            for p, I in zip(got, basis):
                expected = submatrix(A, I, I)
                assert p.value.dtype == expected.dtype and np.array_equal(p.value, expected)


# -- properties of D^k g_r, for all three forms --------------------------------

_SIZES = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, n).flatmap(
        lambda r: st.tuples(st.just(n), st.just(r), st.integers(1, min(r, 3)))
    )
)
_PROPERTY = settings(max_examples=20, deadline=None)


def _instance(seed, n, k, exact=False):
    rng = np.random.default_rng(seed)
    make = random_gaussian_integer if exact else random_complex
    return make(rng, n), tuple(make(rng, n) for _ in range(k))


@_PROPERTY
@given(size=_SIZES, seed=st.integers(0, 2**32 - 1), order=st.randoms())
def test_property_direction_order_does_not_matter(size, seed, order):
    n, r, k = size
    A, dirs = _instance(seed, n, k)
    shuffled = list(dirs)
    order.shuffle(shuffled)
    for form in FORMS:
        assert rel_dev([form(A, dirs, k, r), form(A, tuple(shuffled), k, r)]) < 1e-10


@_PROPERTY
@given(size=_SIZES, seed=st.integers(0, 2**32 - 1))
def test_property_linear_in_the_first_slot(size, seed):
    n, r, k = size
    A, dirs = _instance(seed, n, k + 1)
    U, V, rest = dirs[0], dirs[1], dirs[2:]
    alpha = complex(*np.random.default_rng(seed).standard_normal(2))
    for form in FORMS:
        lhs = form(A, (U + alpha * V, *rest), k, r)
        rhs = form(A, (U, *rest), k, r) + alpha * form(A, (V, *rest), k, r)
        assert rel_dev([lhs, rhs]) < 1e-10


@_PROPERTY
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), exact=st.booleans())
def test_property_order_above_r_is_an_exact_zero(n, seed, exact):
    r = int(np.random.default_rng(seed).integers(1, n + 1))
    A, dirs = _instance(seed, n, r + 1, exact)
    for form in FORMS:
        value = form(A, dirs, r + 1, r)
        assert value == 0
        assert isinstance(value, ExactComplex if exact else complex)


@_PROPERTY
@given(size=_SIZES, seed=st.integers(0, 2**32 - 1))
def test_property_exact_mode_agrees_with_floating_mode(size, seed):
    n, r, k = size
    A, dirs = _instance(seed, n, k, exact=True)
    floating = tuple(map(to_complex, dirs))
    for form in FORMS:
        value = form(A, dirs, k, r)
        assert isinstance(value, ExactComplex)
        assert rel_dev([complex(value), form(to_complex(A), floating, k, r)]) < 1e-10


@_PROPERTY
@given(size=_SIZES.filter(lambda s: s[0] <= 4), seed=st.integers(0, 2**32 - 1))
def test_property_exact_mode_equals_the_interpolation_oracle(size, seed):
    n, r, k = size
    A, dirs = _instance(seed, n, k, exact=True)
    oracle = mixed_partial_interp("gr", A, dirs, r=r)
    for form in FORMS:
        assert form(A, dirs, k, r) == oracle
