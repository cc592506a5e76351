import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_complex, random_gaussian_integer, rel_dev, typed
from permderiv import oracle, permanent, tensor
from permderiv.charpoly import charpoly_all, g_r
from permderiv.derivatives import dkper, dper
from permderiv.oracle import (
    _int_weights,
    _linear_coeff_weights,
    faddeev_leverrier,
    finite_diff,
    mixed_partial_interp,
)
from permderiv.permanent import per
from permderiv.scalars import exact_matrix


def test_interp_first_order_matches_dper_exact(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        A = random_gaussian_integer(rng, n)
        X = random_gaussian_integer(rng, n)
        assert mixed_partial_interp("per", A, (X,)) == dper(A, X)


def test_interp_top_order_is_factorial_per(rng):
    for n in (2, 3):
        A = random_gaussian_integer(rng, n)
        X = random_gaussian_integer(rng, n)
        value = mixed_partial_interp("per", A, (X,) * n)
        assert value == math.factorial(n) * per(X)


def test_interp_jacobi_for_gn(rng):
    for _ in range(5):
        n = int(rng.integers(2, 5))
        A = random_complex(rng, n)
        X = random_complex(rng, n)
        adj = np.linalg.det(A) * np.linalg.inv(A)
        val = mixed_partial_interp("gr", A, (X,), r=n)
        assert rel_dev([val, np.trace(adj @ X)]) < 1e-7


def test_interp_rejects_mixed_modes(rng):
    A = random_gaussian_integer(rng, 2)
    X = random_complex(rng, 2)
    with pytest.raises(ValueError):
        mixed_partial_interp("per", A, (X,))


def test_interp_size_guards(rng):
    A = random_complex(rng, 7)
    with pytest.raises(ValueError):
        mixed_partial_interp("per", A, (A,))


def test_finite_diff_linear_exact_any_h(rng):
    A = random_complex(rng, 3)
    X = random_complex(rng, 3)
    # trace is linear, so central differences are exact at any h
    for h in (1.0, 0.1):
        fd = finite_diff(lambda M: np.trace(M), A, X, h)
        assert rel_dev([fd, np.trace(X)]) < 1e-12


def test_finite_diff_zero_direction(rng):
    A = random_complex(rng, 3)
    assert finite_diff("per", A, np.zeros((3, 3), dtype=complex), 1e-5) == 0


def test_finite_diff_matches_dper(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        A = random_complex(rng, n)
        A /= np.linalg.svd(A, compute_uv=False)[0]
        X = random_complex(rng, n)
        X /= np.linalg.svd(X, compute_uv=False)[0]
        assert rel_dev([finite_diff("per", A, X, 1e-5), dper(A, X)]) < 1e-6


def test_finite_diff_second_order_convergence(rng):
    A = random_complex(rng, 4)
    A /= np.linalg.svd(A, compute_uv=False)[0]
    X = random_complex(rng, 4)
    X /= np.linalg.svd(X, compute_uv=False)[0]
    exact = dper(A, X)
    errors = [abs(finite_diff("per", A, X, h) - exact) for h in (1e-2, 5e-3, 2.5e-3)]
    for e1, e2 in zip(errors, errors[1:]):
        ratio = e1 / e2
        assert 3.0 < ratio < 5.0


def test_faddeev_leverrier_diag123():
    assert np.allclose(faddeev_leverrier(np.diag([1.0, 2.0, 3.0]).astype(complex)), [6, 11, 6])


def test_faddeev_leverrier_identity():
    assert np.allclose(
        faddeev_leverrier(np.eye(5, dtype=complex)), [math.comb(5, r) for r in range(1, 6)]
    )


def test_faddeev_leverrier_nilpotent():
    N = np.diag(np.ones(3), 1).astype(complex)
    assert np.allclose(faddeev_leverrier(N), 0)


def test_faddeev_leverrier_matches_minor_sums(rng):
    empty = np.zeros((0, 0), dtype=complex)
    assert faddeev_leverrier(empty) == charpoly_all(empty).g == ()
    for _ in range(20):
        n = int(rng.integers(2, 9))
        A = random_complex(rng, n)
        g = np.array(charpoly_all(A).g)
        fl = np.array(faddeev_leverrier(A))
        scale = max(1.0, np.abs(g).max())
        assert np.abs(g - fl).max() / scale < 1e-9


def test_interp_exact_matrix_helper():
    A = exact_matrix([[1, 2], [3, 4]])
    X = exact_matrix([[1, 0], [0, 1]])
    assert mixed_partial_interp("per", A, (X,)) == dper(A, X)


def test_linear_coeff_weights_extract_the_linear_coefficient():
    # sum_j w_j f(j) is the t coefficient of f for every f = t^p of degree p <= d
    for d in range(9):
        weights = _linear_coeff_weights(d)
        assert len(weights) == d + 1
        for p in range(d + 1):
            assert sum(w * j**p for j, w in enumerate(weights)) == (1 if p == 1 else 0)


@pytest.mark.parametrize("d", range(9))
def test_int_weights_over_scale_to_the_k_are_the_fraction_weights(d):
    weights, scale = _int_weights(d)
    fractions = _linear_coeff_weights(d)
    assert all(type(w) is int for w in weights) and type(scale) is int
    assert scale == math.lcm(*(w.denominator for w in fractions))
    for k in range(4):
        for nodes in itertools.product(range(d + 1), repeat=k):
            expected = math.prod((fractions[t] for t in nodes), start=Fraction(1))
            assert Fraction(math.prod(weights[t] for t in nodes), scale**k) == expected


def _recording(evaluate, values):
    def recorded(*args):
        result = evaluate(*args)
        values.extend(np.ravel(result).tolist())
        return result

    return recorded


def _bits(z):
    return complex(z).real.hex(), complex(z).imag.hex()


@pytest.mark.parametrize("n", range(1, 7))
def test_floating_oracle_is_the_fraction_weighted_sum_in_grid_order(rng, n, monkeypatch):
    # every float keeps the bits of sum_nodes w * value with Fraction weights w,
    # added in grid order from complex(0.0), for the values the evaluator gave
    values = []
    monkeypatch.setattr(oracle, "per_batch", _recording(oracle.per_batch, values))
    monkeypatch.setattr(oracle, "g_r", _recording(oracle.g_r, values))
    A, Xs = random_complex(rng, n), [random_complex(rng, n) for _ in range(3)]
    if n == 2:  # values that overflow: an infinite part beside a nan one
        A = np.full((2, 2), 1e308 + 0j)  # g_1 = tr A = inf
    infinite = False
    for k in range(4):
        for phi, r in [("per", None)] + [("gr", r) for r in range(1, n + 1)]:
            values.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                value = mixed_partial_interp(phi, A, Xs[:k], r=r)
            fractions = _linear_coeff_weights(n if r is None else r)
            weights = [math.prod((fractions[t] for t in nodes), start=Fraction(1))
                       for nodes in itertools.product(range(len(fractions)), repeat=k)]
            weights = [w for w in weights if w]
            expected = complex(0.0)
            for w, v in zip(weights, values, strict=True):
                expected = expected + w * v
            assert type(value) is complex and _bits(value) == _bits(expected)
            infinite |= math.isinf(value.real) or math.isinf(value.imag)
    assert infinite == (n == 2)


def _fraction_matrix(rng, n):
    M = random_gaussian_integer(rng, n)
    M[:1] = M[:1] / 3  # row 0, if any
    return M


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("make", [random_gaussian_integer, _fraction_matrix])
def test_stacked_selectors_equal_the_per_node_callables(rng, k, make):
    n = 3
    A, Xs = make(rng, n), [make(rng, n) for _ in range(k)]
    nodes = []
    value = mixed_partial_interp("per", A, Xs)
    assert value == mixed_partial_interp(lambda M: nodes.append(M) or per(M), A, Xs)
    assert len(nodes) == (n + 1) ** k  # a callable is called once per node
    for r in range(1, n + 1):
        assert mixed_partial_interp("gr", A, Xs, r=r) == mixed_partial_interp(lambda M: g_r(M, r), A, Xs)


def test_interp_of_the_empty_matrix():
    # k = 0 leaves the single node A, of weight 1, and per of a 0 x 0 matrix is 1
    assert mixed_partial_interp("per", np.zeros((0, 0), dtype=object), ()) == 1
    assert mixed_partial_interp("per", np.zeros((0, 0)), ()) == 1


def test_oracle_grid_over_many_node_slices(rng, monkeypatch):
    n, k = 6, 4
    assert (n + 1) ** k > oracle.budget_length(n * n)  # 2401 nodes, two slices
    A, Xs = random_gaussian_integer(rng, n), [random_gaussian_integer(rng, n) for _ in range(k)]
    assert mixed_partial_interp("per", A, Xs) == dkper(A, Xs)
    A, Xs = A[:3, :3], [X[:3, :3] for X in Xs[:3]]
    expected = [mixed_partial_interp("per", A, Xs), mixed_partial_interp("gr", A, Xs, r=2)]
    monkeypatch.setattr(oracle, "budget_length", lambda elements: 5)  # 5 nodes per slice
    assert [mixed_partial_interp("per", A, Xs), mixed_partial_interp("gr", A, Xs, r=2)] == expected


def _count_calls(monkeypatch, calls, module, name):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("budget", [None, 5])
def test_stacked_selectors_evaluate_once_per_node_slice(rng, monkeypatch, budget):
    n, k, r = 5, 2, 3
    A, Xs = random_gaussian_integer(rng, n), [random_gaussian_integer(rng, n) for _ in range(k)]
    step = budget or oracle.budget_length(n * n)
    if budget:
        monkeypatch.setattr(oracle, "budget_length", lambda elements: budget)
    calls = {}
    for module, name in [(oracle, "g_r"), (tensor, "det_bareiss"), (oracle, "per_batch"),
                         (oracle, "per"), (permanent, "per")]:
        _count_calls(monkeypatch, calls, module, name)
    mixed_partial_interp("gr", A, Xs, r=r)
    # one g_r per node slice, and one det_bareiss for its C(5, 3) restrictions
    slices = math.ceil((r + 1) ** k / step)
    assert calls == {"g_r": slices, "det_bareiss": slices}
    calls.clear()
    mixed_partial_interp("per", A, Xs)
    assert calls == {"per_batch": math.ceil((n + 1) ** k / step)}  # and no scalar per


def _near_2_40(rng, n):
    return random_gaussian_integer(rng, n) * 2**40 + random_gaussian_integer(rng, n)


def _beyond_int64(rng, n):
    M = random_gaussian_integer(rng, n)
    if n:
        M[0, 0] = M[0, 0] + (2**70 + 3j)
    return M


@pytest.mark.parametrize("n, k", [(0, 0), (0, 2), (1, 0), (1, 1), (2, 3), (3, 1), (3, 2), (4, 2)])
@pytest.mark.parametrize("make", [random_gaussian_integer, _near_2_40, _beyond_int64, _fraction_matrix])
def test_exact_per_on_residues_equals_the_per_node_callable(rng, n, k, make):
    # the residue route against ExactComplex node matrices and one exact per
    # each: parts that take several primes, parts beyond int64, Fraction rows,
    # k > n (the value 0) and the empty matrix, with the types of the parts
    A, Xs = make(rng, n), [make(rng, n) for _ in range(k)]
    value = mixed_partial_interp("per", A, Xs)
    assert typed([value]) == typed([mixed_partial_interp(lambda M: per(M), A, Xs)])
    if k > n:
        assert value == 0


def test_exact_per_is_one_lift_of_one_value(rng, monkeypatch):
    n, k = 4, 2
    A, Xs = _beyond_int64(rng, n), [_near_2_40(rng, n) for _ in range(k)]
    expected = mixed_partial_interp(lambda M: per(M), A, Xs)
    lifts, built = [], []
    original_lift, original_build = oracle.modular_values, permanent.exact_from_parts
    monkeypatch.setattr(oracle, "modular_values", lambda *args: lifts.append(args) or original_lift(*args))
    for module in (oracle, permanent):
        monkeypatch.setattr(module, "exact_from_parts", lambda re, im: built.append(len(re)) or original_build(re, im))
    assert mixed_partial_interp("per", A, Xs) == expected
    assert len(lifts) == 1 and lifts[0][0].shape == (1, k + 1, n, n) and lifts[0][1] == n
    assert built == [1]  # one ExactComplex, the value


@pytest.mark.parametrize("budget", [None, 1 << 12])
def test_exact_per_node_stacks_are_bounded_by_their_slice(rng, monkeypatch, budget):
    # n = 6, k = 4: 2401 nodes in 27 slices at the default budget and 481 at
    # 2^12.  The peak is bounded by an int64 node stack of c images of
    # s = budget_length(n * n) nodes (c = 20 for parts near 2^40), which holds
    # a slice, up to 8 more int64 per node and image (weight, value, prime),
    # and 4 kernel temporaries of the stack budget; the 2401 nodes in one
    # stack exceed it
    if budget:
        monkeypatch.setattr(permanent, "_STACK_BUDGET", budget)
    n, k = 6, 4
    A, Xs = _near_2_40(rng, n), [_near_2_40(rng, n) for _ in range(k)]
    mixed_partial_interp("per", A, Xs)  # caches the moduli and kernel plans
    images = set()
    original = oracle.per_batch
    monkeypatch.setattr(oracle, "per_batch", lambda nodes, mod: images.add(nodes.shape[0]) or original(nodes, mod))
    tracemalloc.start()
    try:
        value = mixed_partial_interp("per", A, Xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (c,) = images
    s = oracle.budget_length(n * n)
    assert (n + 1) ** k > s and c >= 4  # several primes
    assert peak < c * s * (n * n + 8) * 8 + 4 * 8 * permanent._STACK_BUDGET
    assert value == dkper(A, Xs)


def test_exact_per_peak_does_not_grow_with_the_prime_count(rng):
    # parts near 2^40 take c = 20 images; with slices of budget_length(c n^2)
    # nodes the node residues of a slice fill one stack budget of int64 for
    # any c, so the call stays below 3 MB (slices of budget_length(n^2)
    # nodes, c times as many residues, peaked at 12.7 MB)
    n, k = 6, 4
    A, Xs = _near_2_40(rng, n), [_near_2_40(rng, n) for _ in range(k)]
    mixed_partial_interp("per", A, Xs)  # caches the moduli and kernel plans
    tracemalloc.start()
    try:
        value = mixed_partial_interp("per", A, Xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    assert value == dkper(A, Xs)
