import math

import numpy as np
import pytest

from conftest import random_complex, random_gaussian_integer, rel_dev
from permderiv.charpoly import charpoly_all
from permderiv.derivatives import dper
from permderiv.oracle import (
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
