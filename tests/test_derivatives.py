import math

import numpy as np
import pytest

from conftest import random_complex, random_gaussian_integer, rel_dev
from permderiv.derivatives import (
    DerivativeRequest,
    dkper,
    dkper_columns,
    dkper_minors,
    dkper_tensor,
    dper,
)
from permderiv.oracle import mixed_partial_interp
from permderiv.permanent import padj, per
from permderiv.scalars import ExactComplex


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
        req = DerivativeRequest(A, dirs)
        assert (
            rel_dev([dkper_columns(req), dkper_minors(req), dkper_tensor(req)]) < 1e-10
        )


def test_three_formulas_agree_exact(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        A = random_gaussian_integer(rng, n)
        k = int(rng.integers(1, min(n, 3) + 1))
        dirs = tuple(random_gaussian_integer(rng, n) for _ in range(k))
        req = DerivativeRequest(A, dirs)
        v1 = dkper_columns(req)
        assert v1 == dkper_minors(req) == dkper_tensor(req)
        assert v1 == mixed_partial_interp("per", A, dirs)
        assert isinstance(v1, ExactComplex)


def test_k_equals_n_collapses(rng):
    for n in (2, 3, 4):
        A = random_complex(rng, n)
        X = random_complex(rng, n)
        req = DerivativeRequest(A, (X,) * n)
        expected = math.factorial(n) * per(X)
        for f in (dkper_columns, dkper_minors, dkper_tensor):
            assert rel_dev([f(req), expected]) < 1e-10


def test_k_above_n_is_zero(rng):
    A = random_complex(rng, 3)
    X = random_complex(rng, 3)
    for k in (4, 5):
        req = DerivativeRequest(A, (X,) * k)
        assert dkper_columns(req) == 0
        assert dkper_minors(req) == 0
        assert dkper_tensor(req) == 0


def test_first_order_consistency(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = random_complex(rng, n)
        X = random_complex(rng, n)
        req = DerivativeRequest(A, (X,))
        base = dper(A, X)
        for f in (dkper_columns, dkper_minors, dkper_tensor):
            assert rel_dev([f(req), base]) < 1e-12


def test_direction_permutation_symmetry(rng):
    n = 4
    A = random_complex(rng, n)
    dirs = tuple(random_complex(rng, n) for _ in range(3))
    base = dkper_columns(DerivativeRequest(A, dirs))
    for p in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        shuffled = tuple(dirs[i] for i in p)
        assert rel_dev([dkper_columns(DerivativeRequest(A, shuffled)), base]) < 1e-10


def test_multilinearity(rng):
    n = 4
    A = random_complex(rng, n)
    X = random_complex(rng, n)
    U = random_complex(rng, n)
    V = random_complex(rng, n)
    alpha = 0.9 - 1.4j
    lhs = dkper_columns(DerivativeRequest(A, (X, U + alpha * V)))
    rhs = dkper_columns(DerivativeRequest(A, (X, U))) + alpha * dkper_columns(
        DerivativeRequest(A, (X, V))
    )
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
        DerivativeRequest(A, (np.eye(2, dtype=complex),))
    with pytest.raises(ValueError):
        dper(A, np.eye(2, dtype=complex))


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
