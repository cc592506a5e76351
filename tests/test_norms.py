import math

import numpy as np
import pytest

from conftest import random_complex, random_unitary, rel_dev
from permderiv.charpoly import g_r, principal_restrictions
from permderiv.derivatives import dkper_columns, dper
from permderiv.norms import (
    dk_gr_norm_exact,
    dkper_norm_bound,
    elementary_symmetric,
    gr_perturb_bound,
    gr_perturb_bound_weak,
    operator_norm,
    per_perturb_bound,
    singular_values,
    svd,
    trace_norm,
    trace_norm_witness,
)
from permderiv.permanent import per


def test_svd_diagonal():
    assert np.allclose(svd(np.diag([3.0, 1.0]).astype(complex)).values, [3, 1])


def test_svd_unitary(rng):
    U = random_unitary(rng, 4)
    assert np.allclose(svd(U).values, 1.0)


def test_svd_rank_one(rng):
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    s = svd(np.outer(u, v.conj()))
    assert abs(s.values[0] - np.linalg.norm(u) * np.linalg.norm(v)) < 1e-10
    assert np.allclose(s.values[1:], 0.0)


def test_svd_reconstruction_500(rng):
    for _ in range(500):
        n = int(rng.integers(1, 9))
        A = random_complex(rng, n)
        spec = svd(A)
        fro = np.linalg.norm(A)
        assert np.linalg.norm(spec.reconstruct() - A) <= 1e-10 * fro
        assert np.all(np.diff(spec.values) <= 1e-12)
        assert np.allclose(
            spec.left_factor @ spec.left_factor.conj().T, np.eye(n), atol=1e-10
        )
        assert np.allclose(
            spec.right_factor @ spec.right_factor.conj().T, np.eye(n), atol=1e-10
        )


def test_operator_norm_examples(rng):
    assert operator_norm(np.diag([3.0, 1.0]).astype(complex)) == pytest.approx(3)
    assert operator_norm(np.eye(5, dtype=complex)) == pytest.approx(1)
    assert operator_norm(2 * random_unitary(rng, 3)) == pytest.approx(2)
    empty = np.zeros((0, 0), dtype=complex)
    assert operator_norm(empty) == 0.0
    assert per_perturb_bound(empty, empty).value == 0


def test_trace_norm_examples(rng):
    assert trace_norm(np.diag([3.0, -1.0]).astype(complex)) == pytest.approx(4)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    A = np.outer(u, v.conj())
    assert trace_norm(A) == pytest.approx(operator_norm(A))


def test_norm_sandwich(rng):
    for _ in range(50):
        n = int(rng.integers(1, 8))
        A = random_complex(rng, n)
        op = operator_norm(A)
        tr = trace_norm(A)
        assert op <= tr + 1e-12
        assert tr <= n * op + 1e-12


def test_trace_norm_duality_witness(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = random_complex(rng, n)
        X = trace_norm_witness(A)
        assert operator_norm(X) <= 1 + 1e-10
        assert abs(np.trace(A @ X.conj().T)) == pytest.approx(trace_norm(A), abs=1e-10)


def test_elementary_symmetric_values():
    assert elementary_symmetric(2, [1, 2, 3]) == pytest.approx(11)
    assert elementary_symmetric(0, [5, 7]) == 1
    for r in range(1, 8):
        for k in range(r + 1):
            assert elementary_symmetric(k, [1.0] * r) == pytest.approx(math.comb(r, k))
    with pytest.raises(ValueError):
        elementary_symmetric(3, [1, 2])


def test_elementary_symmetric_runs_across_a_stack_row_by_row(rng):
    values = np.abs(rng.standard_normal((7, 5)))
    for k in range(6):
        rows = elementary_symmetric(k, values)
        assert rows.shape == (7,)
        assert rows.tolist() == [elementary_symmetric(k, list(v)) for v in values]


def test_restriction_norms_equal_the_loop_over_restrictions(rng):
    # one SVD of the stack gives each restriction's singular values bit for bit,
    # and the sums run in restriction order
    for n in (1, 3, 5, 6):
        A, X = random_complex(rng, n), random_complex(rng, n)
        nx = operator_norm(X)
        for r in range(1, n + 1):
            spectra = [np.linalg.svd(rest.value, compute_uv=False) for rest in principal_restrictions(A, r)]
            for k in range(1, r + 1):
                total = 0.0
                for s in spectra:
                    total += elementary_symmetric(r - k, s)
                assert dk_gr_norm_exact(A, k, r).value == math.factorial(k) * total
            bound = 0.0
            for s in spectra:
                for k in range(1, r + 1):
                    bound += elementary_symmetric(r - k, s) * nx**k
            assert gr_perturb_bound(A, X, r).value == bound


def test_dkper_norm_bound_values(rng):
    n = 4
    A = random_complex(rng, n)
    norm = operator_norm(A)
    assert dkper_norm_bound(A, 1).value == pytest.approx(n * norm ** (n - 1))
    assert dkper_norm_bound(A, n).value == pytest.approx(math.factorial(n))
    eye = np.eye(3, dtype=complex)
    report = dkper_norm_bound(eye, 1)
    assert report.value == pytest.approx(3)
    assert report.witness is not None
    assert rel_dev([dper(eye, report.witness), report.value]) < 1e-12


def test_dkper_norm_bound_soundness(rng):
    for n in (2, 3, 4):
        A = random_complex(rng, n)
        for k in range(1, n + 1):
            bound = dkper_norm_bound(A, k).value
            for _ in range(25):
                dirs = tuple(random_unitary(rng, n) for _ in range(k))
                val = abs(dkper_columns(A, dirs))
                assert val <= bound * (1 + 1e-12)


def test_per_perturb_bound(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        A = random_complex(rng, n)
        X = random_complex(rng, n)
        bound = per_perturb_bound(A, X).value
        assert abs(per(A + X) - per(A)) <= bound * (1 + 1e-10)
    assert per_perturb_bound(A, np.zeros_like(A)).value == 0


def test_per_perturb_tightness_identity():
    for n in (2, 3, 5):
        eye = np.eye(n, dtype=complex)
        for x in (0.1, 0.5, 1.0, 2.0):
            bound = per_perturb_bound(eye, x * eye).value
            actual = abs(per((1 + x) * eye) - per(eye))
            assert rel_dev([bound + 0j, actual + 0j]) < 1e-12


def test_dk_gr_norm_exact_i3():
    report = dk_gr_norm_exact(np.eye(3, dtype=complex), 1, 2)
    assert report.value == pytest.approx(6)
    assert report.kind == "exact"


def test_dk_gr_norm_exact_k_equals_r(rng):
    n = 4
    A = random_complex(rng, n)
    for r in range(1, n + 1):
        assert dk_gr_norm_exact(A, r, r).value == pytest.approx(
            math.factorial(r) * math.comb(n, r)
        )


def test_dk_gr_norm_soundness_and_attainment(rng):
    for n in (2, 3, 4):
        A = random_complex(rng, n)
        for r in range(1, n + 1):
            for k in range(1, r + 1):
                exact = dk_gr_norm_exact(A, k, r).value
                for _ in range(20):
                    dirs = tuple(random_unitary(rng, n) for _ in range(k))
                    from permderiv.charpoly import dk_gr_columns

                    assert abs(dk_gr_columns(A, dirs, k, r)) <= exact * (1 + 1e-12)
    # attainment for diagonal nonnegative A at k = 1: witness is the identity
    D = np.diag([2.0, 1.0, 0.5]).astype(complex)
    for r in (1, 2, 3):
        report = dk_gr_norm_exact(D, 1, r)
        assert report.witness is not None
        from permderiv.charpoly import dk_gr_columns

        attained = abs(dk_gr_columns(D, (report.witness,), 1, r))
        assert attained == pytest.approx(report.value, rel=1e-10)


def test_gr_perturb_bound(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        A = random_complex(rng, n)
        X = random_complex(rng, n)
        for r in range(1, n + 1):
            bound = gr_perturb_bound(A, X, r).value
            assert abs(g_r(A + X, r) - g_r(A, r)) <= bound * (1 + 1e-10)
    assert gr_perturb_bound(A, np.zeros_like(A), 2).value == 0


def test_gr_perturb_bound_r1(rng):
    A = random_complex(rng, 4)
    X = random_complex(rng, 4)
    assert abs(np.trace(X)) <= 4 * operator_norm(X) + 1e-12


def test_gr_perturb_tightness_identity():
    for n in (2, 3, 4, 5, 6):
        eye = np.eye(n, dtype=complex)
        for r in range(1, n + 1):
            for x in (0.25, 1.0):
                bound = gr_perturb_bound(eye, x * eye, r).value
                actual = abs(g_r((1 + x) * eye, r) - g_r(eye, r))
                assert rel_dev([bound + 0j, actual + 0j]) < 1e-12


def test_weak_bound_dominates(rng):
    for _ in range(50):
        n = int(rng.integers(2, 5))
        A = random_complex(rng, n)
        X = random_complex(rng, n)
        for r in range(1, n + 1):
            sharp = gr_perturb_bound(A, X, r).value
            weak = gr_perturb_bound_weak(A, X, r).value
            assert weak >= sharp * (1 - 1e-12)


def test_weak_bound_zero_A(rng):
    n = 3
    X = random_complex(rng, n)
    for r in range(1, n + 1):
        expected = math.comb(n, r) * operator_norm(X) ** r
        assert gr_perturb_bound_weak(np.zeros((n, n), dtype=complex), X, r).value == (
            pytest.approx(expected)
        )


def test_singular_values_match_numpy(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        A = random_complex(rng, n)
        assert np.allclose(
            singular_values(A), np.linalg.svd(A, compute_uv=False), atol=1e-10
        )


_NOT_SQUARE = [(2, 3), (3,), (2, 2, 2)]


@pytest.mark.parametrize("shape", _NOT_SQUARE)
@pytest.mark.parametrize("bound", [
    pytest.param(lambda A: dkper_norm_bound(A, 1), id="dkper_norm_bound"),
    pytest.param(lambda A: per_perturb_bound(A, A), id="per_perturb_bound"),
    pytest.param(lambda A: dk_gr_norm_exact(A, 1, 1), id="dk_gr_norm_exact"),
    pytest.param(lambda A: gr_perturb_bound(A, A, 1), id="gr_perturb_bound"),
    pytest.param(lambda A: gr_perturb_bound_weak(A, A, 1), id="gr_perturb_bound_weak"),
])
def test_norms_refuse_a_matrix_that_is_not_square(bound, shape):
    # with a 2 x 3 A, per_perturb_bound once returned 18 and the weak g_r bound
    # 4.9; the other three failed inside numpy, each with another error
    with pytest.raises(ValueError, match="square matrix required"):
        bound(np.ones(shape, dtype=complex))


@pytest.mark.parametrize("bound", [per_perturb_bound, gr_perturb_bound, gr_perturb_bound_weak])
def test_perturbation_bounds_refuse_a_direction_of_another_shape(bound):
    args = (1,) if bound is not per_perturb_bound else ()
    with pytest.raises(ValueError, match="same shape"):
        bound(np.eye(3, dtype=complex), np.eye(2, dtype=complex), *args)
