"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from conftest import random_complex, random_gaussian_integer, random_unitary, rel_dev
from permderiv.charpoly import (
    charpoly_all,
    dk_gr_columns,
    dk_gr_minors,
    dk_gr_tensor,
    g_r,
)
from permderiv.derivatives import (
    dkper_columns,
    dkper_minors,
    dkper_tensor,
)
from permderiv.multiindex import MultiIndex
from permderiv.norms import (
    dk_gr_norm_exact,
    dkper_norm_bound,
    gr_perturb_bound,
    gr_perturb_bound_weak,
    per_perturb_bound,
)
from permderiv.oracle import faddeev_leverrier, finite_diff, mixed_partial_interp
from permderiv.permanent import (
    ReplacementSpec,
    column_replace,
    minor_complement,
    padj,
    per,
)

SEED = 987654321


def _report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion:2d} {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_cross_formula_permanent():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(200):
        n = 2 + i % 5  # cycles through 2..6, 40 instances each
        A = random_complex(rng, n)
        for k in range(1, n + 1):
            dirs = tuple(random_complex(rng, n) for _ in range(k))
            worst = max(
                worst,
                rel_dev([dkper_columns(A, dirs), dkper_minors(A, dirs), dkper_tensor(A, dirs)]),
            )
    exact_ok = True
    for i in range(30):
        n = 2 + i % 4  # 2..5
        A = random_gaussian_integer(rng, n)
        for k in range(1, min(n, 3) + 1):
            dirs = tuple(random_gaussian_integer(rng, n) for _ in range(k))
            oracle = mixed_partial_interp("per", A, dirs)
            exact_ok &= (
                dkper_columns(A, dirs) == oracle
                and dkper_minors(A, dirs) == oracle
                and dkper_tensor(A, dirs) == oracle
            )
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and exact_ok and elapsed <= 60.0
    _report(
        1,
        ok,
        f"three D^k per formulas agree (max rel dev {worst:.2e}, "
        f"exact-oracle match {exact_ok}, {elapsed:.1f}s <= 60s)",
    )


def test_criterion_02_degenerate_identities():
    rng = np.random.default_rng(SEED + 1)
    top_ok = True
    zero_ok = True
    for i in range(50):
        n = 2 + i % 4  # 2..5
        A = random_gaussian_integer(rng, n)
        X = random_gaussian_integer(rng, n)
        value = dkper_columns(A, (X,) * n)
        top_ok &= value == math.factorial(n) * per(X)
        for extra in (1, 2):
            dirs = (X,) * (n + extra)
            zero_ok &= (
                not dkper_columns(A, dirs)
                and not dkper_minors(A, dirs)
                and not dkper_tensor(A, dirs)
            )
    _report(
        2,
        top_ok and zero_ok,
        f"D^n per(A)(X..X) = n! per X exactly ({top_ok}); "
        f"D^k per = 0 for k = n+1, n+2 ({zero_ok})",
    )


def test_criterion_03_first_order_jacobi_analogue():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        A = random_complex(rng, n)
        X = random_complex(rng, n)
        P = padj(A)
        adjoint_trace = sum(P[i, j] * X[i, j] for i in range(n) for j in range(n))
        by_columns = sum(
            per(column_replace(A, ReplacementSpec(MultiIndex((j + 1,)), (X,))))
            for j in range(n)
        )
        by_minors = sum(
            X[i, j] * per(minor_complement(A, MultiIndex((i + 1,)), MultiIndex((j + 1,))))
            for i in range(n)
            for j in range(n)
        )
        worst = max(worst, rel_dev([adjoint_trace, by_columns, by_minors]))
    _report(3, worst <= 1e-12, f"three first-order forms agree (max rel dev {worst:.2e})")


def test_criterion_04_norm_bound_soundness_and_tightness():
    rng = np.random.default_rng(SEED + 3)
    sound = True
    worst_excess = -np.inf
    for n in range(2, 6):
        for k in range(1, n + 1):
            A = random_complex(rng, n)
            bound = dkper_norm_bound(A, k).value
            for _ in range(500):
                dirs = tuple(random_unitary(rng, n) for _ in range(k))
                value = abs(dkper_columns(A, dirs))
                excess = (value - bound) / bound
                worst_excess = max(worst_excess, excess)
                sound &= excess <= 1e-12
    tight = True
    for n in (2, 3, 4):
        eye = np.eye(n, dtype=complex)
        for x in (0.1, 0.5, 1.0, 2.0):
            bound = per_perturb_bound(eye, x * eye).value
            actual = abs(per((1 + x) * eye) - per(eye))
            tight &= rel_dev([bound + 0j, actual + 0j]) <= 1e-12
    _report(
        4,
        sound and tight,
        f"|D^k per| <= k! C(n,k) ||A||^(n-k) on 500 samples per (n,k) "
        f"(worst excess {worst_excess:.2e}); perturbation bound tight at A=I, X=xI ({tight})",
    )


def test_criterion_05_cross_formula_gr():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        A = random_complex(rng, n)
        r = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, r + 1))
        dirs = tuple(random_complex(rng, n) for _ in range(k))
        worst = max(
            worst,
            rel_dev(
                [
                    dk_gr_columns(A, dirs, k, r),
                    dk_gr_minors(A, dirs, k, r),
                    dk_gr_tensor(A, dirs, k, r),
                ]
            ),
        )
    exact_ok = True
    for i in range(50):
        n = 2 + i % 3  # 2..4
        A = random_gaussian_integer(rng, n)
        r = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, r + 1))
        dirs = tuple(random_gaussian_integer(rng, n) for _ in range(k))
        oracle = mixed_partial_interp("gr", A, dirs, r=r)
        exact_ok &= (
            dk_gr_columns(A, dirs, k, r) == oracle
            and dk_gr_minors(A, dirs, k, r) == oracle
            and dk_gr_tensor(A, dirs, k, r) == oracle
        )
    _report(
        5,
        worst <= 1e-10 and exact_ok,
        f"three D^k g_r formulas agree (max rel dev {worst:.2e}, exact-oracle {exact_ok})",
    )


def test_criterion_06_gr_sanity():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for n in range(2, 9):
        for _ in range(5):
            A = random_complex(rng, n)
            coeffs = charpoly_all(A)
            worst = max(worst, rel_dev([coeffs[1], complex(np.trace(A))]))
            worst = max(worst, rel_dev([coeffs[n], complex(np.linalg.det(A))]))
            fl = faddeev_leverrier(A)
            scale = max(1.0, max(abs(v) for v in coeffs.g))
            worst = max(
                worst, max(abs(a - b) for a, b in zip(coeffs.g, fl)) / scale
            )
    _report(
        6,
        worst <= 1e-9,
        f"g_1 = tr, g_n = det, minor sums match Faddeev-LeVerrier (max dev {worst:.2e})",
    )


def test_criterion_07_exact_norm():
    rng = np.random.default_rng(SEED + 6)
    sound = True
    samples_per_case = 250
    cases = [(3, 2, 1), (3, 3, 2), (4, 2, 1), (4, 3, 2), (4, 4, 2), (5, 3, 1), (5, 4, 3), (5, 5, 2)]
    assert sum(samples_per_case for _ in cases) == 2000
    for n, r, k in cases:
        A = random_complex(rng, n)
        exact = dk_gr_norm_exact(A, k, r).value
        for _ in range(samples_per_case):
            dirs = tuple(random_unitary(rng, n) for _ in range(k))
            sound &= abs(dk_gr_columns(A, dirs, k, r)) <= exact * (1 + 1e-12)
    # attainment heuristic for diagonal nonnegative A, k = 1
    attain_ok = True
    for n in (3, 4):
        D = np.diag(np.sort(rng.uniform(0.2, 2.0, n))[::-1]).astype(complex)
        for r in range(1, n + 1):
            report = dk_gr_norm_exact(D, 1, r)
            best = abs(dk_gr_columns(D, (report.witness,), 1, r))
            for _ in range(50):
                X = random_unitary(rng, n)
                best = max(best, abs(dk_gr_columns(D, (X,), 1, r)))
            attain_ok &= best >= 0.9 * report.value
    eye_value = dk_gr_norm_exact(np.eye(3, dtype=complex), 1, 2).value
    _report(
        7,
        sound and attain_ok and eye_value == 6.0,
        f"MC supremum below exact norm ({sound}), >= 0.9 attainment for diagonal A "
        f"({attain_ok}), dk_gr_norm_exact(I_3, 1, 2) = {eye_value}",
    )


def test_criterion_08_gr_perturbation_tightness():
    tight = True
    for n in range(2, 7):
        eye = np.eye(n, dtype=complex)
        for r in range(1, n + 1):
            for x in (0.1, 0.5, 1.0):
                bound = gr_perturb_bound(eye, x * eye, r).value
                actual = abs(g_r((1 + x) * eye, r) - g_r(eye, r))
                tight &= rel_dev([bound + 0j, actual + 0j]) <= 1e-12
    rng = np.random.default_rng(SEED + 7)
    dominated = True
    for _ in range(200):
        n = int(rng.integers(2, 6))
        A = random_complex(rng, n)
        X = random_complex(rng, n)
        r = int(rng.integers(1, n + 1))
        sharp = gr_perturb_bound(A, X, r).value
        weak = gr_perturb_bound_weak(A, X, r).value
        dominated &= weak >= sharp * (1 - 1e-12)
    _report(
        8,
        tight and dominated,
        f"sharp bound tight at A=I, X=xI ({tight}); weak bound dominates sharp ({dominated})",
    )


def test_criterion_09_numerical_differentiation():
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        A = random_complex(rng, n)
        A /= np.linalg.svd(A, compute_uv=False)[0]
        X = random_complex(rng, n)
        X /= np.linalg.svd(X, compute_uv=False)[0]
        from permderiv.derivatives import dper

        worst = max(worst, rel_dev([finite_diff("per", A, X, 1e-5), dper(A, X)]))
        r = int(rng.integers(1, n + 1))
        worst = max(
            worst,
            rel_dev([finite_diff("gr", A, X, 1e-5, r=r), dk_gr_columns(A, (X,), 1, r)]),
        )
    # order-2 convergence: halving h cuts the error by about 4
    # (needs n >= 3 so the cubic term of t -> per(A + tX) is present;
    # for n = 2 the map is quadratic and central differences are exact)
    order_ok = True
    for _ in range(5):
        n = int(rng.integers(3, 5))
        A = random_complex(rng, n)
        A /= np.linalg.svd(A, compute_uv=False)[0]
        X = random_complex(rng, n)
        X /= np.linalg.svd(X, compute_uv=False)[0]
        from permderiv.derivatives import dper

        exact = dper(A, X)
        e1 = abs(finite_diff("per", A, X, 1e-2) - exact)
        e2 = abs(finite_diff("per", A, X, 5e-3) - exact)
        order_ok &= 3.0 < e1 / e2 < 5.0
    _report(
        9,
        worst <= 1e-6 and order_ok,
        f"central differences at h=1e-5 match first derivatives "
        f"(max rel dev {worst:.2e}); error order about 2 ({order_ok})",
    )


def test_criterion_10_determinism():
    cmd = [sys.executable, "-m", "permderiv.cli", "verify", "--seed", "7"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    c = subprocess.run(cmd, capture_output=True, text=True)
    byte_identical = a.stdout == b.stdout and a.returncode == b.returncode == 0
    ra = json.loads(a.stdout)
    rc = json.loads(c.stdout)
    same_verdicts = [ch["passed"] for ch in ra["checks"]] == [
        ch["passed"] for ch in rc["checks"]
    ]
    _report(
        10,
        byte_identical and same_verdicts,
        f"verify --seed 7 byte-identical ({byte_identical}); "
        f"pass/fail identical on a third run ({same_verdicts})",
    )
