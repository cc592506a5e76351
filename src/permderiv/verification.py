"""Seeded invariant suite shared by the CLI `verify` verb and the tests.

Every check draws its instances from one rng seeded by the caller, so a
given (n, kmax, seed, tolerance) always produces the same report.
"""

from __future__ import annotations

import math

import numpy as np

from .charpoly import charpoly_all, dk_gr_columns, dk_gr_minors, dk_gr_tensor, g_r
from .derivatives import dkper_columns, dkper_minors, dkper_tensor, dper
from .multiindex import enumerate_strict
from .norms import dkper_norm_bound, dk_gr_norm_exact, operator_norm, svd
from .oracle import faddeev_leverrier
from .permanent import laplace_per, per, per_naive

TRIALS = 10  # random instances per check; the slower checks draw half as many


def random_complex(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_unitary(rng, n: int) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Gaussian, phases normalized."""
    Q, R = np.linalg.qr(random_complex(rng, n))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def rel_dev(values) -> float:
    """Largest pairwise difference over max(largest magnitude, 1)."""
    values = list(values)
    scale = max(max(abs(v) for v in values), 1.0)
    worst = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            worst = max(worst, abs(values[i] - values[j]) / scale)
    return worst


def run_verify(n: int = 4, kmax: int = 3, seed: int = 7, tolerance: float = 1e-10) -> dict:
    """Run the invariant suite and return a JSON-serializable report."""
    rng = np.random.default_rng(seed)
    checks = []

    def record(name: str, deviation: float, tol: float):
        checks.append(
            {
                "name": name,
                "passed": bool(deviation <= tol),
                "max_deviation": float(deviation),
                "tolerance": float(tol),
            }
        )

    # permanent vs the naive permutation sum
    dev = 0.0
    for _ in range(TRIALS):
        A = random_complex(rng, n)
        dev = max(dev, rel_dev([per(A), per_naive(A)]))
    record("per_vs_naive", dev, 1e-12)

    # Laplace expansion reproduces the permanent for every strict row set
    dev = 0.0
    A = random_complex(rng, n)
    target = per(A)
    for k in range(1, n + 1):
        for I in enumerate_strict(k, n):
            dev = max(dev, rel_dev([laplace_per(A, I), target]))
    record("laplace_expansion", dev, 1e-12)

    # first derivative: adjoint-trace form vs its two expansions is asserted
    # inside dper; here check linearity in the direction
    dev = 0.0
    for _ in range(TRIALS):
        A = random_complex(rng, n)
        X = random_complex(rng, n)
        Y = random_complex(rng, n)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        lhs = dper(A, X + alpha * Y)
        rhs = dper(A, X) + alpha * dper(A, Y)
        dev = max(dev, rel_dev([lhs, rhs]))
    record("dper_linearity", dev, 1e-12)

    # three-way agreement of the D^k per formulas
    dev = 0.0
    for _ in range(TRIALS):
        A = random_complex(rng, n)
        for k in range(1, min(kmax, n) + 1):
            dirs = tuple(random_complex(rng, n) for _ in range(k))
            dev = max(
                dev,
                rel_dev([dkper_columns(A, dirs), dkper_minors(A, dirs), dkper_tensor(A, dirs)]),
            )
    record("dkper_three_formulas", dev, tolerance)

    # degenerate identities: k = n collapses to n! per X, k > n vanishes
    dev = 0.0
    for _ in range(TRIALS):
        A = random_complex(rng, n)
        X = random_complex(rng, n)
        dev = max(dev, rel_dev([dkper_columns(A, (X,) * n), math.factorial(n) * per(X)]))
        dev = max(dev, abs(dkper_columns(A, (X,) * (n + 1))))
    record("dkper_degenerate", dev, tolerance)

    # three-way agreement of the D^k g_r formulas
    dev = 0.0
    for _ in range(TRIALS // 2):
        A = random_complex(rng, n)
        for r in range(1, n + 1):
            for k in range(1, min(kmax, r) + 1):
                dirs = tuple(random_complex(rng, n) for _ in range(k))
                dev = max(
                    dev,
                    rel_dev(
                        [
                            dk_gr_columns(A, dirs, k, r),
                            dk_gr_minors(A, dirs, k, r),
                            dk_gr_tensor(A, dirs, k, r),
                        ]
                    ),
                )
    record("dkgr_three_formulas", dev, tolerance)

    # characteristic polynomial: principal minors vs Faddeev-LeVerrier
    dev = 0.0
    for _ in range(TRIALS):
        A = random_complex(rng, n)
        dev = max(dev, _rel_dev_seq(charpoly_all(A).g, faddeev_leverrier(A)))
    record("charpoly_vs_faddeev_leverrier", dev, 1e-9)

    # SVD reconstruction and the operator/trace norm sandwich
    dev = 0.0
    sandwich_ok = True
    for _ in range(TRIALS):
        A = random_complex(rng, n)
        spec = svd(A)
        fro = np.linalg.norm(A)
        dev = max(dev, float(np.linalg.norm(spec.reconstruct() - A)) / fro)
        s = spec.values
        sandwich_ok &= s[0] <= s.sum() + 1e-12 and s.sum() <= n * s[0] + 1e-12
    record("svd_reconstruction", dev, 1e-10)
    record("norm_sandwich", 0.0 if sandwich_ok else 1.0, 0.5)

    # sampled soundness of the D^k per norm bound
    dev = 0.0
    for _ in range(TRIALS):
        A = random_complex(rng, n)
        for k in range(1, min(kmax, n) + 1):
            bound = dkper_norm_bound(A, k).value
            dirs = tuple(random_unitary(rng, n) for _ in range(k))
            val = abs(dkper_columns(A, dirs))
            dev = max(dev, (val - bound) / max(bound, 1.0))
    record("dkper_norm_bound_soundness", dev, 1e-12)

    # sampled soundness of the exact D^k g_r norm
    dev = 0.0
    for _ in range(TRIALS // 2):
        A = random_complex(rng, n)
        for r in range(1, n + 1):
            for k in range(1, min(kmax, r) + 1):
                exact = dk_gr_norm_exact(A, k, r).value
                dirs = tuple(random_unitary(rng, n) for _ in range(k))
                val = abs(dk_gr_columns(A, dirs, k, r))
                dev = max(dev, (val - exact) / max(exact, 1.0))
    record("dkgr_norm_exact_soundness", dev, 1e-12)

    # first coefficient sanity
    A = random_complex(rng, n)
    coeffs = charpoly_all(A)
    dev = rel_dev([coeffs[1], complex(np.trace(A))])
    dev = max(dev, rel_dev([coeffs[n], complex(np.linalg.det(A))]))
    record("gr_trace_det", dev, 1e-10)

    return {
        "command": "verify",
        "n": n,
        "kmax": kmax,
        "seed": seed,
        "tolerance": tolerance,
        "passed": all(c["passed"] for c in checks),
        "max_deviation": max(c["max_deviation"] for c in checks),
        "checks": checks,
    }


def _rel_dev_seq(a, b) -> float:
    a = list(a)
    b = list(b)
    scale = max(max(abs(v) for v in a + b), 1.0)
    return max(abs(x - y) for x, y in zip(a, b)) / scale
