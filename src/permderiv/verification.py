"""Seeded invariant suite shared by the CLI `verify` verb and the tests.

Every check draws its instances from one rng seeded by the caller, so a
given (n, kmax, seed, tolerance) always produces the same report.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .charpoly import charpoly_all, dk_gr_columns, dk_gr_minors, dk_gr_tensor, g_r
from .derivatives import dkper_columns, dkper_minors, dkper_tensor, dper
from .multiindex import enumerate_strict
from .norms import dkper_norm_bound, dk_gr_norm_exact, svd
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
    """Largest pairwise difference over max(largest magnitude, 1); NaN when a difference is NaN."""
    values = list(values)
    scale = max(max(abs(v) for v in values), 1.0)
    return _worst(0.0, *(abs(a - b) / scale for a, b in itertools.combinations(values, 2)))


def _worst(*deviations) -> float:
    """The largest deviation, or NaN when one is NaN, so that the check fails
    (max() keeps whichever comes first of NaN and a number)."""
    return math.nan if any(map(math.isnan, deviations)) else max(deviations)


def run_verify(n: int = 4, kmax: int = 3, seed: int = 7, tolerance: float = 1e-10) -> dict:
    """Run the invariant suite and return a JSON-serializable report."""
    rng = np.random.default_rng(seed)
    checks = []

    def record(name: str, deviation: float, tol: float):
        passed, deviation, tol = bool(deviation <= tol), float(deviation), float(tol)
        if not math.isfinite(deviation):  # JSON has no NaN or infinity; passed is false
            deviation = None
        checks.append({"name": name, "passed": passed, "max_deviation": deviation, "tolerance": tol})

    # permanent vs the naive permutation sum
    dev = 0.0
    for _ in range(TRIALS):
        A = random_complex(rng, n)
        dev = _worst(dev, rel_dev([per(A), per_naive(A)]))
    record("per_vs_naive", dev, 1e-12)

    # Laplace expansion reproduces the permanent for every strict row set
    dev = 0.0
    A = random_complex(rng, n)
    target = per(A)
    for k in range(1, n + 1):
        for I in enumerate_strict(k, n):
            dev = _worst(dev, rel_dev([laplace_per(A, I), target]))
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
        dev = _worst(dev, rel_dev([lhs, rhs]))
    record("dper_linearity", dev, 1e-12)

    # three-way agreement of the D^k per formulas
    dev = 0.0
    for _ in range(TRIALS):
        A = random_complex(rng, n)
        for k in range(1, min(kmax, n) + 1):
            dirs = tuple(random_complex(rng, n) for _ in range(k))
            forms = (dkper_columns, dkper_minors, dkper_tensor)
            dev = _worst(dev, rel_dev([form(A, dirs) for form in forms]))
    record("dkper_three_formulas", dev, tolerance)

    # degenerate identities: k = n collapses to n! per X, k > n vanishes
    dev = 0.0
    for _ in range(TRIALS):
        A = random_complex(rng, n)
        X = random_complex(rng, n)
        dev = _worst(dev, rel_dev([dkper_columns(A, (X,) * n), math.factorial(n) * per(X)]))
        dev = _worst(dev, abs(dkper_columns(A, (X,) * (n + 1))))
    record("dkper_degenerate", dev, tolerance)

    # three-way agreement of the D^k g_r formulas
    dev = 0.0
    for _ in range(TRIALS // 2):
        A = random_complex(rng, n)
        for r in range(1, n + 1):
            for k in range(1, min(kmax, r) + 1):
                dirs = tuple(random_complex(rng, n) for _ in range(k))
                forms = (dk_gr_columns, dk_gr_minors, dk_gr_tensor)
                dev = _worst(dev, rel_dev([form(A, dirs, k, r) for form in forms]))
    record("dkgr_three_formulas", dev, tolerance)

    # characteristic polynomial: Berkowitz vs Faddeev-LeVerrier and vs the
    # principal-minor sums, on the same matrices
    dev = minors_dev = 0.0
    for _ in range(TRIALS):
        A = random_complex(rng, n)
        g = charpoly_all(A).g
        dev = _worst(dev, _rel_dev_seq(g, faddeev_leverrier(A)))
        minors_dev = _worst(minors_dev, _rel_dev_seq(g, [g_r(A, r) for r in range(1, n + 1)]))
    record("charpoly_vs_faddeev_leverrier", dev, 1e-9)
    record("charpoly_vs_principal_minors", minors_dev, 1e-9)

    # SVD reconstruction and the operator/trace norm sandwich
    dev = 0.0
    sandwich_ok = True
    for _ in range(TRIALS):
        A = random_complex(rng, n)
        spec = svd(A)
        fro = np.linalg.norm(A)
        dev = _worst(dev, float(np.linalg.norm(spec.reconstruct() - A)) / fro)
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
            dev = _worst(dev, (val - bound) / max(bound, 1.0))
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
                dev = _worst(dev, (val - exact) / max(exact, 1.0))
    record("dkgr_norm_exact_soundness", dev, 1e-12)

    # first coefficient sanity
    A = random_complex(rng, n)
    coeffs = charpoly_all(A)
    dev = rel_dev([coeffs[1], complex(np.trace(A))])
    dev = _worst(dev, rel_dev([coeffs[n], complex(np.linalg.det(A))]))
    record("gr_trace_det", dev, 1e-10)

    return {
        "command": "verify",
        "n": n,
        "kmax": kmax,
        "seed": seed,
        "tolerance": tolerance,
        "passed": all(c["passed"] for c in checks),
        "max_deviation": _worst_recorded(c["max_deviation"] for c in checks),
        "checks": checks,
    }


def _worst_recorded(deviations):
    """The largest recorded deviation, or None when one is not finite."""
    deviations = list(deviations)
    return None if None in deviations else max(deviations)


def _rel_dev_seq(a, b) -> float:
    a, b = list(a), list(b)
    scale = max(max(abs(v) for v in a + b), 1.0)
    return _worst(*(abs(x - y) for x, y in zip(a, b))) / scale
