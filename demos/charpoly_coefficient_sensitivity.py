"""Sensitivity of characteristic-polynomial coefficients to matrix perturbations.

The r-th coefficient g_r(A) is the sum of all r x r principal minors of A.
This script computes every g_r at once by Berkowitz's recurrence, checks
them against Faddeev-LeVerrier and the principal-minor sums, and computes
the directional derivatives of g_r, the exact operator norm of the k-th
derivative (from singular values of principal submatrices), and the
resulting sharp perturbation bound |g_r(A + X) - g_r(A)|.
"""

import numpy as np

from permderiv import (
    charpoly_all,
    dk_gr,
    dk_gr_norm_exact,
    g_r,
    gr_perturb_bound,
    faddeev_leverrier,
)

rng = np.random.default_rng(23)

n = 5
A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

coeffs = charpoly_all(A)
print("g_r(A) by Berkowitz          :", [f"{v:.4f}" for v in coeffs.g])
print("g_r(A) by Faddeev-LeVerrier  :", [f"{v:.4f}" for v in faddeev_leverrier(A)])
print("g_r(A) from principal minors :", [f"{g_r(A, r):.4f}" for r in range(1, n + 1)])
print(f"g_1 = tr A = {np.trace(A):.4f},  g_{n} = det A = {np.linalg.det(A):.4f}")

# Directional derivative of g_3 along a random direction.
X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
r = 3
print(f"\nD g_{r}(A)(X) = {dk_gr(A, (X,), 1, r):.6f}")

# The exact norm of the derivative, and the perturbation bound it implies.
report = dk_gr_norm_exact(A, 1, r)
print(f"||D g_{r}(A)|| (exact) = {report.value:.6f}")

scale = 1e-2
bound = gr_perturb_bound(A, scale * X, r)
actual = abs(g_r(A + scale * X, r) - g_r(A, r))
print(f"\n|g_{r}(A + X) - g_{r}(A)| = {actual:.6e}")
print(f"sharp perturbation bound = {bound.value:.6e}")
