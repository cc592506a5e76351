"""Singular values, operator/trace norms, derivative norms, perturbation bounds.

Singular values come from LAPACK (`numpy.linalg.svd`), wrapped so that the
factors read A = U diag(s) V.  The g_r norm and bound take the singular
values of the C(n, r) principal restrictions from one batched SVD per chunk
of restrictions (`tensor.map_restrictions`), so memory stays bounded, and
run the elementary symmetric polynomials across the restrictions at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .scalars import require_square, to_complex, total_in_order
from .tensor import map_restrictions


@dataclass(frozen=True)
class SingularSpectrum:
    """Descending singular values with unitary factors: A = U diag(values) V."""

    values: np.ndarray
    left_factor: np.ndarray
    right_factor: np.ndarray

    def reconstruct(self) -> np.ndarray:
        m = self.left_factor.shape[0]
        n = self.right_factor.shape[1]
        S = np.zeros((m, n))
        r = min(m, n)
        S[:r, :r] = np.diag(self.values[:r])
        return self.left_factor @ S @ self.right_factor


@dataclass(frozen=True)
class BoundReport:
    """A norm or perturbation bound, optionally with an attaining witness."""

    value: float
    kind: str  # "upper" or "exact"
    witness: Optional[np.ndarray] = None


def svd(A) -> SingularSpectrum:
    """Complex SVD by LAPACK; A = U diag(s) V with U, V unitary."""
    A = to_complex(A)
    if A.ndim != 2:
        raise ValueError("svd expects a matrix")
    U, s, V = np.linalg.svd(A)
    return SingularSpectrum(s, U, V)


def singular_values(A) -> np.ndarray:
    return svd(A).values


def operator_norm(A) -> float:
    """Largest singular value; 0.0 for an empty matrix."""
    return float(singular_values(A).max(initial=0.0))


def trace_norm(A) -> float:
    """Sum of singular values (dual of the operator norm)."""
    return float(singular_values(A).sum())


def trace_norm_witness(A) -> np.ndarray:
    """A unit-operator-norm X with |tr(A X^H)| = trace norm: X = U V."""
    spec = svd(A)
    return spec.left_factor[:, : spec.right_factor.shape[0]] @ spec.right_factor


def elementary_symmetric(k: int, values):
    """k-th elementary symmetric polynomial via the Newton triangle recurrence.

    Taken over the last axis of `values`: a float for a sequence of r values,
    an array of shape (...) for an array of shape (..., r).
    """
    values = np.asarray(values)
    r = values.shape[-1]
    if not 0 <= k <= r:
        raise ValueError(f"need 0 <= k <= {r}")
    e = [np.ones(values.shape[:-1])] + [np.zeros(values.shape[:-1])] * k
    for i in range(r):
        x = values[..., i]
        for j in range(k, 0, -1):
            e[j] = e[j] + x * e[j - 1]
    return e[k][()]


def dkper_norm_bound(A, k: int) -> BoundReport:
    """Upper bound k! C(n,k) ||A||^{n-k} for the norm of D^k per at A."""
    A = require_square(A)
    n = A.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}")
    norm = operator_norm(A)
    value = math.factorial(k) * math.comb(n, k) * norm ** (n - k)
    witness = None
    Ac = to_complex(A)
    if k == 1 and np.allclose(Ac, np.eye(n)):
        witness = np.eye(n, dtype=complex)  # dper(I, I) = n = bound
    return BoundReport(value, "upper", witness)


def per_perturb_bound(A, X) -> BoundReport:
    """Taylor bound: |per(A+X) - per A| <= sum_k C(n,k) ||A||^{n-k} ||X||^k."""
    A, X = _operands(A, X)
    n = A.shape[0]
    na = operator_norm(A)
    nx = operator_norm(X)
    value = sum(math.comb(n, k) * na ** (n - k) * nx**k for k in range(1, n + 1))
    return BoundReport(value, "upper")


def dk_gr_norm_exact(A, k: int, r: int) -> BoundReport:
    """Exact norm of D^k g_r: k! sum_I p_{r-k}(singular values of A_I)."""
    A = require_square(A)
    n = A.shape[0]
    if not 1 <= k <= r <= n:
        raise ValueError(f"need 1 <= k <= r <= {n}")
    total = total_in_order(elementary_symmetric(r - k, _restriction_singular_values(A, r)))
    value = math.factorial(k) * total
    witness = None
    Ac = to_complex(A)
    if k == 1 and np.allclose(Ac, np.diag(np.diag(Ac))) and np.all(
        np.real(np.diag(Ac)) >= 0
    ) and np.allclose(np.imag(np.diag(Ac)), 0):
        # for nonnegative diagonal A the supremum is attained at X = I
        witness = np.eye(n, dtype=complex)
    return BoundReport(value, "exact", witness)


def gr_perturb_bound(A, X, r: int) -> BoundReport:
    """Sharp Taylor bound for g_r built from singular values of restrictions."""
    A, X = _operands(A, X)
    n = A.shape[0]
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= {n}")
    nx = operator_norm(X)
    s = _restriction_singular_values(A, r)
    # (restriction, k) terms, added restriction by restriction
    terms = np.stack([elementary_symmetric(r - k, s) * nx**k for k in range(1, r + 1)], axis=-1)
    return BoundReport(total_in_order(terms), "upper")


def gr_perturb_bound_weak(A, X, r: int) -> BoundReport:
    """Weaker norm-only bound: sum_k C(n,r) C(r,k) ||A||^{r-k} ||X||^k.

    Dominates the sharp bound termwise, since each elementary symmetric
    polynomial p_{r-k} of the r singular values of a restriction is at most
    C(r,k) times the largest one raised to the r-k.
    """
    A, X = _operands(A, X)
    n = A.shape[0]
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= {n}")
    na = operator_norm(A)
    nx = operator_norm(X)
    value = sum(
        math.comb(n, r) * math.comb(r, k) * na ** (r - k) * nx**k
        for k in range(1, r + 1)
    )
    return BoundReport(value, "upper")


def _operands(A, X):
    """(A, X) as arrays, after checking that A is square and X of A's shape."""
    A, X = require_square(A), np.asarray(X)
    if X.shape != A.shape:
        raise ValueError("A and X must have the same shape")
    return A, X


def _restriction_singular_values(A, r: int) -> np.ndarray:
    """(C(n, r), r): the singular values of every r x r principal restriction of A.

    A full SVD of each chunk of restrictions, as `svd` computes it for each matrix alone.
    """
    return map_restrictions(to_complex(A), r, lambda AI: np.linalg.svd(AI)[1])
