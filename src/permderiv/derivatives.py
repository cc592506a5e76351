"""The three closed forms for higher-order derivatives of the permanent.

All three take an ordered direction tuple (X^1, ..., X^k); the value is
symmetric in the directions and linear in each slot.  k > n gives 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multiindex import index_plan
from .permanent import padj, per, per_batch, replacement_stack, replacement_values
from .scalars import ExactComplex, is_exact, require_square, total, zero_like
from .tensor import (
    block_trace,
    map_blocks,
    mixed_sym_projected,
    sigma_blocks,
    tilde_sym_block,
)

FORMULAS = ("columns", "minors", "tensor")

@dataclass(frozen=True)
class DerivativeRequest:
    """A matrix, an ordered direction tuple, and a formula selector."""

    A: np.ndarray
    directions: tuple
    formula: str = "columns"

    def __post_init__(self):
        A = require_square(self.A)
        for X in self.directions:
            if np.asarray(X).shape != A.shape:
                raise ValueError("directions must match the order of A")
        if self.formula not in FORMULAS + ("all",):
            raise ValueError(f"unknown formula {self.formula!r}")

    @property
    def order(self) -> int:
        return len(self.directions)


def dper(A, X):
    """First derivative of per at A in direction X: tr(padj(A)^T X)."""
    A = np.asarray(A)
    X = np.asarray(X)
    if X.shape != A.shape:
        raise ValueError("direction must match the order of A")
    P = padj(A)
    value = _sum(P[i, j] * X[i, j] for i in range(A.shape[0]) for j in range(A.shape[1]))
    if __debug__:
        by_columns = _sum(per(M) for M in replacement_stack(A, X[None]))
        comps = index_plan(1, A.shape[0]).complements
        by_minors = _sum(
            X[i, j] * per(A[rows[:, None], cols])
            for i, rows in enumerate(comps)
            for j, cols in enumerate(comps)
        )
        # the rounding bound of the sum, which |value| is not when its terms cancel
        scale = 0.0 if is_exact(P) else float(np.abs(P * X).sum())
        assert _close(value, by_columns, scale) and _close(value, by_minors, scale), (
            "first-order forms disagree"
        )
    return value


def dkper_columns(req: DerivativeRequest):
    """Column-replacement form: sum over sigma and J of per A(J; X^sigma).

    The k! C(n,k) permanents are evaluated in slices and summed at once, as for one stack.
    """
    A = np.asarray(req.A)
    n = A.shape[0]
    k = req.order
    if k == 0:
        return per(A)
    if k > n:
        return zero_like(A)
    return total(replacement_values(A, np.stack(req.directions), per_batch))


def dkper_minors(req: DerivativeRequest):
    """Minor-expansion form: sum of per A(I|J) * per Y^sigma_[J] [I|J]."""
    A = np.asarray(req.A)
    n = A.shape[0]
    k = req.order
    if k == 0:
        return per(A)
    if k > n:
        return zero_like(A)
    plan = index_plan(k, n)
    comps = plan.complements
    per_comp = map_blocks(A, comps, comps, per_batch)  # (C, C) indexed (I, J)
    Xs = np.stack(req.directions)
    return total(
        sum(per_comp * per_batch(sigma_blocks(Xs, plan.combos, sigma)) for sigma in plan.perms)
    )


def dkper_tensor(req: DerivativeRequest):
    """Tensor-trace form: k! tr(tilde-block * mixed symmetric block)."""
    A = np.asarray(req.A)
    n = A.shape[0]
    k = req.order
    if k == 0:
        return per(A)
    if k > n:
        return zero_like(A)
    tilde = tilde_sym_block(A, k)
    mixed = mixed_sym_projected(req.directions)
    return math.factorial(k) * block_trace(tilde, mixed)


def dkper(A, directions, formula: str = "columns"):
    """Dispatch on the formula selector; "all" returns a dict of all three."""
    req = DerivativeRequest(np.asarray(A), tuple(directions), formula)
    if formula == "columns":
        return dkper_columns(req)
    if formula == "minors":
        return dkper_minors(req)
    if formula == "tensor":
        return dkper_tensor(req)
    return {
        "columns": dkper_columns(req),
        "minors": dkper_minors(req),
        "tensor": dkper_tensor(req),
    }


def _sum(terms):
    total = None
    for t in terms:
        total = t if total is None else total + t
    return total


def _close(a, b, scale, tol=1e-12):
    if isinstance(a, ExactComplex) or isinstance(b, ExactComplex):
        return a == b
    return abs(a - b) <= tol * max(scale, 1.0)
