"""The three closed forms for higher-order derivatives of the permanent.

Each form takes (A, directions), the directions being the ordered tuple
(X^1, ..., X^k); the value is symmetric in the directions and linear in each
slot.  k = 0 gives per A and k > n gives 0.  `scalars.require_directions`
checks the shapes and fixes one mode for the call: exact when any operand is
an object array, with integer operands made exact and a floating one refused.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, mul

import numpy as np

from .multiindex import index_plan
from .permanent import map_submatrices, padj, per, per_batch, replacement_stack, replacement_values
from .scalars import ExactComplex, is_exact, require_directions, total, zero_like
from .tensor import (
    block_trace,
    map_blocks,
    mixed_sym_projected,
    sigma_blocks,
    tilde_sym_block,
)

FORMULAS = ("columns", "minors", "tensor")


def dispatch(forms: dict, formula: str, *args):
    """forms[formula](*args); "all" returns a dict of every form's value, in table order."""
    if formula == "all":
        return {name: form(*args) for name, form in forms.items()}
    if formula not in forms:
        raise ValueError(f"unknown formula {formula!r}")
    return forms[formula](*args)


def dper(A, X):
    """First derivative of per at A in direction X: tr(padj(A)^T X)."""
    A, (X,) = require_directions(A, (X,))
    P = padj(A)
    value = reduce(add, (P[i, j] * X[i, j] for i in range(A.shape[0]) for j in range(A.shape[1])))
    if __debug__:
        by_columns = reduce(add, (per(M) for M in replacement_stack(A, X[None])))
        comps = index_plan(1, A.shape[0]).complements
        minors = map_submatrices(A, comps[:, None], comps[None, :], per)
        by_minors = reduce(add, map(mul, X.ravel(), minors.ravel()))
        # the rounding bound of the sum, which |value| is not when its terms cancel
        scale = 0.0 if is_exact(P) else float(np.abs(P * X).sum())
        assert _close(value, by_columns, scale) and _close(value, by_minors, scale), (
            "first-order forms disagree"
        )
    return value


def dkper_columns(A, directions):
    """Column-replacement form: sum over sigma and J of per A(J; X^sigma).

    The k! C(n,k) permanents are evaluated in slices and summed at once, as for one stack.
    """
    return _form(A, directions, lambda A, Xs: total(replacement_values(A, Xs, per_batch)))


def dkper_minors(A, directions):
    """Minor-expansion form: sum of per A(I|J) * per Y^sigma_[J] [I|J]."""

    def term(A, Xs):
        plan = index_plan(len(Xs), A.shape[0])
        comps = plan.complements
        per_comp = map_blocks(A, comps, comps, per_batch)  # (C, C) indexed (I, J)
        return total(
            sum(per_comp * per_batch(sigma_blocks(Xs, plan.combos, sigma)) for sigma in plan.perms)
        )

    return _form(A, directions, term)


def dkper_tensor(A, directions):
    """Tensor-trace form: k! tr(tilde-block * mixed symmetric block)."""

    def term(A, Xs):
        k = len(Xs)
        return math.factorial(k) * block_trace(tilde_sym_block(A, k), mixed_sym_projected(Xs))

    return _form(A, directions, term)


def dkper(A, directions, formula: str = "columns"):
    """D^k per(A)(X^1, ..., X^k) by the selected form; "all" returns a dict of all three."""
    # the table is built per call, so a rebound module-level form is the one called
    forms = {"columns": dkper_columns, "minors": dkper_minors, "tensor": dkper_tensor}
    return dispatch(forms, formula, A, directions)


def _form(A, directions, term):
    """term(A, Xs) for k = len(directions) in 1..n, with Xs the (k, n, n) stack
    of the directions; per A for k = 0 and 0 for k > n."""
    A, directions = require_directions(A, directions)
    k, n = len(directions), A.shape[0]
    if k == 0:
        return per(A)
    if k > n:
        return zero_like(A)
    return term(A, np.stack(directions))


def _close(a, b, scale, tol=1e-12):
    if isinstance(a, ExactComplex) or isinstance(b, ExactComplex):
        return a == b
    return abs(a - b) <= tol * max(scale, 1.0)
