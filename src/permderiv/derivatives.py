"""The three closed forms for higher-order derivatives of the permanent.

Each form takes (A, directions), the directions being the ordered tuple
(X^1, ..., X^k); the value is symmetric in the directions and linear in each
slot.  k = 0 gives per A and k > n gives 0.  `scalars.require_directions`
checks the shapes and fixes one mode for the call: exact when any operand is
an object array, with integer operands made exact and a floating one refused.

Each form has one body, term(A, Xs, mod), written with the residue helpers
of `scalars` and evaluators that take a modulus.  A floating form runs it on
complex128 operands; an exact form runs it once on the int64 images of all
its operands mod the primes that the bound on its value needs, and lifts
that one value by the Chinese remainder theorem (`permanent.modular_values`).
"""

from __future__ import annotations

import cmath
import math
from functools import reduce
from operator import add, mul

import numpy as np

from .multiindex import index_plan
from .permanent import (
    map_blocks,
    modular_values,
    padj,
    per,
    per_batch,
    per_each,
    replacement_stack,
    replacement_values,
)
from .scalars import is_exact, product, require_directions, residues, total, zero_like
from .tensor import block_trace, mixed_sym_projected, tilde_sym_block

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
    value = reduce(add, map(mul, P.ravel(), X.ravel()))
    if __debug__:
        by_columns = reduce(add, per_each(replacement_stack(A, X[None])))
        # sum_ij X_ij per A^T(j|i): the same minors, but by Glynn's formula
        # with signs on their rows rather than their columns, so that they round apart
        comps = index_plan(1, A.shape[0]).complements
        minors = map_blocks(A.T, comps[:, None], comps[None, :], per_each)
        by_minors = reduce(add, map(mul, X.T.ravel(), minors.ravel()))
        # an overflow, in the value or a route, leaves nothing to compare; the
        # caller sees a non-finite value (the CLI reports it as an input error)
        assert _agree(value, (by_columns, by_minors), A, X, P), "first-order forms disagree"
    return value


def dkper_columns(A, directions):
    """Column-replacement form: sum over sigma and J of per A(J; X^sigma).

    The k! C(n,k) permanents are evaluated in slices and summed at once, as for one stack.
    """
    return _form(A, directions, lambda A, Xs, mod: total(replacement_values(A, Xs, per_batch, mod), mod))


def dkper_minors(A, directions):
    """Minor-expansion form: sum of per A(I|J) * per Y^sigma_[J] [I|J]."""

    def term(A, Xs, mod):
        plan = index_plan(Xs.shape[-3], A.shape[-1])
        comps, combos = plan.complements, plan.combos
        per_comp = map_blocks(A, comps[:, None], comps[None, :], per_batch, mod=mod)  # (C, C) indexed (I, J)
        return total(sum(
            product(per_comp, map_blocks(Xs, combos[:, None], combos[None, :], per_batch, sigma, mod), mod)
            for sigma in plan.perms
        ), mod)

    return _form(A, directions, term)


def dkper_tensor(A, directions):
    """Tensor-trace form: k! tr(tilde-block * mixed symmetric block)."""

    def term(A, Xs, mod):
        k = Xs.shape[-3]
        trace = block_trace(tilde_sym_block(A, k, mod), mixed_sym_projected(Xs, mod), mod)
        return residues(math.factorial(k) * trace, mod)

    return _form(A, directions, term)


def dkper(A, directions, formula: str = "columns"):
    """D^k per(A)(X^1, ..., X^k) by the selected form; "all" returns a dict of all three."""
    # the table is built per call, so a rebound module-level form is the one called
    forms = {"columns": dkper_columns, "minors": dkper_minors, "tensor": dkper_tensor}
    return dispatch(forms, formula, A, directions)


def _form(A, directions, term):
    """term(A, Xs, mod) for k = len(directions) in 1..n, with Xs the (k, n, n)
    stack of the directions; per A for k = 0 and 0 for k > n.

    An exact form runs term once on the images A (2P, n, n) and Xs
    (2P, k, n, n), mod the prime of each, and lifts one value of degree n
    (`permanent.modular_values`).
    """
    A, directions = require_directions(A, directions)
    k, n = len(directions), A.shape[0]
    if k == 0:
        return per(A)
    if k > n:
        return zero_like(A)
    if is_exact(A):
        M = np.stack((A, *directions))[None]
        return modular_values(M, n, lambda M, mod: term(M[:, 0], M[:, 1:], mod))[0]
    return term(A, np.stack(directions), None)


def _agree(value, routes, A, X, P) -> bool:
    """Whether dper's routes equal its value, or lie within its rounding when floating.

    Glynn's formula on an m x m matrix B rounds by at most about
    (m^2 + 2^(m-1)) eps prod_i sum_l |b_il| (2^(m-1) products of m signed
    row sums, scaled by 2^(1-m)), which |per B| does not bound when its
    terms cancel.  The slack allows m^2 2^m eps prod_i sum_l |b_il|, which
    covers it.  Weighted
    by |X| and summed, the minors of A round within it for the A(j; X),
    column j of A replaced by that of X, and the minors of A^T within it
    for the A^T(i; X^T), so both follow from the row and column sums of |A|
    and |X|; 1e-12 max(sum |P X|, 1), P = padj A, bounds the rounding of the
    trace.
    """
    if is_exact(P):
        return all(route == value for route in routes)
    n, a, x = A.shape[0], np.abs(A), np.abs(X)
    with np.errstate(over="ignore"):  # an infinite bound leaves nothing to compare
        by_rows = (a.sum(axis=1)[:, None] - a + x).prod(axis=0).sum()
        by_columns = (a.sum(axis=0) - a + x).prod(axis=1).sum()
        rounding = n * n * 2.0**n * np.finfo(float).eps * (by_rows + by_columns)
        slack = rounding + 1e-12 * max(np.abs(P * X).sum(), 1.0)
    if not (cmath.isfinite(value) and math.isfinite(slack)):
        return True
    return all(not cmath.isfinite(route) or abs(value - route) <= slack for route in routes)
