"""Formula-independent ground truth for the derivative layer.

`mixed_partial_interp` extracts the coefficient of t_1...t_k from
phi(A + t_1 X^1 + ... + t_k X^k) by exact Lagrange interpolation on the
integer grid {0..d}^k, which equals the k-th mixed partial at 0.  It shares
the permanent/determinant evaluators with the library but none of the
closed-form derivative formulas.  The node matrices A + sum_p t_p X^p are
built as stacks and each stack is evaluated by one call: `per_batch` for
"per" and `charpoly.g_r` for "gr".  Exact values take int weights, the
Lagrange weights times the lcm L of their denominators.  An exact "per"
builds no node as ExactComplex: it is one lift (`permanent.modular_values`)
of the item (A, X^1..X^k), whose residue kernel forms the node residues mod
each prime, weights their permanents and multiplies the sum by (L^k)^-1
mod p.  Exact "gr" values are added as ExactComplex and the sum divided
once by L^k; floats keep the Fraction weights.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product

import numpy as np

from .charpoly import g_r
from .permanent import budget_length, modular_values, per, per_batch
from .scalars import (
    divided,
    exact_from_parts,
    is_exact,
    rational_parts,
    require_directions,
    to_complex,
    zero_like,
)

MAX_ORDER = 8
MAX_N = 6


@lru_cache(maxsize=None)
def _linear_coeff_weights(d: int) -> tuple[Fraction, ...]:
    """Weights w_j with sum_j w_j f(j) = coefficient of t in the degree-d
    interpolant of f on nodes 0..d: w_0 = -H_d and w_j = (-1)^(j+1) C(d, j) / j."""
    harmonic = sum((Fraction(1, i) for i in range(1, d + 1)), Fraction(0))
    return (-harmonic, *(Fraction((-1) ** (j + 1) * math.comb(d, j), j) for j in range(1, d + 1)))


@lru_cache(maxsize=None)
def _int_weights(d: int) -> tuple[tuple[int, ...], int]:
    """The weights of `_linear_coeff_weights(d)` times L, the lcm of their denominators, and L."""
    weights = _linear_coeff_weights(d)
    scale = math.lcm(*(w.denominator for w in weights))
    return tuple(int(w * scale) for w in weights), scale


def _functional(phi, r):
    if callable(phi):
        return phi
    if phi == "per":
        return per
    if phi == "gr":
        if r is None:
            raise ValueError("g_r selector requires r")
        return lambda M: g_r(M, r)
    raise ValueError(f"unknown functional selector {phi!r}")


def mixed_partial_interp(phi, A, directions, *, r: int | None = None):
    """Mixed partial of phi(A + sum t_i X^i) in t_1..t_k at 0, by interpolation.

    phi is "per", "gr" (with r), or any callable polynomial functional of
    degree <= n; the interpolation degree is r for "gr" and n otherwise.  The
    node matrices are built as stacks of `budget_length(n * n)` nodes; "per"
    evaluates each stack by one `per_batch` call and "gr" by one `g_r` call,
    and a callable is called once per node.  The weighted values are added
    in grid order; exact values with int weights, divided once at the end.
    An exact "per" of order n >= 1 builds its stacks as residues inside one
    lift of degree n (`_interpolated_residues`) and makes one ExactComplex.
    """
    A, directions = require_directions(A, directions)
    n = A.shape[0]
    k = len(directions)
    if k > MAX_ORDER:
        raise ValueError(f"interpolation oracle limited to order {MAX_ORDER}")
    if n > MAX_N:
        raise ValueError(f"interpolation oracle limited to n <= {MAX_N}")
    func = _functional(phi, r)
    if phi == "per" and n and is_exact(A):  # (an item without entries lifts to 1)
        # the coefficient of t_1...t_k is a sum of products of n entries from
        # distinct rows of the operands, so e_n of their row sums bounds it
        # as it bounds the closed forms of D^k per
        item = np.stack((A, *directions))[None]
        return modular_values(item, n, _interpolated_residues)[0]
    evaluate = per_batch if phi == "per" else func
    degree = r if phi == "gr" else n
    if is_exact(A):  # int weights, so no Fraction arithmetic until the one division
        weights, scale = _int_weights(degree)
    else:  # Fraction weights, and no division that could move a float's bits
        weights, scale = _linear_coeff_weights(degree), 1
    weighted = ((math.prod(weights[t] for t in nodes), nodes)
                for nodes in product(range(degree + 1), repeat=k))
    grid = ((w, nodes) for w, nodes in weighted if w)
    total = zero_like(A)
    while chunk := list(islice(grid, budget_length(n * n))):
        ws, nodes = zip(*chunk)
        M = _node_stack(A, directions, np.array(nodes, dtype=np.int64))
        values = map(phi, M) if callable(phi) else evaluate(M).tolist()
        for w, value in zip(ws, values):
            total = total + w * value
    return total / scale**k if scale > 1 else total


def _interpolated_residues(item, mod):
    """The coefficient of t_1...t_k in per(A + sum_p t_p X^p) mod p, for each
    image (A, X^1..X^k) of the (c, k + 1, n, n) residue stack `item`.

    The (n + 1)^k grid nodes are taken in grid order, `budget_length(n * n)`
    of them at a time (`_weighted_slice`), with the int weights reduced mod p
    once.  The sum, L^k times the coefficient, is multiplied by (L^k)^-1 mod p.
    """
    k, n = item.shape[1] - 1, item.shape[-1]
    weights, scale = _int_weights(n)
    reduced = np.array(weights)[None] % mod[:, None]  # (c, n + 1): w_j mod the prime of each image
    grid, step = (n + 1) ** k, budget_length(n * n)
    acc = sum(_weighted_slice(item, mod, reduced, np.arange(start, min(start + step, grid)))
              for start in range(0, grid, step))
    return divided(acc, scale**k, mod)


def _weighted_slice(item, mod, reduced, at):
    """sum_t w_t per(A + sum_p t_p X^p) mod p over the grid nodes t numbered `at`,
    for each image, w_t = prod_p w_(t_p) formed on int64 from `reduced`.

    The slice's (c, s, n, n) node residues, the one stack it holds, go to one
    `per_batch` call and are freed on return, before the next slice is built.
    """
    k, n = item.shape[1] - 1, item.shape[-1]
    # (s, k + 1): 1, then the coordinates t_1..t_k of each node
    t = at[:, None] // (n + 1) ** np.arange(k, -1, -1) % (n + 1)
    t[:, 0] = 1
    nodes = np.einsum("sq,cqij->csij", t, item)  # A + sum_p t_p X^p, with no other stack
    nodes %= mod[:, None, None, None]
    p = mod[:, None]
    w = np.ones((len(mod), len(at)), dtype=np.int64)
    for q in range(1, k + 1):
        w = w * reduced[:, t[:, q]] % p
    return (per_batch(nodes, mod) * w % p).sum(axis=1) % mod


def _node_stack(A, directions, nodes):
    """The matrices A + t_1 X^1 + ... + t_k X^k for the rows t of `nodes`, as one stack.

    Exact nodes are summed on the rational parts of the operands, as Python
    ints and Fractions, and built as ExactComplex once.
    """
    if not is_exact(A):
        return _weighted_sums(A, directions, nodes)
    parts = rational_parts(np.stack((A, *directions)).ravel().tolist())
    re, im = (
        _weighted_sums(x[0], x[1:], nodes.astype(object))
        for x in (np.array(x, dtype=object).reshape(len(directions) + 1, *A.shape) for x in parts)
    )
    return exact_from_parts(re.ravel().tolist(), im.ravel().tolist()).reshape(re.shape)


def _weighted_sums(A, directions, nodes):
    """A + t_1 X^1 + ... + t_k X^k for each row t of `nodes`, added left to right.

    Each t_p = 0 is skipped, as in the loop `if t: M = M + t * X`, so a
    floating node has the bits of that loop's.
    """
    M = np.repeat(A[None], len(nodes), axis=0)
    for t, X in zip(nodes.T[:, :, None, None], directions):
        M = np.where(t != 0, M + t * X, M)
    return M


def finite_diff(phi, A, X, h: float, *, r: int | None = None):
    """Central difference (phi(A+hX) - phi(A-hX)) / 2h; error O(h^2)."""
    if h <= 0:
        raise ValueError("need h > 0")
    A = np.asarray(A, dtype=complex)
    X = np.asarray(X, dtype=complex)
    func = _functional(phi, r)
    return (func(A + h * X) - func(A - h * X)) / (2.0 * h)


def faddeev_leverrier(A) -> tuple[complex, ...]:
    """Characteristic-polynomial coefficients (g_1..g_n) via the trace recursion.

    With det(xI - A) = x^n + c_1 x^{n-1} + ... + c_n, the recursion is
    M_1 = A, c_1 = -tr A, M_{j+1} = A (M_j + c_j I), c_{j+1} = -tr M_{j+1}/(j+1),
    and g_r = (-1)^r c_r.
    """
    A = to_complex(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("square matrix required")
    if n == 0:
        return ()
    coeffs = []
    M = A.copy()
    c = -complex(np.trace(M))
    coeffs.append(-c)
    eye = np.eye(n, dtype=complex)
    for j in range(1, n):
        M = A @ (M + c * eye)
        c = -complex(np.trace(M)) / (j + 1)
        coeffs.append(c if (j + 1) % 2 == 0 else -c)
    return tuple(coeffs)
