import math
from fractions import Fraction

import numpy as np
import pytest

from permderiv.multiindex import index_plan
from permderiv.permanent import per_batch
from permderiv.scalars import exact_matrix
from permderiv.verification import random_complex, random_unitary, rel_dev  # noqa: F401


def random_gaussian_integer(rng, n, lo=-4, hi=5):
    re = rng.integers(lo, hi, (n, n))
    im = rng.integers(lo, hi, (n, n))
    return exact_matrix([[(int(re[i, j]), int(im[i, j])) for j in range(n)] for i in range(n)])


def typed(values):
    """Each exact value with the types of its parts, so that == also compares them."""
    return [(z.re, type(z.re), z.im, type(z.im)) for z in np.ravel(np.asarray(values, dtype=object))]


def assert_complements_within_rounding(A, k, table, at=None):
    """Each floating entry table[a, c] ~ per A(I|J), I = Q_{k,n}[a] and J = Q_{k,n}[c],
    lies within 2^(m+1) (m^2 + 3m) u prod_{i not in I} sum_{j not in J} |a_ij|_1 of
    the exact value, m = n - k and u = 2^-53 (the bound of
    `test_complement_permanents_are_within_a_ryser_rounding_bound`).

    Every float is a dyadic rational, so the exact engine (one `per_batch` of
    the gathered complements) gives the value of the very entries the floating
    pass sees.  `at` lists the (a, c) to check; all of them by default.
    """
    A = np.asarray(A)
    n, m = A.shape[0], A.shape[0] - k
    keep = index_plan(k, n).complements
    at = np.array(list(np.ndindex(table.shape)) if at is None else at).reshape(-1, 2)
    rows, cols = keep[at[:, 0]], keep[at[:, 1]]
    parts = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in A.tolist()]
    exact = per_batch(exact_matrix(parts)[rows[:, :, None], cols[:, None, :]])
    mags = [[abs(x) + abs(y) for x, y in row] for row in parts]
    for got, value, I, J in zip(table[at[:, 0], at[:, 1]].tolist(), exact, rows, cols):
        rho = math.prod(sum(mags[i][j] for j in J) for i in I)
        error = abs(Fraction(got.real) - value.re) + abs(Fraction(got.imag) - value.im)
        assert error <= 2 ** (m + 1) * (m * m + 3 * m) * Fraction(1, 2**53) * rho


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
