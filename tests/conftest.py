import numpy as np
import pytest

from permderiv.scalars import exact_matrix
from permderiv.verification import random_complex, random_unitary, rel_dev  # noqa: F401


def random_gaussian_integer(rng, n, lo=-4, hi=5):
    re = rng.integers(lo, hi, (n, n))
    im = rng.integers(lo, hi, (n, n))
    return exact_matrix([[(int(re[i, j]), int(im[i, j])) for j in range(n)] for i in range(n)])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
