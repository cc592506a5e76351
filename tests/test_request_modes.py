"""One request check for every derivative entry point.

`scalars.require_directions` fixes one mode per call: exact when any operand
is an object array, with integer operands made exact and a floating operand
refused with a ValueError.  The dispatchers look their forms up at call time.
"""

import numpy as np
import pytest

from conftest import random_complex, random_gaussian_integer
from permderiv import charpoly, derivatives
from permderiv.charpoly import dk_gr, dk_gr_columns, dk_gr_minors, dk_gr_tensor
from permderiv.derivatives import dkper, dkper_columns, dkper_minors, dkper_tensor, dper
from permderiv.oracle import mixed_partial_interp
from permderiv.scalars import ExactComplex, exact_matrix

ENTRY_POINTS = {
    "dkper_columns": dkper_columns,
    "dkper_minors": dkper_minors,
    "dkper_tensor": dkper_tensor,
    "dk_gr_columns": lambda A, dirs: dk_gr_columns(A, dirs, 2, 3),
    "dk_gr_minors": lambda A, dirs: dk_gr_minors(A, dirs, 2, 3),
    "dk_gr_tensor": lambda A, dirs: dk_gr_tensor(A, dirs, 2, 3),
    "dper": lambda A, dirs: dper(A, dirs[0]),
    "interp_per": lambda A, dirs: mixed_partial_interp("per", A, dirs),
    "interp_gr": lambda A, dirs: mixed_partial_interp("gr", A, dirs, r=3),
}


def _integer(rng, n, bound):
    return rng.integers(-bound, bound + 1, (n, n))


def _mixes(n, bound):
    """(all-exact operands, [(label, A, directions)] of integer/exact mixes)."""
    rng = np.random.default_rng(n * bound)
    A = _integer(rng, n, bound)
    dirs = [_integer(rng, n, 4) for _ in range(2)]
    exact_A = exact_matrix(A.tolist())
    exact_dirs = tuple(exact_matrix(X.tolist()) for X in dirs)
    return (exact_A, exact_dirs), [
        ("integer A, exact X", A, exact_dirs),
        ("exact A, integer X", exact_A, tuple(dirs)),
        ("exact A, exact and integer X", exact_A, (exact_dirs[0], dirs[1])),
    ]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("n, bound", [(3, 4), (6, 10**6)])
def test_integer_and_exact_mixes_give_the_all_exact_value(entry, n, bound):
    # at n = 6 the +-10^6 entries give permanents far beyond float precision
    evaluate = ENTRY_POINTS[entry]
    (A, dirs), mixes = _mixes(n, bound)
    expected = evaluate(A, dirs)
    assert isinstance(expected, ExactComplex)
    for label, mixed_A, mixed_dirs in mixes:
        value = evaluate(mixed_A, mixed_dirs)
        assert isinstance(value, ExactComplex), label
        assert value == expected, label
        assert (type(value.re), type(value.im)) == (type(expected.re), type(expected.im)), label


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_floating_and_exact_mixes_raise_a_value_error(entry, rng):
    evaluate = ENTRY_POINTS[entry]
    A = random_gaussian_integer(rng, 3)
    dirs = tuple(random_gaussian_integer(rng, 3) for _ in range(2))
    with pytest.raises(ValueError, match="A is complex128"):
        evaluate(random_complex(rng, 3), dirs)
    with pytest.raises(ValueError, match="direction 1 is complex128"):
        evaluate(A, (random_complex(rng, 3), dirs[1]))
    if entry != "dper":  # dper reads only the first direction
        with pytest.raises(ValueError, match="direction 2 is float64"):
            evaluate(A, (dirs[0], np.ones((3, 3))))


def test_dispatchers_call_the_module_level_forms(rng, monkeypatch):
    # a table built once at import would keep calling the original forms
    calls = []
    monkeypatch.setattr(derivatives, "dkper_minors", lambda *a: calls.append("dkper_minors") or 1)
    monkeypatch.setattr(charpoly, "dk_gr_tensor", lambda *a: calls.append("dk_gr_tensor") or 2)
    A, X = random_complex(rng, 3), random_complex(rng, 3)
    assert dkper(A, (X,), "minors") == 1
    assert dk_gr(A, (X,), 1, 2, "tensor") == 2
    assert dkper(A, (X,), "all")["minors"] == 1
    assert dk_gr(A, (X,), 1, 2, "all")["tensor"] == 2
    assert calls == ["dkper_minors", "dk_gr_tensor", "dkper_minors", "dk_gr_tensor"]


def test_unknown_formula(rng):
    A = random_complex(rng, 2)
    with pytest.raises(ValueError, match="unknown formula"):
        dkper(A, (A,), "ryser")
    with pytest.raises(ValueError, match="unknown formula"):
        dk_gr(A, (A,), 1, 1, "ryser")
