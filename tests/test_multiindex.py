import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from permderiv.multiindex import (
    MultiIndex,
    complement,
    enumerate_strict,
    enumerate_weak,
    index_plan,
    index_weight,
    multiplicity,
    permutations_of,
)
from permderiv.permanent import ReplacementSpec, column_replace, replacement_stack


def test_enumerate_strict_2_3():
    assert [i.entries for i in enumerate_strict(2, 3)] == [(1, 2), (1, 3), (2, 3)]


def test_enumerate_strict_empty_above_n():
    assert enumerate_strict(4, 3) == ()


def test_enumerate_strict_singletons():
    assert [i.entries for i in enumerate_strict(1, 3)] == [(1,), (2,), (3,)]


def test_enumerate_weak_2_2():
    assert [i.entries for i in enumerate_weak(2, 2)] == [(1, 1), (1, 2), (2, 2)]


def test_enumerate_weak_contains_strict():
    weak = [i.entries for i in enumerate_weak(2, 3)]
    assert len(weak) == 6
    strict = [i.entries for i in enumerate_strict(2, 3)]
    positions = [weak.index(s) for s in strict]
    assert positions == sorted(positions)


def test_enumerate_weak_singletons():
    assert len(enumerate_weak(1, 5)) == 5


@pytest.mark.parametrize(
    "entries, kind, expected",
    [((1, 1, 2), "weak", 2), ((1, 2, 3), "strict", 1), ((2, 2, 2), "weak", 6)],
)
def test_multiplicity(entries, kind, expected):
    assert multiplicity(MultiIndex(entries, kind)) == expected


def test_complement_basic():
    assert complement(MultiIndex((1, 3)), 4).entries == (2, 4)
    assert complement(MultiIndex(tuple(range(1, 5))), 4).entries == ()
    assert complement(MultiIndex((2,)), 3).entries == (1, 3)


def test_complement_rejects_weak():
    with pytest.raises(ValueError):
        complement(MultiIndex((1, 1), "weak"), 3)


def test_index_weight():
    assert index_weight(MultiIndex((1, 3))) == 4
    assert index_weight(MultiIndex((2,))) == 2
    assert index_weight(MultiIndex((1, 2, 3))) == 6


@given(st.integers(0, 8), st.integers(1, 8))
def test_cardinalities(k, n):
    assert len(enumerate_strict(k, n)) == (math.comb(n, k) if k <= n else 0)
    assert len(enumerate_weak(k, n)) == math.comb(n + k - 1, k)


@given(st.integers(1, 8), st.integers(1, 8))
def test_complement_involution(k, n):
    if k > n:
        return
    for I in enumerate_strict(k, n):
        assert complement(complement(I, n), n) == I


@given(st.integers(0, 6), st.integers(1, 6))
def test_multiplicity_one_iff_strict(k, n):
    for I in enumerate_weak(k, n):
        strict = all(a < b for a, b in zip(I.entries, I.entries[1:]))
        assert (multiplicity(I) == 1) == strict


def test_permutations_count():
    assert len(permutations_of(4)) == 24
    assert permutations_of(1) == ((0,),)


def test_strict_ordering_enforced():
    with pytest.raises(ValueError):
        MultiIndex((2, 1))
    with pytest.raises(ValueError):
        MultiIndex((2, 1), "weak")


PLAN_SIZES = [(0, 1), (0, 4), (1, 1), (1, 5), (2, 4), (3, 5), (4, 4), (5, 3)]


@pytest.mark.parametrize("k, n", PLAN_SIZES)
def test_index_plan_agrees_with_the_enumeration(k, n):
    plan = index_plan(k, n)
    basis = enumerate_strict(k, n)
    assert plan.combos.tolist() == [list(I.zero_based()) for I in basis]
    assert plan.complements.tolist() == [list(complement(I, n).zero_based()) for I in basis]
    assert plan.parity.tolist() == [index_weight(I) % 2 for I in basis]
    assert [tuple(p) for p in plan.perms.tolist()] == list(permutations_of(k))
    # sigma outermost, J inner; column j_p of A(J; X^sigma) comes from slot sigma(p) + 1
    expected = []
    for sigma in permutations_of(k):
        for J in basis:
            row = [0] * n
            for p, j in enumerate(J.zero_based()):
                row[j] = sigma[p] + 1
            expected.append(row)
    # every entry of slot q is q, so row 0 of each replaced matrix names its slots
    slots = np.arange(k + 1)[:, None, None] * np.ones((n, n), dtype=int)
    assert replacement_stack(slots[0], slots[1:])[:, 0].tolist() == expected
    for part in (slice(1, None, 2), slice(len(expected) // 2), slice(len(expected), None)):
        assert replacement_stack(slots[0], slots[1:], part)[:, 0].tolist() == expected[part]
    assert index_plan(k, n) is plan


@pytest.mark.parametrize("k, n", PLAN_SIZES)
def test_index_plan_arrays_are_read_only(k, n):
    plan = index_plan(k, n)
    for a in (plan.combos, plan.complements, plan.parity, plan.perms):
        assert a.dtype == np.intp and not a.flags.writeable
        if a.size:
            with pytest.raises(ValueError):
                a.flat[0] = 1


def test_index_plan_rejects_bad_orders():
    with pytest.raises(ValueError):
        index_plan(-1, 3)
    with pytest.raises(ValueError):
        index_plan(1, 0)


def test_no_plan_is_built_at_import():
    code = (
        "import permderiv.cli; from permderiv.multiindex import index_plan; "
        "print(index_plan.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize("k, n", [(1, 3), (2, 3), (2, 4), (3, 4)])
def test_replacement_stack_follows_the_plan_with_and_without_a_stack_axis(k, n):
    rng = np.random.default_rng(k * 10 + n)
    A = rng.standard_normal((2, n, n))
    Xs = rng.standard_normal((2, k, n, n))
    stacked = replacement_stack(A, Xs)
    assert stacked.shape == (2, math.factorial(k) * math.comb(n, k), n, n)
    for i in range(2):
        single = replacement_stack(A[i], Xs[i])
        assert np.array_equal(stacked[i], single)
        pairs = [(s, J) for s in permutations_of(k) for J in enumerate_strict(k, n)]
        for m, (sigma, J) in enumerate(pairs):
            spec = ReplacementSpec(J, tuple(Xs[i][sigma[p]] for p in range(k)))
            assert np.array_equal(single[m], column_replace(A[i], spec))
