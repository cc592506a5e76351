import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import assert_complements_within_rounding, random_complex, random_gaussian_integer, typed
from permderiv import permanent, tensor
from permderiv.charpoly import charpoly_all, g_r
from permderiv.derivatives import dkper_minors
from permderiv.multiindex import MultiIndex, enumerate_strict, index_plan
from permderiv.permanent import laplace_per, minor_complement, padj, per, per_batch, per_naive, submatrix
from permderiv.scalars import ExactComplex, exact_matrix, to_complex, total
from permderiv.tensor import (
    antisym_power,
    det,
    det_bareiss,
    det_batch,
    mixed_antisym_projected,
    mixed_sym_projected,
    principal_blocks,
    sym_power,
    sym_power_projected,
    tilde_antisym_block,
    tilde_sym_block,
)


def test_sym_power_k1_is_A(rng):
    A = random_complex(rng, 4)
    assert np.allclose(sym_power(A, 1).entries, A)
    assert np.allclose(sym_power_projected(A, 1).entries, A)
    assert np.allclose(antisym_power(A, 1).entries, A)


def test_sym_power_identity():
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            B = sym_power(np.eye(n, dtype=complex), k)
            assert np.allclose(B.entries, np.eye(len(B.row_basis)))


def test_sym_power_norm_is_s1_pow_k(rng):
    for _ in range(5):
        n = int(rng.integers(2, 5))
        A = random_complex(rng, n)
        s1 = np.linalg.svd(A, compute_uv=False)[0]
        for k in range(1, n + 1):
            top = np.linalg.svd(sym_power(A, k).entries, compute_uv=False)[0]
            assert abs(top - s1**k) <= 1e-10 * s1**k


def test_sym_power_multiplicative(rng):
    for _ in range(5):
        n = int(rng.integers(2, 6))
        A = random_complex(rng, n)
        B = random_complex(rng, n)
        for k in range(1, n + 1):
            left = sym_power(A @ B, k).entries
            right = sym_power(A, k).entries @ sym_power(B, k).entries
            assert np.allclose(left, right, rtol=1e-10, atol=1e-8)
            la = antisym_power(A @ B, k).entries
            ra = antisym_power(A, k).entries @ antisym_power(B, k).entries
            assert np.allclose(la, ra, rtol=1e-10, atol=1e-8)


def test_sym_power_projected_is_strict_submatrix(rng):
    A = random_complex(rng, 4)
    k = 2
    full = sym_power(A, k)
    proj = sym_power_projected(A, k)
    strict = {I.entries for I in proj.row_basis}
    keep = [i for i, I in enumerate(full.row_basis) if I.entries in strict]
    assert np.allclose(full.entries[np.ix_(keep, keep)], proj.entries)


def test_sym_power_projected_corners(rng):
    A = random_complex(rng, 3)
    top = sym_power_projected(A, 3)
    assert top.entries.shape == (1, 1)
    from permderiv.permanent import per

    assert abs(top.entries[0, 0] - per(A)) < 1e-12


def test_antisym_power_corners(rng):
    A = random_complex(rng, 3)
    assert abs(antisym_power(A, 3).entries[0, 0] - np.linalg.det(A)) < 1e-12
    assert np.allclose(antisym_power(np.eye(4, dtype=complex), 2).entries, np.eye(6))


def test_tilde_sym_block_k1_is_padj_transpose(rng):
    for exact in (False, True):
        A = (random_gaussian_integer if exact else random_complex)(rng, 4)
        entries = tilde_sym_block(A, 1).entries
        if exact:
            assert typed(entries) == typed(padj(A).T)
        else:  # padj's scalar per sums in another order; the table is checked against exact values
            assert_complements_within_rounding(A, 1, entries.T)


@pytest.mark.parametrize("exact", [False, True])
def test_tilde_sym_block_equals_the_minor_complements(exact, rng):
    make = random_gaussian_integer if exact else random_complex
    for n in range(1, 7):
        A = make(rng, n)
        for k in range(n + 1):
            basis = enumerate_strict(k, n)
            entries = tilde_sym_block(A, k).entries
            if exact:
                expected = [[per(minor_complement(A, I, J)) for I in basis] for J in basis]
                assert typed(entries) == typed(expected)
            else:
                assert_complements_within_rounding(A, k, entries.T)
            assert entries.flags.c_contiguous  # block_trace sums in memory order


@pytest.mark.parametrize("exact", [False, True])
def test_gathers_in_many_slices_equal_the_reference_helpers(exact, rng, monkeypatch):
    # a 64-element budget gathers only two 5 x 5 or four 4 x 4 complements
    # per slice, so every block is joined from many slices, in order
    monkeypatch.setattr(permanent, "_STACK_BUDGET", 64)
    n, A = 6, (random_gaussian_integer if exact else random_complex)(rng, 6)
    singles = enumerate_strict(1, n)
    assert padj(A).tolist() == [[per(minor_complement(A, I, J)) for J in singles] for I in singles]
    basis = enumerate_strict(2, n)
    if exact:
        expected = [[per(minor_complement(A, I, J)) for I in basis] for J in basis]
        assert typed(tilde_sym_block(A, 2).entries) == typed(expected)
    else:  # the one-pass table, cut into chunks of rows I and high column sets
        assert_complements_within_rounding(A, 2, tilde_sym_block(A, 2).entries.T)
    I = MultiIndex((2, 5))
    terms = [per(submatrix(A, I, J)) * per(minor_complement(A, I, J)) for J in basis]
    assert laplace_per(A, I) == sum(terms[1:], terms[0])
    if exact:  # a floating stack may differ from its matrices alone in the last bit
        blocks = [[submatrix(A, I, J) for J in basis] for I in basis]
        assert sym_power_projected(A, 2).entries.tolist() == [[per(B) for B in row] for row in blocks]
        assert antisym_power(A, 2).entries.tolist() == [[det(B) for B in row] for row in blocks]


def _whole(M, rows, cols, source=None):
    """Every block M[r|c] by one numpy index: the whole gathered stack."""
    picks = () if source is None else (source[..., None, :],)
    return np.asarray(M)[(..., *picks, rows[..., :, None], cols[..., None, :])]


def _each_per(mats):
    """per of each matrix of an (..., k, k) stack, as a loop."""
    values = [per(mats[i]) for i in np.ndindex(mats.shape[:-2])]
    dtype = object if mats.dtype == object else complex
    return np.array(values, dtype=dtype).reshape(mats.shape[:-2])


def _assert_same(got, expected):
    """Floating values bit for bit; exact values == with the same part types."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    if got.dtype != object:
        assert got.tobytes() == expected.tobytes()
        return
    assert got.tolist() == expected.tolist()
    types = [[(type(z.re), type(z.im)) for z in x.ravel()] for x in (got, expected)]
    assert types[0] == types[1]


_DEFAULT_BUDGET = permanent._STACK_BUDGET


def _at_default_budget(run):
    """run() with the module's own stack budget, whatever a test set it to."""
    budget, permanent._STACK_BUDGET = permanent._STACK_BUDGET, _DEFAULT_BUDGET
    try:
        return run()
    finally:
        permanent._STACK_BUDGET = budget


def _sigma_sum(Xs, evaluate):
    """sum_sigma evaluate of the whole stack of blocks X^sigma[I|J], I, J in Q_{k,n}."""
    plan = index_plan(Xs.shape[-3], Xs.shape[-1])
    c = plan.combos
    return sum(evaluate(_whole(Xs, c[:, None], c[None, :], sigma)) for sigma in plan.perms)


def _callers(n, k):
    """(name, caller, reference): each caller of permanent.map_blocks at order k, and the
    same value from one evaluation of each whole gathered stack."""
    plan = index_plan(k, n)
    c, comps = plan.combos, plan.complements
    pairs = c[:, None], c[None, :]
    weak = np.array([I.zero_based() for I in tensor.enumerate_weak(k, n)], dtype=np.intp)
    norms = np.array([math.sqrt(tensor.multiplicity(I)) for I in tensor.enumerate_weak(k, n)])
    odd = plan.parity[:, None] ^ plan.parity[None, :]

    def signed(A):
        minors = det_batch(_whole(A, comps[:, None], comps[None, :]))
        return np.where(odd, -minors, minors)

    def dkper_minors_reference(A, Xs):
        per_comp = per_batch(_whole(A, comps[:, None], comps[None, :]))
        return total(sum(
            per_comp * per_batch(_whole(Xs, *pairs, sigma)) for sigma in index_plan(k, k).perms
        ))

    def laplace_reference(A, Xs):
        tops = _each_per(_whole(A, np.arange(k), c))
        return sum(t * b for t, b in zip(tops, _each_per(_whole(A, np.arange(k, n), comps))))

    def tilde_reference(A, Xs):
        if A.dtype == object:
            return _each_per(_whole(A, comps[None, :], comps[:, None]))
        return _at_default_budget(lambda: tilde_sym_block(A, k).entries)  # the unchunked pass

    def sym_power_reference(A, Xs):
        return per_batch(_whole(to_complex(A), weak[:, None], weak[None, :])) / np.outer(norms, norms)

    ones = index_plan(1, n).complements
    return [
        ("padj", lambda A, Xs: padj(A),
         lambda A, Xs: _each_per(_whole(A, ones[:, None], ones[None, :]))),
        ("laplace_per", lambda A, Xs: laplace_per(A, MultiIndex(tuple(range(1, k + 1)))),
         laplace_reference),
        ("tilde_sym_block", lambda A, Xs: tilde_sym_block(A, k).entries, tilde_reference),
        ("tilde_antisym_block", lambda A, Xs: tilde_antisym_block(A, k).entries,
         lambda A, Xs: signed(A).T),
        ("sym_power_projected", lambda A, Xs: sym_power_projected(A, k).entries,
         lambda A, Xs: per_batch(_whole(A, *pairs))),
        ("antisym_power", lambda A, Xs: antisym_power(A, k).entries,
         lambda A, Xs: det_batch(_whole(A, *pairs))),
        ("mixed_sym_projected", lambda A, Xs: mixed_sym_projected(tuple(Xs)).entries,
         lambda A, Xs: _sigma_sum(Xs, per_batch) / math.factorial(k)),
        ("mixed_antisym_projected", lambda A, Xs: mixed_antisym_projected(tuple(Xs)).entries,
         lambda A, Xs: _sigma_sum(Xs, det_batch) / math.factorial(k)),
        ("dkper_minors", lambda A, Xs: dkper_minors(A, tuple(Xs)), dkper_minors_reference),
        ("sym_power", lambda A, Xs: sym_power(A, k).entries, sym_power_reference),
    ]


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("name", [name for name, _, _ in _callers(2, 1)])
def test_sliced_gathers_equal_one_evaluation_of_the_whole_stack(name, exact, rng, monkeypatch):
    # a 64-element budget cuts the gathers below into slices, many with a
    # partial last slice (the 100 blocks of order 2 at n = 5 and k = 2 or 3
    # take 6 slices of 16 and one of 4); k = n gathers the one empty complement
    monkeypatch.setattr(permanent, "_STACK_BUDGET", 64)
    assert permanent.slice_length(2) == 16
    n = 5
    make = random_gaussian_integer if exact else random_complex
    A = make(rng, n)
    for k in range(1, n + 1):
        if name == "sym_power" and (exact or k > 3):
            continue  # floating only; its weak basis grows fast
        Xs = np.stack([make(rng, n) for _ in range(k)])
        caller, reference = next((c, r) for nm, c, r in _callers(n, k) if nm == name)
        _assert_same(caller(A, Xs), reference(A, Xs))


@pytest.mark.parametrize("exact", [False, True])
def test_map_blocks_slices_leading_axes_and_sources(exact, rng, monkeypatch):
    # the stacked restrictions of the D^k g_r forms: a leading axis of 3
    # restrictions, k = 2 directions each, non-contiguous as the forms gather them
    monkeypatch.setattr(permanent, "_STACK_BUDGET", 64)
    make = random_gaussian_integer if exact else random_complex
    M = np.stack([np.stack([make(rng, 5) for _ in range(3)]) for _ in range(3)])  # (3, 3, 5, 5)
    XI = np.moveaxis(M, 0, 1)[:, 1:]  # (3, 2, 5, 5)
    c = index_plan(2, 5).combos
    for sigma in index_plan(2, 2).perms:
        for evaluate in (per_batch, det_batch):
            got = permanent.map_blocks(XI, c[:, None], c[None, :], evaluate, sigma)
            assert got.shape == (3, 10, 10)
            _assert_same(got, evaluate(_whole(XI, c[:, None], c[None, :], sigma)))
    # two leading axes, and complements of order 3
    N, comps = np.stack([XI[:, 0], XI[:, 1]]), index_plan(2, 5).complements  # (2, 3, 5, 5)
    got = permanent.map_blocks(N, comps[:, None], comps[None, :], det_batch)
    assert got.shape == (2, 3, 10, 10)
    _assert_same(got, det_batch(_whole(N, comps[:, None], comps[None, :])))


def test_tilde_sym_block_memory_is_bounded_at_n9_k4(rng):
    # one gather of all 126^2 5 x 5 complements would take 6.3 MB; the index
    # plan is kept for the process, so it is built first
    A = random_complex(rng, 9)
    index_plan(4, 9).complements
    tracemalloc.start()
    try:
        entries = tilde_sym_block(A, 4).entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    spots = ((0, 0), (0, 125), (125, 0), (77, 31), (125, 125))
    assert_complements_within_rounding(A, 4, entries.T, at=spots)


@pytest.mark.parametrize("evaluate", [per_batch, det_batch])
def test_sliced_results_take_part_in_products_as_whole_ones(evaluate, rng):
    # numpy can write a product into an operand that is a temporary owning its
    # data (above 256 KiB), and that can round it differently from a product
    # into a new array; the 165^2 blocks here take 5 slices, and their joined
    # result owns its data just when the evaluator's own results do
    Xs = np.stack([random_complex(rng, 11) for _ in range(3)])[None]
    c, sigma = index_plan(3, 11).combos, index_plan(3, 3).perms[3]
    weights = random_complex(rng, 165)[None]
    assert 165**2 * 16 >= 2**18 and permanent.slice_length(3) < 165**2
    got = weights * permanent.map_blocks(Xs, c[:, None], c[None, :], evaluate, sigma)
    _assert_same(got, weights * evaluate(_whole(Xs, c[:, None], c[None, :], sigma)))


def _peak(run, *plans):
    """tracemalloc peak of run(), with the (k, n) index plans built first, as the
    process keeps them."""
    for k, n in plans:
        plan = index_plan(k, n)
        plan.combos, plan.complements, plan.perms
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mixed_sym_projected_memory_is_bounded_at_n9_k4(rng):
    # 24 gathers of all 126^2 blocks of order 4 at once took 5.6 MiB
    Xs = [random_complex(rng, 9) for _ in range(4)]
    assert _peak(lambda: mixed_sym_projected(Xs), (4, 9)) < 4 * 2**20


def test_sym_power_memory_is_bounded_at_n6_k5(rng):
    # one gather of all 252^2 blocks of order 5 at once took 26.5 MiB
    A = random_complex(rng, 6)
    assert _peak(lambda: sym_power(A, 5)) < 4 * 2**20


def test_antisym_power_memory_is_bounded_at_n10_k5(rng):
    # one gather of all 252^2 blocks of order 5 at once took 49.4 MiB
    A = random_complex(rng, 10)
    assert _peak(lambda: antisym_power(A, 5), (5, 10)) < 4 * 2**20


def test_tilde_sym_block_identity():
    for k in (0, 1, 2):
        B = tilde_sym_block(np.eye(3, dtype=complex), k)
        assert np.allclose(B.entries, np.eye(len(B.row_basis)))


def test_tilde_sym_block_k0(rng):
    A = random_complex(rng, 3)
    from permderiv.permanent import per

    assert abs(tilde_sym_block(A, 0).entries[0, 0] - per(A)) < 1e-12


def test_tilde_antisym_block_jacobi(rng):
    # contracting the k=1 block against X reproduces tr(adj(A) X)
    A = random_complex(rng, 4)
    X = random_complex(rng, 4)
    block = tilde_antisym_block(A, 1).entries
    value = np.trace(block @ X)
    adj = np.linalg.det(A) * np.linalg.inv(A)
    assert abs(value - np.trace(adj @ X)) < 1e-10 * max(1, abs(np.trace(adj @ X)))


def test_tilde_antisym_block_identity():
    for k in (0, 1, 2):
        B = tilde_antisym_block(np.eye(3, dtype=complex), k)
        assert np.allclose(B.entries, np.eye(len(B.row_basis)))


def test_tilde_antisym_block_k0(rng):
    A = random_complex(rng, 3)
    assert abs(tilde_antisym_block(A, 0).entries[0, 0] - np.linalg.det(A)) < 1e-12


def test_mixed_blocks_collapse(rng):
    for n in (2, 3, 4):
        X = random_complex(rng, n)
        for k in range(1, n + 1):
            assert np.allclose(
                mixed_sym_projected((X,) * k).entries, sym_power_projected(X, k).entries
            )
            assert np.allclose(
                mixed_antisym_projected((X,) * k).entries, antisym_power(X, k).entries
            )


def test_mixed_blocks_identity_directions():
    eye = np.eye(4, dtype=complex)
    assert np.allclose(mixed_sym_projected((eye, eye)).entries, np.eye(6))
    assert np.allclose(mixed_antisym_projected((eye, eye)).entries, np.eye(6))


def test_mixed_blocks_permutation_symmetric(rng):
    X = tuple(random_complex(rng, 4) for _ in range(3))
    perms = [(0, 1, 2), (2, 0, 1), (1, 2, 0), (2, 1, 0)]
    base_s = mixed_sym_projected(X).entries
    base_a = mixed_antisym_projected(X).entries
    for p in perms:
        shuffled = tuple(X[i] for i in p)
        assert np.allclose(mixed_sym_projected(shuffled).entries, base_s)
        assert np.allclose(mixed_antisym_projected(shuffled).entries, base_a)


def test_mixed_blocks_multilinear(rng):
    n, k = 3, 2
    X = random_complex(rng, n)
    U = random_complex(rng, n)
    V = random_complex(rng, n)
    alpha = 0.7 + 1.1j
    lhs = mixed_sym_projected((X, U + alpha * V)).entries
    rhs = mixed_sym_projected((X, U)).entries + alpha * mixed_sym_projected((X, V)).entries
    assert np.allclose(lhs, rhs)


def test_det_bareiss_exact(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        A = random_gaussian_integer(rng, n)
        exact = det_bareiss(A)
        ref = np.linalg.det(np.array([[complex(A[i, j]) for j in range(n)] for i in range(n)]))
        assert abs(complex(exact) - ref) < 1e-8 * max(1, abs(ref))


def test_det_bareiss_singular():
    from permderiv.scalars import exact_matrix

    A = exact_matrix([[1, 2], [2, 4]])
    assert det_bareiss(A) == ExactComplex(0)


def _leibniz(M):
    """det M as the signed permutation sum, in exact arithmetic."""
    n = M.shape[0]
    value = ExactComplex(0)
    for sigma in itertools.permutations(range(n)):
        inversions = sum(sigma[i] > sigma[j] for i in range(n) for j in range(i + 1, n))
        term = ExactComplex(-1 if inversions % 2 else 1)
        for i in range(n):
            term = term * M[i, sigma[i]]
        value = value + term
    return value


def _bareiss_cases(rng, n):
    """Regular Gaussian-integer matrices mixed with every pivoting case."""
    cases = [random_gaussian_integer(rng, n) for _ in range(4)]
    if n:
        M = random_gaussian_integer(rng, n)
        M[0, 0] = ExactComplex(0)  # forces a row swap at the first step
        cases.append(M)
        M = random_gaussian_integer(rng, n)
        M[:, n // 2] = ExactComplex(0)  # no pivot in one column
        cases.append(M)
        M = random_gaussian_integer(rng, n)
        M[n - 1] = M[0]  # a repeated row
        cases.append(M)
        M = random_gaussian_integer(rng, n)
        M[:, :2] = ExactComplex(0)  # zero pivots in the first columns
        cases.append(M)
        cases.append(np.full((n, n), ExactComplex(0), dtype=object))
        M = random_gaussian_integer(rng, n)
        M[1:] = M[1:] * ExactComplex(0, 1) / 3  # Fraction parts
        cases.append(M)
    return cases


@pytest.mark.parametrize("n", range(6))
def test_det_bareiss_stack_matches_leibniz(rng, n):
    cases = _bareiss_cases(rng, n)
    stack = np.stack(cases).reshape(2, len(cases) // 2, n, n)
    dets = det_bareiss(stack)
    assert dets.shape == stack.shape[:2] and dets.dtype == object
    assert det_batch(stack).tolist() == dets.tolist()
    for M, value in zip(cases, dets.ravel()):
        single = det_bareiss(M)
        assert isinstance(single, ExactComplex) and single == value == _leibniz(M)


def test_det_bareiss_fraction_entries():
    M = np.array([[Fraction(1, 2), Fraction(1, 3), 0], [Fraction(1, 5), 0, Fraction(2, 7)],
                  [0, Fraction(3, 4), Fraction(-1, 9)]], dtype=object)
    assert det_bareiss(M) == _leibniz(M) != 0
    assert det_bareiss(np.stack([M, M[::-1]])).tolist() == [_leibniz(M), -_leibniz(M)]


@pytest.mark.parametrize("n", range(1, 6))
def test_summed_det_bareiss_equals_the_sum_of_its_determinants(rng, n):
    # given minors = r, each matrix gives the sum of its r x r principal
    # minors: Gaussian integers, Fraction parts and parts beyond int64, in a
    # (2, 5) stack; from r = 4 each sum is _berkowitz's g_r of the whole image
    cases = _bareiss_cases(rng, n)
    for stack in (cases, [M / 3 for M in cases], [M * 2**70 + random_gaussian_integer(rng, n) for M in cases]):
        stack = np.stack(stack).reshape(2, 5, n, n)
        for r in range(1, n + 1):
            sums = det_bareiss(stack, r)
            assert sums.shape == (2, 5) and sums.dtype == object
            restrictions = det_bareiss(tensor.principal_blocks(stack, index_plan(r, n).combos))
            for value, dets in zip(sums.ravel(), restrictions.reshape(10, -1)):
                reference = sum(dets.tolist(), ExactComplex(0))
                assert value == reference and _parts(value) == _parts(reference)
            single = det_bareiss(stack[1, 2], r)  # one matrix gives a scalar
            assert single == sums[1, 2] and _parts(single) == _parts(sums[1, 2])


@pytest.mark.parametrize("shape", [(0, 1, 1), (0, 3, 3), (2, 0, 5, 5)])
def test_summed_det_bareiss_of_empty_stacks(shape):
    # a stack without matrices gives no sums, of every order r
    stack = np.empty(shape, dtype=object)
    for r in range(1, shape[-1] + 1):
        sums = det_bareiss(stack, r)
        assert sums.shape == shape[:-2] and sums.dtype == object


def _parts(z):
    return type(z), type(z.re), type(z.im)


def _residue_cases(rng, n):
    """_bareiss_cases and matrices whose residues pivot unlike their integers."""
    q = permanent._modulus(0)[0]  # the first prime
    cases = _bareiss_cases(rng, n)
    M = random_gaussian_integer(rng, n)
    M[0, 0] = ExactComplex(q)  # 0 mod q: that image pivots on another row
    cases.append(M)
    M = random_gaussian_integer(rng, n)
    M[:, 0] = M[:, 0] * q + ExactComplex(q)  # a first column of 0 mod q only
    cases.append(M)
    M = random_gaussian_integer(rng, n)
    M[n - 1] = M[0] * ExactComplex(2, -1) + M[1] * 3  # singular, no zero entry
    cases.append(M)
    cases.append(random_gaussian_integer(rng, n) * 10**200 + random_gaussian_integer(rng, n))
    M = random_gaussian_integer(rng, n) * 10**200
    M[0] = M[0] / 7  # 200-digit parts and Fraction parts
    cases.append(M)
    return cases


@pytest.mark.parametrize("n", range(3, 8))
def test_residue_determinants_equal_leibniz(rng, n):
    cases = _residue_cases(rng, n)
    references = [_leibniz(M) for M in cases]
    assert any(value == 0 for value in references) and any(value != 0 for value in references)
    dets = det_bareiss(np.stack(cases))
    assert dets.shape == (len(cases),) and dets.dtype == object
    for value, reference in zip(dets, references):
        assert value == reference and _parts(value) == _parts(reference)
    for M, reference in zip(cases[-5:], references[-5:]):
        single = det_bareiss(M)  # a single matrix gives a scalar
        assert isinstance(single, ExactComplex) and single == reference
        assert _parts(single) == _parts(reference)


def test_each_group_of_matrices_takes_only_the_primes_it_needs(rng, monkeypatch):
    # 2 of every 15 matrices have 200-digit parts and need dozens of primes;
    # the other 13 run only the one or two primes their bound needs
    cases = [random_gaussian_integer(rng, 3) for _ in range(13)]
    cases += [random_gaussian_integer(rng, 3) * 10**200 + random_gaussian_integer(rng, 3) for _ in range(2)]
    references = [_leibniz(M) for M in cases]

    def primes(M):  # the row 1-norm product bounds |det M|
        rows = [sum(abs(z.re) + abs(z.im) for z in row) for row in M]
        return permanent._prime_count(2 * math.prod(rows))

    count = 150
    needed = [primes(cases[i % 15]) for i in range(count)]
    assert max(needed) > 40 and min(needed) <= 2
    kernel, images = tensor.det_batch, []  # det_bareiss' residue evaluator
    monkeypatch.setattr(tensor, "det_batch", lambda *a: images.append(len(a[0])) or kernel(*a))
    dets = det_bareiss(np.stack([cases[i % 15] for i in range(count)]))
    assert images == [2 * sum(needed)]  # one kernel call, re + s im and re - s im per prime
    assert 5 * images[0] < 2 * max(needed) * count  # one count for the whole slice takes 5x more
    for i, value in enumerate(dets):
        reference = references[i % 15]
        assert value == reference and _parts(value) == _parts(reference)


@pytest.mark.parametrize("n", [3, 5])
def test_residue_determinants_of_a_stack_longer_than_a_slice(rng, n, monkeypatch):
    cases = _residue_cases(rng, n)[:-2]  # 200-digit parts take dozens of primes per slice
    references = [_leibniz(M) for M in cases]
    count = permanent.slice_length(n) + 1
    stack = np.stack([cases[i % len(cases)] for i in range(count)]).reshape(count, 1, n, n)
    kernel, calls = tensor.det_batch, []  # det_bareiss' residue evaluator
    monkeypatch.setattr(tensor, "det_batch", lambda *a: calls.append(a) or kernel(*a))
    dets = det_bareiss(stack)
    assert dets.shape == (count, 1) and len(calls) == 2  # one kernel call per slice
    for i, value in enumerate(dets[:, 0]):
        reference = references[i % len(cases)]
        assert value == reference and _parts(value) == _parts(reference)


def _residue_images(rng, n):
    """(m, n, n) int64 residues and the prime of each: random images, residues
    p - 1 everywhere (the largest products), zero rows, matrices singular mod p
    only, the zero matrix and a zero (0, 0) entry."""
    primes = [permanent._modulus(i)[0] for i in range(4)]
    mats, mod = [], []
    for p in primes:
        random = rng.integers(0, p, (6, n, n))
        top = np.full((3, n, n), p - 1)
        top[1, 1, 1] = 0  # p - 1 around one zero
        top[2, :, 0] = 1  # and beside a column of ones
        zero = rng.integers(0, p, (n, n, n))
        zero[np.arange(n), np.arange(n)] = 0  # row i of matrix i is 0
        singular = rng.integers(0, p, (3, n, n))
        singular[:, n - 1] = (singular[:, 0] + 5 * singular[:, 1]) % p  # rows dependent mod p only
        singular[2, 1] = singular[2, 0]  # and a repeated row
        corner = rng.integers(0, p, (2, n, n))
        corner[:, 0, 0] = 0  # no pivot at (0, 0)
        group = np.concatenate([random, top, zero, singular, np.zeros((1, n, n), dtype=np.int64), corner])
        mats.append(group)
        mod += [p] * len(group)
    return np.concatenate(mats).astype(np.int64), np.array(mod, dtype=np.int64)


def _det_mod(M, p):
    """det M mod p of a matrix of Python ints, by Gaussian elimination over Z_p."""
    M, value = [[x % p for x in row] for row in M], 1
    for i in range(len(M)):
        pivot = next((j for j in range(i, len(M)) if M[j][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            M[i], M[pivot], value = M[pivot], M[i], -value
        value = value * M[i][i] % p
        inverse = pow(M[i][i], -1, p)
        for j in range(i + 1, len(M)):
            factor = M[j][i] * inverse % p
            M[j] = [(a - factor * b) % p for a, b in zip(M[j], M[i])]
    return value % p


@pytest.mark.parametrize("n", range(3, 9))
def test_residue_dets_equal_elimination_mod_p(rng, n):
    # orders 3 and 4 take their expansions, orders >= 5 g_n of _berkowitz
    mats, mod = _residue_images(rng, n)
    dets = det_batch(mats, mod)
    assert dets.dtype == np.int64 and np.all((0 <= dets) & (dets < mod))
    for M, p, value in zip(mats.tolist(), mod.tolist(), dets.tolist()):  # Python ints, unbounded
        assert value == _det_mod(M, p)
        if n == 3:
            sarrus = sum(
                math.prod(M[i][(i + j) % 3] for i in range(3)) - math.prod(M[i][(j - i) % 3] for i in range(3))
                for j in range(3)
            )
            assert value == sarrus % p
    assert np.any(dets == 0) and np.any(dets != 0)
    # a (4, m/4) stack with one prime per leading entry, as the closed forms pass it
    stacked = mats.reshape(4, -1, n, n)
    assert det_batch(stacked, mod.reshape(4, -1)[:, 0]).tolist() == dets.reshape(4, -1).tolist()


def _order3_exact_cases(rng, n):
    """Gaussian-integer n x n matrices with Fraction parts and parts beyond int64."""
    fractions = random_gaussian_integer(rng, n)
    fractions[0] = fractions[0] / 3
    fractions[:, -1] = fractions[:, -1] * ExactComplex(Fraction(1, 2), Fraction(-5, 7))
    big = random_gaussian_integer(rng, n) * 10**30 + random_gaussian_integer(rng, n)
    mixed = random_gaussian_integer(rng, n) * 2**70
    mixed[1] = mixed[1] / 11
    return [fractions, big, mixed, fractions * ExactComplex(0, 1) + big]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exact_order_three_dets_and_charpoly_equal_leibniz(rng, n):
    for M in _order3_exact_cases(rng, n):
        sums = [ExactComplex(0)] * (n + 1)
        for r in range(1, n + 1):
            for I in itertools.combinations(range(n), r):
                sums[r] = sums[r] + _leibniz(M[np.ix_(I, I)])
        values = [g_r(M, r) for r in range(1, n + 1)]
        coefficients = list(charpoly_all(M))
        for r in range(1, n + 1):
            assert values[r - 1] == coefficients[r - 1] == sums[r]
            assert _parts(values[r - 1]) == _parts(coefficients[r - 1]) == _parts(sums[r])
        if n == 3:
            value = det(M)
            assert value == sums[3] and _parts(value) == _parts(sums[3])
        minors = det_batch(principal_blocks(M, index_plan(3, n).combos))
        for I, value in zip(itertools.combinations(range(n), 3), minors):
            reference = _leibniz(M[np.ix_(I, I)])
            assert value == reference and _parts(value) == _parts(reference)


def test_numpy_booleans_are_exact_zero_and_one(rng):
    M = random_gaussian_integer(rng, 3)
    M[0, 1], M[1, 2], M[2, 0] = np.True_, np.False_, np.True_
    reference = per_naive(M)
    assert per(M) == reference and per_batch(np.stack([M, M])).tolist() == [reference] * 2
    assert det(M) == _leibniz(M) and det_batch(np.stack([M, M])).tolist() == [_leibniz(M)] * 2
    assert _parts(per(M)) == _parts(reference) and _parts(det(M)) == _parts(_leibniz(M))


@pytest.mark.parametrize("n", range(3))
@pytest.mark.parametrize("shape", [(), (2, 3)])
def test_low_order_exact_dets_equal_leibniz_and_bareiss(rng, n, shape):
    # orders 0, 1 and 2 take the Leibniz branch of det_batch; det_bareiss
    # and the permutation sum are references that do not
    cases = _bareiss_cases(rng, n) + [random_gaussian_integer(rng, n) * 10**30]
    if n == 2:
        M = random_gaussian_integer(rng, n)
        M[1] = M[0] * ExactComplex(2, -1)  # singular with no zero entry
        cases.append(M)
    count = math.prod(shape)
    for start in range(0, len(cases), count):
        group = (cases[start:] + cases)[:count]
        dets = det_batch(np.stack(group).reshape(*shape, n, n))
        if not shape:
            assert isinstance(dets, ExactComplex)
        else:
            assert dets.shape == shape and dets.dtype == object
        bareiss = det_bareiss(np.stack(group))
        for M, value, reference in zip(group, np.ravel(dets), bareiss):
            assert value == _leibniz(M) == reference
            assert _parts(value) == _parts(_leibniz(M))
            if n == 2:  # at order 1, Bareiss returns the raw entry
                assert _parts(value) == _parts(reference)


@pytest.mark.parametrize(
    "entries",
    [
        [[5]],
        [[Fraction(4, 2)]],
        [[Fraction(1, 3)]],
        [[2, 3], [5, 7]],
        [[Fraction(1, 2), 1], [1, 4]],  # 2 - 1: a Fraction sum that is integral
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 7]],
        [[ExactComplex(1, 2), 3], [Fraction(1, 2), ExactComplex(0, Fraction(1, 3))]],
    ],
)
def test_exact_low_order_dets_are_exact_complex(entries):
    M = np.array(entries, dtype=object)
    value = det(M)
    assert isinstance(value, ExactComplex) and value == _leibniz(M)
    assert _parts(value) == _parts(_leibniz(M))
    if len(M) == 2:
        assert _parts(value) == _parts(det_bareiss(M))
    stacked = det_batch(np.stack([M, M]))
    assert [_parts(z) for z in stacked] == [_parts(value)] * 2
    assert antisym_power(M, len(M)).entries.tolist() == [[value]]
    assert _parts(antisym_power(M, len(M)).entries[0, 0]) == _parts(value)
    assert _parts(antisym_power(M, 1).entries[0, 0]) == _parts(M[0, 0] + ExactComplex(0))


@pytest.mark.parametrize("n", range(3))
def test_low_order_floating_dets_match_lapack(rng, n):
    mats = rng.standard_normal((2, 50, n, n)) + 1j * rng.standard_normal((2, 50, n, n))
    mats[0, :5] *= 1e150
    mats[0, 5:10] *= 1e-150
    if n == 2:
        mats[1, :5, 1] = mats[1, :5, 0] * (0.3 - 0.7j)  # singular up to rounding
    dets = det_batch(mats)
    assert dets.shape == (2, 50) and dets.dtype == complex
    if n == 2:
        scale = abs(mats[..., 0, 0] * mats[..., 1, 1]) + abs(mats[..., 0, 1] * mats[..., 1, 0])
    else:
        scale = abs(np.linalg.det(mats))
    assert np.all(abs(dets - np.linalg.det(mats)) <= 1e-12 * scale)
    single = det(mats[1, 7])
    assert type(single) is complex and single == dets[1, 7]


def _exact_of(M):
    """The exact matrix of the floats of M, Fraction parts."""
    return exact_matrix([[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in np.asarray(M)])


@pytest.mark.parametrize("n", [3, 4])
def test_integer_floating_dets_are_exact(rng, n):
    # every product and sum of the expansion is an integer far below 2^53
    mats = rng.integers(-9, 10, (60, n, n)) + 1j * rng.integers(-9, 10, (60, n, n))
    exact = [_exact_of(M) for M in mats]
    values = [complex(z) for z in det_batch(np.stack(exact))]
    assert det_batch(mats).tolist() == values == [complex(_leibniz(M)) for M in exact]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_floating_det_equals_its_value_alone(rng, n):
    mats = rng.standard_normal((3, 41, n, n)) + 1j * rng.standard_normal((3, 41, n, n))
    dets = det_batch(mats)
    for index in np.ndindex(3, 41):
        M = mats[index]
        for alone in (det_batch(M), det_batch(M[None])[0], det(M)):
            assert np.complex128(alone).tobytes() == dets[index].tobytes()


@pytest.mark.parametrize("scales", [(1e200, 1e200, 1e-250), (1e200, 1e200, 1e-100, 1e-100)], ids=["order3", "order4"])
def test_huge_floating_dets_are_finite_through_lu(rng, scales):
    # the expansion's products of two entries near 1e200 overflow although
    # each determinant is finite; those values are taken by LU and the
    # others keep the expansion's bits
    n = len(scales)
    mats = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
    mats[[1, 4]] *= np.array(scales)
    dets, lu = det_batch(mats), np.linalg.det(mats)
    assert np.isfinite(dets).all() and np.all(abs(dets - lu) <= 1e-12 * abs(lu))
    for i in (0, 2, 3, 5):
        assert dets[i].tobytes() == det_batch(mats[i : i + 1]).tobytes()


@pytest.mark.parametrize(
    "diagonal", [(1e300, 1e-160, 1e-160), (1e-160, 1e-160, 1e150, 1e150)], ids=["order3", "order4"]
)
def test_an_underflowing_floating_stack_runs_lu(rng, diagonal):
    # the expansion's 1e-160 * 1e-160 is subnormal, with few significant
    # bits left; LU's determinant is 1e-20 to rounding
    M = np.diag(np.array(diagonal, dtype=complex))
    M[0, 1] = 3e-161
    stack = np.stack([random_complex(rng, len(M)), M])
    for value in (det(M), det_batch(stack)[1]):
        assert abs(value - 1e-20) <= 1e-13 * 1e-20


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_floating_dets_are_within_the_rounding_bound(rng, n):
    # each term is a product of n entries and the terms are summed, so in the
    # norm |re| + |im| the error is at most gamma_(n! n) per(B), where
    # B_ij = |re a_ij| + |im a_ij| (n! n bounds the roundings on any path)
    parts = rng.integers(-2**12, 2**12, (2, 40, n, n)) * 2.0 ** rng.integers(-30, 30, (2, 40, n, n))
    mats = parts[0] + 1j * parts[1]
    m = math.factorial(n) * n
    gamma = Fraction(m, 2**53 - m)
    for M, value in zip(mats, det_batch(mats)):
        exact = _leibniz(_exact_of(M))
        B = exact_matrix([[Fraction(abs(z.real)) + Fraction(abs(z.imag)) for z in row] for row in M])
        error = abs(Fraction(value.real) - exact.re) + abs(Fraction(value.imag) - exact.im)
        assert error <= gamma * per_naive(B).re


@pytest.mark.parametrize("shape", [(4, 3, 2), (4, 1, 2), (4,)])
@pytest.mark.parametrize("evaluate", [det_batch, per_batch])
@pytest.mark.parametrize("dtype", [complex, object])
def test_batch_evaluators_reject_non_square_stacks(shape, evaluate, dtype):
    mats = np.zeros(shape, dtype=dtype)
    if dtype is object:
        mats[...] = ExactComplex(1)
    with pytest.raises(ValueError, match=rf"square matrices required, got shape \({shape[0]},"):
        evaluate(mats)


def test_det_empty():
    assert det(np.zeros((0, 0), dtype=complex)) == 1


def test_dimension_errors(rng):
    A = random_complex(rng, 3)
    with pytest.raises(ValueError):
        sym_power(A, 0)
    with pytest.raises(ValueError):
        antisym_power(A, 4)
    with pytest.raises(ValueError):
        tilde_sym_block(A, 4)
