"""Multi-index combinatorics: strict and weak k-tuples from [1..n].

Indices are 1-based throughout; conversion to 0-based happens only at the
point of matrix-element access.  Lexicographic order of the enumeration is
the canonical basis order for every tensor block built on top of these.

The formulas index matrices through `index_plan(k, n)`, one cached
`IndexPlan` per (k, n): read-only zero-based numpy arrays of the strict
k-combinations, their complements and index parities, and the k!
permutations, and the strict basis that `enumerate_strict` returns.  Each
is built on first use, so importing the package builds none.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, prod

import numpy as np


@dataclass(frozen=True)
class MultiIndex:
    """An ordered tuple of indices in [1..n], strict (increasing) or weak."""

    entries: tuple[int, ...]
    kind: str = "strict"  # "strict" or "weak"

    def __post_init__(self):
        if self.kind not in ("strict", "weak"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "strict":
            if any(a >= b for a, b in zip(self.entries, self.entries[1:])):
                raise ValueError(f"strict multi-index must be increasing: {self.entries}")
        else:
            if any(a > b for a, b in zip(self.entries, self.entries[1:])):
                raise ValueError(f"weak multi-index must be non-decreasing: {self.entries}")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def zero_based(self) -> tuple[int, ...]:
        return tuple(i - 1 for i in self.entries)


def enumerate_strict(k: int, n: int) -> tuple[MultiIndex, ...]:
    """All strictly increasing k-tuples from [1..n], lexicographic: the shared
    `index_plan(k, n).strict`.

    Empty for k > n by convention.
    """
    return index_plan(k, n).strict


def enumerate_weak(k: int, n: int) -> tuple[MultiIndex, ...]:
    """All non-decreasing k-tuples from [1..n], lexicographic."""
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    return tuple(
        MultiIndex(c, "weak")
        for c in itertools.combinations_with_replacement(range(1, n + 1), k)
    )


def multiplicity(index: MultiIndex) -> int:
    """Product of factorials of entry multiplicities; 1 for strict indices."""
    if index.kind == "strict":
        return 1
    return prod(factorial(m) for m in Counter(index.entries).values())


def complement(index: MultiIndex, n: int) -> MultiIndex:
    """The strictly increasing tuple [1..n] minus the entries of `index`."""
    if index.kind != "strict":
        raise ValueError("complement requires a strict multi-index")
    if index.entries and (index.entries[0] < 1 or index.entries[-1] > n):
        raise ValueError(f"entries {index.entries} out of range [1..{n}]")
    present = set(index.entries)
    return MultiIndex(tuple(i for i in range(1, n + 1) if i not in present), "strict")


def index_weight(index: MultiIndex) -> int:
    """Sum of the entries; the exponent contribution in signed minor sums."""
    return sum(index.entries)


def permutations_of(k: int) -> tuple[tuple[int, ...], ...]:
    """All permutations of (0..k-1) in lexicographic one-line order."""
    return tuple(itertools.permutations(range(k)))


class IndexPlan:
    """Zero-based index arrays of Q_{k,n}, in lexicographic order, read-only.

    Each array is built the first time it is read and then kept.
    """

    def __init__(self, k: int, n: int):
        if k < 0 or n < 1:
            raise ValueError("need k >= 0 and n >= 1")
        self.k, self.n = k, n

    @cached_property
    def strict(self) -> tuple[MultiIndex, ...]:
        """The strict k-tuples from [1..n] as MultiIndex, in the order of `combos`."""
        return tuple(MultiIndex(c) for c in itertools.combinations(range(1, self.n + 1), self.k))

    @cached_property
    def combos(self) -> np.ndarray:
        """(C, k): the strict k-combinations of range(n); C = C(n, k), 0 for k > n."""
        rows = list(itertools.combinations(range(self.n), self.k))
        return _frozen(np.array(rows, dtype=np.intp).reshape(len(rows), self.k))

    @cached_property
    def complements(self) -> np.ndarray:
        """(C, n - k): row c is range(n) minus combos[c], increasing."""
        combos = self.combos
        keep = np.ones((len(combos), self.n), dtype=bool)
        keep[np.arange(len(combos))[:, None], combos] = False
        return _frozen(np.nonzero(keep)[1].reshape(len(combos), max(self.n - self.k, 0)))

    @cached_property
    def parity(self) -> np.ndarray:
        """(C,): the index weight (sum of 1-based entries) of each combination, mod 2."""
        return _frozen((self.combos.sum(axis=1) + self.k) % 2)

    @cached_property
    def perms(self) -> np.ndarray:
        """(k!, k): the permutations of range(k) in lexicographic one-line order."""
        count, k = factorial(self.k), self.k
        flat = itertools.chain.from_iterable(itertools.permutations(range(k)))
        return _frozen(np.fromiter(flat, dtype=np.intp, count=count * k).reshape(count, k))


@lru_cache
def index_plan(k: int, n: int) -> IndexPlan:
    """The shared IndexPlan of Q_{k,n}."""
    return IndexPlan(k, n)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # shared by every caller of the plan
    return a
