"""Exact complex scalars with rational real/imaginary parts.

Matrices come in two modes: floating (numpy complex128 arrays) and exact
(numpy object arrays whose entries are ExactComplex).  Exact mode is used
for Gaussian-integer cross-checks where formula agreement must be literal
equality, not a tolerance.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_RATIONAL = (int, Fraction)


class ExactComplex:
    """A complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactComplex(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return ExactComplex(self.re, -self.im)

    # -- comparison / conversion --------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExactComplex({self.re!r}, {self.im!r})"


def _coerce(value):
    if isinstance(value, ExactComplex):
        return value
    if isinstance(value, _RATIONAL):
        return ExactComplex(value)
    if isinstance(value, complex):
        re, im = value.real, value.imag
        if re == int(re) and im == int(im):
            return ExactComplex(int(re), int(im))
        return NotImplemented
    return NotImplemented


def is_exact(matrix) -> bool:
    """True when the matrix is an exact-mode (object dtype) array."""
    return np.asarray(matrix).dtype == object


def exact_matrix(rows):
    """Build an exact-mode matrix from nested ints / (re, im) pairs / complex."""
    data = []
    for row in rows:
        out = []
        for entry in row:
            if isinstance(entry, ExactComplex):
                out.append(entry)
            elif isinstance(entry, (list, tuple)):
                re, im = entry
                out.append(ExactComplex(_as_rational(re), _as_rational(im)))
            elif isinstance(entry, complex):
                out.append(ExactComplex(_as_rational(entry.real), _as_rational(entry.imag)))
            else:
                out.append(ExactComplex(_as_rational(entry)))
        data.append(out)
    mat = np.empty((len(data), len(data[0]) if data else 0), dtype=object)
    for i, row in enumerate(data):
        for j, entry in enumerate(row):
            mat[i, j] = entry
    return mat


def _as_rational(x):
    if isinstance(x, _RATIONAL):
        return x
    f = float(x)
    if f != int(f):
        raise ValueError(f"exact mode requires integer (Gaussian-integer) entries, got {x!r}")
    return int(f)


def to_complex(matrix) -> np.ndarray:
    """Convert either mode to a complex128 array."""
    return np.asarray(matrix).astype(complex)


def exact_zeros(shape):
    """Object array of exact zeros."""
    return np.full(shape, ExactComplex(0), dtype=object)


def zeros_like_mode(matrix, shape):
    """Zero matrix of the given shape, in the same mode as `matrix`."""
    if is_exact(matrix):
        return exact_zeros(shape)
    return np.zeros(shape, dtype=complex)


def zero_like(matrix):
    """The scalar zero in the mode of `matrix`."""
    return ExactComplex(0) if is_exact(matrix) else complex(0.0)


def total(values):
    """Sum of an array of evaluator results, as a scalar in its mode."""
    values = np.asarray(values)
    if is_exact(values):
        return sum(values.ravel().tolist(), ExactComplex(0))
    return complex(values.sum())


def map_matrices(evaluate, mats):
    """Object array of evaluate(M) for every matrix M of an exact stack."""
    out = np.empty(mats.shape[:-2], dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = evaluate(mats[idx])
    return out


def require_square(A):
    """A as an array, after checking that it is a square matrix."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"square matrix required, got shape {A.shape}")
    return A
