"""Exact complex scalars: Gaussian integers, and Gaussian rationals after division.

Matrices come in two modes: floating (numpy complex128 arrays) and exact
(numpy object arrays whose entries are ExactComplex).  Exact mode is used
for Gaussian-integer cross-checks where formula agreement must be literal
equality, not a tolerance.  Each part of an ExactComplex is a Python int
while it is integral and a Fraction only when it is not.  `exact_matrix` is
the one checked conversion of exact input: every part is a numbers.Rational,
taken exactly, or an integral real, and nothing else.  Exact permanents,
determinants and the six closed forms are not evaluated on ExactComplex but
on int64 residues mod primes (`permanent.modular_values`), and each result
is built once from its parts.  The residue helpers at the end of this
module (`residues`, `product`, `matmul`, `divided`, and `total` with a
modulus) are the forms' arithmetic in both modes; without a modulus each is
the plain numpy operation.  ExactComplex arithmetic is left to the API and
JSON boundary, `dper`, the reference `per_naive`, and the interpolation
oracle's "gr" and callable functionals (its exact "per" is one lift).
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction
from operator import attrgetter

import numpy as np

_HASH_BITS = sys.hash_info.width
_HASH_MASK = (1 << _HASH_BITS) - 1
_RE, _IM = attrgetter("re"), attrgetter("im")


def _part(q):
    """q as a Python int when it is integral, else as a Fraction."""
    if type(q) is int:
        return q
    if type(q) is not Fraction:
        q = Fraction(q)
    # int() also turns a numpy integer, which Fraction keeps, into a Python int
    return int(q.numerator) if q.denominator == 1 else q


def _new(re, im):
    """An ExactComplex from two rational parts; two int parts are stored as is."""
    z = object.__new__(ExactComplex)
    if type(re) is int and type(im) is int:
        z.re = re
        z.im = im
    else:
        z.re = _part(re)
        z.im = _part(im)
    return z


class ExactComplex:
    """A complex number with rational parts: int while integral, else Fraction.

    Equal values compare and hash equal to the int, Fraction or complex of
    the same value.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _part(re)
        self.im = _part(im)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _new(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _new(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _new(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return _new(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Quotient; int parts when it is a Gaussian integer, else Fraction parts."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        norm = c * c + d * d
        if not norm:
            raise ZeroDivisionError("division by exact zero")
        re = a * c + b * d
        im = b * c - a * d
        if type(re) is int and type(im) is int and type(norm) is int:
            q_re, r_re = divmod(re, norm)
            q_im, r_im = divmod(im, norm)
            if not r_re and not r_im:
                return _new(q_re, q_im)
        return _new(Fraction(re, norm), Fraction(im, norm))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _new(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return _new(self.re, -self.im)

    # -- comparison / conversion --------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # CPython's complex hash, so that an equal int, Fraction or complex
        # hashes the same: hash(re) + imag * hash(im) in unsigned machine
        # arithmetic, read back as signed, with -1 (the error value) as -2.
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) & _HASH_MASK
        if h >> (_HASH_BITS - 1):
            h -= 1 << _HASH_BITS
        return -2 if h == -1 else h

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExactComplex({self.re!r}, {self.im!r})"


def _coerce(value):
    """value as an ExactComplex: a numbers.Rational (numpy integers too) exactly,
    an np.bool_ as 0 or 1 (as a bool is), a complex with integer parts;
    NotImplemented for anything else, floats too."""
    if isinstance(value, ExactComplex):
        return value
    if isinstance(value, numbers.Rational):
        return ExactComplex(value)
    if isinstance(value, np.bool_):
        return _new(int(value), 0)
    if isinstance(value, complex) and value.real.is_integer() and value.imag.is_integer():
        return _new(int(value.real), int(value.imag))
    return NotImplemented


def rational_parts(values):
    """Lists of the real and imaginary parts (int or Fraction) of the values.

    TypeError when a value is not a Gaussian rational, i.e. when ExactComplex
    arithmetic would not accept it.
    """
    if set(map(type, values)) - {ExactComplex}:
        coerced = [_coerce(z) for z in values]
        for z, c in zip(values, coerced):
            if c is NotImplemented:
                raise TypeError(f"not a Gaussian rational: {z!r}")
        values = coerced
    return list(map(_RE, values)), list(map(_IM, values))


def exact_from_parts(re, im) -> np.ndarray:
    """A 1-d object array of ExactComplex from equal-length sequences of int / Fraction parts."""
    return np.fromiter(map(_new, re, im), dtype=object, count=len(re))


def is_exact(matrix) -> bool:
    """True when the matrix is an exact-mode (object dtype) array."""
    return np.asarray(matrix).dtype == object


def exact_matrix(rows):
    """An exact-mode matrix from rows of ExactComplex, [re, im] pairs, complex or real numbers.

    A part is a numbers.Rational (numpy integers too) or a bool, taken exactly, or a real
    that is an integer (3.0, 1e200); any other part, or ragged rows, raise ValueError.
    """
    rows = [list(row) for row in rows]
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise ValueError(f"exact matrix rows must all have the same length, got lengths {sorted(widths)}")
    mat = np.empty((len(rows), widths.pop() if widths else 0), dtype=object)
    mat[...] = [[_exact_entry(entry) for entry in row] for row in rows]
    return mat


def _exact_entry(entry):
    """One checked entry of `exact_matrix` as an ExactComplex."""
    if isinstance(entry, ExactComplex):
        return entry
    if isinstance(entry, (list, tuple, np.ndarray)):
        re, im = entry
    elif isinstance(entry, numbers.Complex):
        re, im = entry.real, entry.imag
    else:
        re, im = entry, 0
    return _new(_exact_part(re), _exact_part(im))


def _exact_part(x):
    """x as a rational part: a numbers.Rational as it is, an integral real or np.bool_ as an int."""
    if isinstance(x, np.bool_):  # 0 or 1, as a Python bool is
        return int(x)
    if isinstance(x, numbers.Rational):
        return x
    if isinstance(x, numbers.Real) and math.isfinite(x) and x == int(x):
        return int(x)
    raise ValueError(f"exact mode requires integer (Gaussian-integer) entries, got {x!r}")


def to_complex(matrix) -> np.ndarray:
    """Convert either mode to a complex128 array."""
    return np.asarray(matrix).astype(complex)


def zero_like(matrix):
    """The scalar zero in the mode of `matrix`."""
    return ExactComplex(0) if is_exact(matrix) else complex(0.0)


def total(values, mod=None):
    """Sum of an array of evaluator results, as a scalar in its mode; with mod, of each image."""
    values = np.asarray(values)
    if mod is not None:
        return residues(residues(values, mod).reshape(*mod.shape, -1).sum(axis=-1), mod)
    if is_exact(values):
        return sum(values.ravel().tolist(), ExactComplex(0))
    return complex(values.sum())


def total_in_order(values, mod=None):
    """Sum of an array added left to right in flat order, as a scalar in its mode.

    A floating result is bit for bit that of the loop `acc = 0; acc = acc + v`
    over the values (`total` sums pairwise instead).  With mod, as `total`.
    """
    if mod is not None:
        return total(values, mod)
    values = np.asarray(values).ravel()
    return np.add.accumulate(np.concatenate([np.zeros(1, values.dtype), values]))[-1].item()


# -- residue images -----------------------------------------------------------


def moduli(mod, shape) -> np.ndarray:
    """The prime of each entry of `shape`.

    A stack of residues, int64 images below 2^31 of exact values mod primes,
    comes with mod: the prime of each entry of its leading axes shape[:mod.ndim],
    which holds along the rest.
    """
    return np.repeat(mod.ravel(), math.prod(shape[mod.ndim:])).reshape(shape)


def residues(x, mod):
    """x mod the prime of each of its leading entries, in [0, p); x itself without mod."""
    return x if mod is None else x % _leading(mod, np.ndim(x))


def _leading(a, ndim: int) -> np.ndarray:
    """a with trailing axes of length 1 up to ndim, so that it broadcasts along them."""
    return a.reshape(a.shape + (1,) * (ndim - a.ndim))


def product(a, b, mod=None):
    """a * b elementwise, reduced mod p.

    np.multiply never writes into an operand that is a temporary, as the
    operator may (numpy's temporary elision), which can round a complex
    product differently; so a floating product depends on its inputs only.
    Residues below 2^31 keep every product below 2^62.
    """
    return residues(np.multiply(a, b), mod)


def matmul(a, b, mod=None):
    """a @ b, reduced mod p.

    With mod, b is split into its high and low 16 bits, so that each product
    with a residue below 2^31 stays below 2^47 and a sum of fewer than 2^15
    of them below 2^63.
    """
    if mod is None:
        return np.matmul(a, b)
    high = residues(np.matmul(a, b >> 16), mod)
    return residues((high << 16) + np.matmul(a, b & 0xFFFF), mod)


def divided(x, q: int, mod=None):
    """x / q for a nonzero integer q; with mod, x times the inverse of q mod p."""
    if mod is None:
        return x / q
    inverse = np.array([pow(q, -1, p) for p in mod.ravel().tolist()]).reshape(mod.shape)
    return residues(residues(x, mod) * _leading(inverse, np.ndim(x)), mod)


def require_square(A):
    """A as an array, after checking that it is a square matrix."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"square matrix required, got shape {A.shape}")
    return A


def require_square_stack(mats):
    """mats as an array, after checking that it is an (..., k, k) stack of square matrices."""
    mats = np.asarray(mats)
    if mats.ndim < 2 or mats.shape[-1] != mats.shape[-2]:
        raise ValueError(f"stack of square matrices required, got shape {mats.shape}")
    return mats


def require_directions(A, directions):
    """(A, directions) as arrays in one mode, after checking their shapes.

    A must be square and every direction of A's shape.  The job is exact when
    any operand is an object array: integer operands are then made exact with
    `exact_matrix`, and a floating operand raises a ValueError naming it.
    Otherwise the operands are returned as given, as arrays.
    """
    A = require_square(A)
    operands = [A, *map(np.asarray, directions)]
    for p, X in enumerate(operands[1:], 1):
        if X.shape != A.shape:
            raise ValueError(f"direction {p} has shape {X.shape}, expected {A.shape}")
    if any(map(is_exact, operands)):
        for p, X in enumerate(operands):
            if X.dtype.kind in "biu":
                operands[p] = exact_matrix(X.tolist())
            elif X.dtype != object:
                name = f"direction {p}" if p else "A"
                raise ValueError(f"exact mode needs exact or integer operands; {name} is {X.dtype}")
    return operands[0], tuple(operands[1:])
