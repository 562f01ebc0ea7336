"""Exact scalar arithmetic: rationals and first-order jets.

A rational scalar is an ``int | Fraction``: an ``int`` whenever it is
integral, a reduced stdlib ``fractions.Fraction`` otherwise (``exact`` puts a
value in that form, and the package re-exports ``Fraction`` as ``Rational``).
Python's number tower keeps every sum and product of the two exact, and
those of ints stay ints, so integral tables run on int arithmetic; only
division needs care, since ``int / int`` is a float.

``JetScalar`` implements the ring Q[t_1..t_k]/(t_i t_j): a rational value
part plus a sparse dict of slopes, one per direction, where every product of
two slopes vanishes, so first-order computations are ring identities rather
than limits.  With k = 1 it is the dual numbers Q[t]/(t^2), the coefficients
of a first-order deformation a + b t, with the slope b in direction 0.
Running a computation with each unknown set to its own t_i reads off, in the
slopes of the result, the coefficients of every unknown in one pass.

Also here: parsing/formatting of rational literals ("p/q" or "p") and the
generalized binomial coefficient C(m, i) for arbitrary integer m, which the
mode identities need for negative m.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def exact(value) -> int | Fraction:
    """``value`` as a rational scalar: an int when integral, else a Fraction.

    Accepts whatever ``Fraction`` accepts; a bool becomes 0 or 1.
    """
    if type(value) is int:
        return value
    q = value if isinstance(value, Fraction) else Fraction(value)
    return q.numerator if q.denominator == 1 else q


def parse_rational(text: str) -> int | Fraction:
    """Parse "p/q" or "p" into an exact scalar; reject anything else (floats, exponents)."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return exact(Fraction(int(num), int(den)))
    return int(text)


def format_rational(value: int | Fraction) -> str:
    """Render an exact scalar as "p/q", or "p" when it is integral."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def binom(m: int, i: int) -> int:
    """Generalized binomial coefficient C(m, i) for integer m (m may be negative).

    For i < 0 the value is 0.  The falling factorial m(m-1)...(m-i+1) is always
    divisible by i!, so the result is an exact integer.
    """
    if i < 0:
        return 0
    if i == 0:
        return 1
    if m >= 0:
        return math.comb(m, i)
    num = 1
    for k in range(i):
        num *= m - k
    return num // math.factorial(i)


def inv_factorial(j: int) -> int | Fraction:
    """1 / j! as an exact scalar (the int 1 for j = 0 and 1)."""
    return exact(Fraction(1, math.factorial(j)))


class JetScalar:
    """An element a + sum_i b_i t_i of Q[t_1..t_k]/(t_i t_j for all i, j).

    ``value`` is the rational a and ``slopes`` the sparse dict {i: b_i}, all
    ``int | Fraction``; the constructor puts them in ``exact`` form, and
    arithmetic on integral parts stays in ``int``.  ``slopes`` never stores a
    zero, so an element is falsy exactly when it is zero.
    Products of two slope parts vanish, t_i t_i included.  Mixes freely with
    int and Fraction (they embed with no slopes).  It has no division: no
    checker path divides a coefficient.  Instances are never mutated, so they
    share slope dicts.
    """

    __slots__ = ("value", "slopes")

    def __init__(self, value=0, slopes=None):
        self.value = exact(value)
        self.slopes = {i: exact(c) for i, c in (slopes or {}).items() if c}

    @classmethod
    def _make(cls, value, slopes: dict) -> "JetScalar":
        """Trusted constructor: ``slopes`` already holds nonzero rationals."""
        out = object.__new__(cls)
        out.value = value
        out.slopes = slopes
        return out

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, JetScalar):
            slopes = self.slopes
            if other.slopes:
                slopes = dict(slopes)
                for i, c in other.slopes.items():
                    s = slopes.get(i, 0) + c
                    if s:
                        slopes[i] = s
                    else:
                        del slopes[i]
            return JetScalar._make(self.value + other.value, slopes)
        if isinstance(other, (int, Fraction)):
            return JetScalar._make(self.value + other, self.slopes)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (JetScalar, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, JetScalar):
            b, more = other.value, other.slopes
        elif isinstance(other, (int, Fraction)):
            b, more = other, None
        else:
            return NotImplemented
        a = self.value
        slopes = {}
        if b:
            for i, c in self.slopes.items():
                slopes[i] = b * c
        if a and more:
            for i, c in more.items():
                s = slopes.get(i, 0) + a * c
                if s:
                    slopes[i] = s
                else:
                    del slopes[i]
        return JetScalar._make(a * b, slopes)

    __rmul__ = __mul__

    def __neg__(self):
        return JetScalar._make(-self.value, {i: -c for i, c in self.slopes.items()})

    # -- comparisons / hashing ----------------------------------------------

    def __bool__(self):
        return bool(self.value) or bool(self.slopes)

    def __eq__(self, other):
        if isinstance(other, JetScalar):
            return self.value == other.value and self.slopes == other.slopes
        if isinstance(other, (int, Fraction)):
            return not self.slopes and self.value == other
        return NotImplemented

    def __hash__(self):
        if not self.slopes:
            return hash(self.value)
        return hash((self.value, frozenset(self.slopes.items())))

    def __repr__(self):
        return f"JetScalar({self.value!r}, {self.slopes!r})"

    def __str__(self):
        """a + b t as "a + b*t" or "a - |b|*t", b the t_0 slope; else the repr."""
        if self.slopes.keys() - {0}:
            return repr(self)
        slope = self.slopes.get(0, 0)
        sign = "-" if slope < 0 else "+"
        return f"{format_rational(self.value)} {sign} {format_rational(abs(slope))}*t"


def value_part(scalar) -> int | Fraction:
    """Rational value part of a rational or a jet."""
    return scalar.value if isinstance(scalar, JetScalar) else exact(scalar)
