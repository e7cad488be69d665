"""Univariate Laurent polynomials over exact rationals.

The oracle substitutes curves into polynomial functions of matrix entries, so
the entries of translated curve points live in Q[t, t^-1].  The t-adic order
of a nonzero element is the smallest exponent with nonzero coefficient.

A polynomial is stored as an integer numerator, an {exponent: nonzero int}
dict, over one positive denominator coprime to the numerator's content (the
gcd of its coefficients); zero is the empty numerator over 1.  Equal
polynomials are therefore stored alike, arithmetic runs on integers, and the
order is read off the numerator.  ``items()`` still yields ``Fraction``
coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational


class NegativeExponentError(ValueError):
    """A limit at t=0 was requested but negative powers of t remain."""


class LaurentPoly:
    """Immutable Laurent polynomial in one variable t with rational coefficients."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=None):
        terms = [(int(e), Fraction(c)) for e, c in coeffs.items()] if coeffs else []
        # The lcm of reduced denominators leaves the numerator's content coprime to it.
        den = lcm(*(c.denominator for _, c in terms)) if terms else 1
        self._num = {e: c.numerator * (den // c.denominator) for e, c in terms if c}
        self._den = den if self._num else 1

    @classmethod
    def _from_integers(cls, num: dict[int, int], den: int) -> "LaurentPoly":
        """num / den for an {exponent: nonzero int} dict and den > 0, reduced here."""
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
        p = object.__new__(cls)
        p._num = num
        p._den = den
        return p

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        c = Fraction(c)
        return cls._from_integers({0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def t_power(cls, k: int) -> "LaurentPoly":
        return cls._from_integers({int(k): 1}, 1)

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, Rational):
            return cls.constant(other)
        return NotImplemented

    def items(self):
        return {e: Fraction(c, self._den) for e, c in self._num.items()}.items()

    @property
    def is_zero(self) -> bool:
        return not self._num

    def order(self) -> int | None:
        """Smallest exponent with nonzero coefficient; None for the zero polynomial."""
        if not self._num:
            return None
        return min(self._num)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # Over the common denominator d1 * (d2 / g): scale self by d2 / g, other by d1 / g.
        g = gcd(self._den, other._den)
        a, b = other._den // g, self._den // g
        out = {e: a * c for e, c in self._num.items()}
        for e, c in other._num.items():
            out[e] = out.get(e, 0) + b * c
        return LaurentPoly._from_integers({e: c for e, c in out.items() if c}, self._den * a)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._from_integers({e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._num.items():
            for e2, c2 in other._num.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly._from_integers({e: c for e, c in out.items() if c}, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Rational):
            return NotImplemented
        q = Fraction(other)
        if not q:
            raise ZeroDivisionError("LaurentPoly division by zero")
        sign = 1 if q > 0 else -1
        return LaurentPoly._from_integers(
            {e: sign * c * q.denominator for e, c in self._num.items()}, self._den * abs(q.numerator)
        )

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers only via explicit t_power")
        out = LaurentPoly.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        # A constant equals its value, so it must hash like it.
        if self._num.keys() <= {0}:
            return hash(Fraction(self._num.get(0, 0), self._den))
        return hash((frozenset(self._num.items()), self._den))

    def __repr__(self):
        if not self._num:
            return "LaurentPoly(0)"
        terms = " + ".join(f"{c}*t^{e}" for e, c in sorted(self.items()))
        return f"LaurentPoly({terms})"


T = LaurentPoly.t_power(1)
