from fractions import Fraction
from numbers import Rational

import pytest

from sphemb.laurent import LaurentPoly, NegativeExponentError, T


def test_arithmetic_and_order():
    p = 2 * T + T * T
    q = LaurentPoly.constant(3) - T
    assert (p + q).order() == 0
    assert (p * q).order() == 1
    assert (p - p).is_zero
    assert (p - p).order() is None
    assert (T**3).order() == 3
    assert (p / 2) * 2 == p


def _value_at_zero(p):
    """p at t = 0, its coefficient of t^0, read off its terms; ``NegativeExponentError`` if a negative power remains."""
    terms = dict(p.items())
    if any(e < 0 for e in terms):
        raise NegativeExponentError("no limit at t=0: negative powers of t present")
    return terms.get(0, Fraction(0))


def test_laurent_exponents_and_limits():
    inv = LaurentPoly.t_power(-1)
    with pytest.raises(NegativeExponentError):
        _value_at_zero(inv)
    with pytest.raises(NegativeExponentError):
        _value_at_zero(3 + LaurentPoly({-2: Fraction(1, 2)}))
    assert _value_at_zero(inv * T) == 1
    p = LaurentPoly({0: Fraction(5), 2: Fraction(1, 3)})
    assert _value_at_zero(p) == 5
    assert _value_at_zero(p / 3) == Fraction(5, 3) and _value_at_zero(T) == 0


def test_coercion_with_numbers():
    p = 1 + T
    assert p == T + 1
    assert Fraction(1, 2) * p == p / 2
    assert (p - 1) == T
    assert (1 - p) == -T
    assert LaurentPoly.constant(0).is_zero
    assert p != 1


def test_constants_hash_like_their_values():
    # Equal objects must hash alike, so a set holds one of each pair.
    for value in (2, 0, Fraction(1, 2)):
        poly = LaurentPoly.constant(value)
        assert poly == value and hash(poly) == hash(value)
        assert len({poly, value}) == 1
    assert len({LaurentPoly(), 0, LaurentPoly({3: 0})}) == 1
    assert hash(LaurentPoly({0: Fraction(-3, 4)})) == hash(Fraction(-3, 4))


def test_equal_polynomials_are_stored_alike():
    a = LaurentPoly({1: Fraction(2, 6), -2: Fraction(4, 6)})
    b = (2 * T + LaurentPoly.t_power(-2) * 4) / 6
    assert a == b and hash(a) == hash(b)
    assert (a._num, a._den) == (b._num, b._den) == ({1: 1, -2: 2}, 3)
    assert ((T / 3) * 3)._den == 1
    assert (T - T)._den == 1 and not (T - T)._num


def test_division_by_zero_raises():
    for p in (T, LaurentPoly.constant(Fraction(2, 3)), LaurentPoly()):
        with pytest.raises(ZeroDivisionError):
            p / 0
        with pytest.raises(ZeroDivisionError):
            p / Fraction(0)


class _ReferenceLaurent:
    """The Fraction-dict Laurent polynomial the integer representation replaced."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    clean[int(e)] = c
        object.__setattr__(self, "_coeffs", clean)

    @classmethod
    def constant(cls, c):
        return cls({0: Fraction(c)})

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, _ReferenceLaurent):
            return other
        if isinstance(other, Rational):
            return cls.constant(other)
        return NotImplemented

    def items(self):
        return self._coeffs.items()

    def order(self):
        return min(self._coeffs) if self._coeffs else None

    def value_at_zero(self):
        if any(e < 0 for e in self._coeffs):
            raise NegativeExponentError("no limit at t=0: negative powers of t present")
        return self._coeffs.get(0, Fraction(0))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return _ReferenceLaurent(out)

    def __neg__(self):
        return _ReferenceLaurent({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
        return _ReferenceLaurent(out)

    def __truediv__(self, other):
        return _ReferenceLaurent({e: c / Fraction(other) for e, c in self._coeffs.items()})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))


def _polys():
    st = pytest.importorskip("hypothesis.strategies")
    rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
    return st.dictionaries(st.integers(-4, 4), rationals | st.integers(-9, 9), max_size=5)


def _agree(got, want):
    assert isinstance(got, LaurentPoly)
    assert dict(got.items()) == dict(want.items())
    assert all(type(c) is Fraction for _, c in got.items())
    assert got.order() == want.order()
    assert got.is_zero == (not want._coeffs)
    try:
        zero = want.value_at_zero()
    except NegativeExponentError:
        with pytest.raises(NegativeExponentError):
            _value_at_zero(got)
    else:
        assert _value_at_zero(got) == zero and type(_value_at_zero(got)) is Fraction
    # the coefficients equal those of a polynomial built from them
    assert got == LaurentPoly(dict(want.items()))


def test_integer_laurent_matches_fraction_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    polys = _polys()
    scalars = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)) | st.integers(-5, 5)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polys, polys, scalars)
    def check(a, b, q):
        p1, p2 = LaurentPoly(a), LaurentPoly(b)
        r1, r2 = _ReferenceLaurent(a), _ReferenceLaurent(b)
        _agree(p1, r1)
        _agree(p1 + p2, r1 + r2)
        _agree(p1 - p2, r1 - r2)
        _agree(p1 * p2, r1 * r2)
        _agree(-p1, -r1)
        _agree(p1 + q, r1 + q)
        _agree(q + p1, r1 + q)
        _agree(q - p1, -r1 + q)
        _agree(p1 * q, r1 * q)
        _agree(q * p1, r1 * q)
        if q:
            _agree(p1 / q, r1 / q)
            _agree(p1 / -q, r1 / -q)
        else:
            with pytest.raises(ZeroDivisionError):
                p1 / q
        assert (p1 == p2) == (r1 == r2)
        assert (p1 == q) == (r1 == q)
        if p1 == p2:
            assert hash(p1) == hash(p2)
        # a constant hashes like its value; any other polynomial as the reference's equality classes
        if r1._coeffs.keys() <= {0}:
            assert hash(p1) == hash(r1.value_at_zero())
        assert (p1 * p2 == p2 * p1) and (p1 + p2) - p2 == p1

    check()
