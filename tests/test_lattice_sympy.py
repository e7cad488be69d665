"""Differential tests of the exact linear algebra and the oracle's minors against sympy
and plain reference sums, on hypothesis-drawn matrices."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from sphemb.lattice import (  # noqa: E402
    IntegerMatrix,
    determinant,
    integer_inverse,
    rational_inverse,
    rational_rank,
    smith_normal_form,
)
from sphemb.rootdata import TorusLattice, pair  # noqa: E402
from point_reference import scaled  # noqa: E402

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def integer_matrices(draw, square=False):
    """Integer matrices up to 5 x 5: dense, sparse, rank-deficient or with torsion.

    A rank-deficient matrix is a product through fewer columns than its size;
    torsion comes from scaling rows by factors from 2 to 6.
    """
    rows = draw(st.integers(0, 5))
    cols = rows if square else draw(st.integers(0, 5))
    shape = draw(st.sampled_from(("dense", "sparse", "low-rank", "torsion")))
    if shape == "low-rank":
        k = draw(st.integers(0, max(min(rows, cols) - 1, 0)))
        u = draw(st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k), min_size=rows, max_size=rows))
        v = draw(st.lists(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols), min_size=k, max_size=k))
        return [[sum(u[i][t] * v[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]
    entry = st.integers(-9, 9) if shape != "sparse" else st.sampled_from((0, 0, 0, 1, -1, 2))
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if shape == "torsion":
        factors = draw(st.lists(st.integers(2, 6), min_size=rows, max_size=rows))
        m = [[f * e for e in r] for f, r in zip(factors, m)]
    return m


@st.composite
def rational_matrices(draw, square=False):
    """An integer matrix from ``integer_matrices`` with every entry divided by a small denominator."""
    m = draw(integer_matrices(square=square))
    cols = len(m[0]) if m else 0
    dens = draw(st.lists(st.lists(st.sampled_from((1, 1, 2, 3, 7)), min_size=cols, max_size=cols),
                         min_size=len(m), max_size=len(m)))
    return [[Fraction(e, d) for e, d in zip(r, dr)] for r, dr in zip(m, dens)]


def _sympy_matrix(m):
    cols = len(m[0]) if m else 0
    return sympy.Matrix(len(m), cols, [sympy.Rational(e.numerator, e.denominator) for r in m for e in r])


@_SETTINGS
@given(integer_matrices())
def test_invariant_factors_match_sympy(m):
    a = IntegerMatrix.from_rows(m, cols=len(m[0]) if m else 0)
    assert smith_normal_form(a).D.diagonal() == tuple(int(f) for f in invariant_factors(_sympy_matrix(m)))


@_SETTINGS
@given(integer_matrices(square=True))
def test_determinant_matches_sympy(m):
    assert determinant(IntegerMatrix.from_rows(m, cols=len(m))) == _sympy_matrix(m).det()


@st.composite
def rank_inputs(draw):
    """A matrix from ``rational_matrices`` with all-zero rows put in, or all of it zeroed.

    Rows mix ``Fraction`` and int entries, and a zero row is either kind.
    """
    m = draw(rational_matrices())
    cols = len(m[0]) if m else draw(st.integers(0, 5))
    if draw(st.booleans()):
        m = [[Fraction(0)] * cols for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 3))):
        zero = [draw(st.sampled_from((0, Fraction(0)))) for _ in range(cols)]
        m.insert(draw(st.integers(0, len(m))), zero)
    ints = draw(st.lists(st.booleans(), min_size=len(m), max_size=len(m)))
    return [[int(e) if i and e.denominator == 1 else e for e in r] for i, r in zip(ints, m)]


@_SETTINGS
@given(rank_inputs())
def test_rational_rank_matches_sympy(m):
    assert rational_rank(m) == _sympy_matrix(m).rank()


@_SETTINGS
@given(rational_matrices(square=True))
def test_rational_inverse_matches_sympy(m):
    n = len(m)
    expected = _sympy_matrix(m)
    if expected.det() == 0:
        with pytest.raises(ZeroDivisionError):
            rational_inverse(m)
        return
    want = expected.inv() if n else expected
    got = rational_inverse(m)
    assert got == [[Fraction(int(want[i, j].p), int(want[i, j].q)) for j in range(n)] for i in range(n)]


@_SETTINGS
@given(integer_matrices(square=True))
def test_integer_inverse_matches_sympy(m):
    n = len(m)
    expected = _sympy_matrix(m)
    got = integer_inverse(m)
    if expected.det() == 0:
        assert got is None
        return
    d, x = got
    assert d == abs(expected.det())
    want = expected.inv() if n else expected
    assert [[Fraction(e, d) for e in r] for r in x] == [
        [Fraction(int(want[i, j].p), int(want[i, j].q)) for j in range(n)] for i in range(n)
    ]


@_SETTINGS
@given(integer_matrices(), st.data())
def test_apply_transpose_matches_transpose_apply(m, data):
    a = IntegerMatrix.from_rows(m, cols=len(m[0]) if m else 0)
    v = data.draw(st.lists(st.sampled_from((0, 0, 0, 1, -1, 3, -7)), min_size=a.rows, max_size=a.rows))
    assert a.apply_transpose(v) == a.transpose().apply(v)


@_SETTINGS
@given(rational_matrices(), st.data())
def test_pair_matches_fraction_sum(m, data):
    # Each row of a drawn rational matrix is a covector: mixed denominators,
    # zero coordinates, and rank 0 when the matrix has no columns.
    rank = len(m[0]) if m else 0
    lattice = TorusLattice(tuple(f"x_{i}" for i in range(rank)))
    for row in m:
        coords = data.draw(st.lists(st.integers(-9, 9) | st.just(0), min_size=rank, max_size=rank))
        got = pair(lattice.character(coords), lattice.covector(row))
        assert type(got) is Fraction
        assert got == sum((c * x for c, x in zip(coords, row)), Fraction(0))


_FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 7)))


@st.composite
def minor_matrices(draw):
    """Square, taller and wider matrices up to 5 x 5 with all-zero rows.

    The entries of one matrix are integers or Fractions with mixed
    denominators.
    """
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = draw(st.sampled_from((st.integers(-9, 9) | st.just(0), _FRACTIONS | st.just(0))))
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        m[i] = [0] * cols
    return m


def _sympy_entry(e):
    return sympy.Rational(e.numerator, e.denominator)


def _sympy_det(block):
    return sympy.Matrix([[_sympy_entry(e) for e in r] for r in block]).det(method="berkowitz")


def _same(got, want) -> bool:
    return sympy.expand(_sympy_entry(got) - want) == 0


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(minor_matrices(), st.randoms(use_true_random=False))
def test_minors_match_sympy_determinants(m, rnd):
    # Every leading and trailing minor of one stored matrix, in a drawn order.
    rows, cols = len(m), len(m[0])
    x = scaled(m)
    reads = [(trailing, k) for trailing in (False, True) for k in range(1, min(rows, cols) + 1)]
    rnd.shuffle(reads)
    for trailing, k in reads:
        block = [r[cols - k :] for r in m[rows - k :]] if trailing else [r[:k] for r in m[:k]]
        assert _same(Fraction(*x.minor_ratio(k, trailing)), _sympy_det(block)), (trailing, k)
    if rows == cols:
        full = [Fraction(*scaled(m).minor_ratio(rows, trailing)) for trailing in (False, True)]
        assert all(_same(got, _sympy_det(m)) for got in full)
