"""Differential tests of the oracle's integer matrix kernels on hypothesis-drawn inputs.

The translate is checked against plain products of ``LaurentPoly`` and
``Fraction`` rows, the minors and ``leading_principal_minors`` against sympy
determinants, and ``ScaledMatrix`` equality against equality of its divided
rows.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sphemb.families import ScaledMatrix, _translate, complexes_realization, leading_minor, trailing_minor  # noqa: E402
from sphemb.lattice import leading_principal_minors, mat_mul  # noqa: E402

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def scaled_matrices(draw, rows=None, cols=None, laurent=None):
    """A ``ScaledMatrix`` up to 4 x 4 built on its stored form.

    Coefficients may be stored zeros.  A Laurent matrix has exponents from
    -2 to 3; a rational one stores exponent 0 only.
    """
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 4)) if cols is None else cols
    laurent = draw(st.booleans()) if laurent is None else laurent
    exponents = st.integers(-2, 3) if laurent else st.just(0)
    entry = st.just({}) | st.dictionaries(exponents, st.integers(-9, 9), max_size=3)
    polys = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return ScaledMatrix(draw(st.sampled_from((1, 1, 2, 3, 6, 7))), polys, laurent)


def _integer_square(size):
    return st.lists(st.lists(st.integers(-9, 9) | st.just(0), min_size=size, max_size=size), min_size=size, max_size=size)


def _rows(m):
    return [list(r) for r in m]


def _reference_translate(left, x_rows, right):
    """(L / l) x (R / r) as a product of ``Fraction`` and ``LaurentPoly`` rows."""
    (l, big_l), (r, big_r) = left, right
    lf = [[Fraction(a, l) for a in row] for row in big_l]
    rf = [[Fraction(a, r) for a in row] for row in big_r]
    return tuple(tuple(row) for row in mat_mul(mat_mul(lf, _rows(x_rows)), rf))


def _types(m):
    return [[type(e) for e in r] for r in m]


@_SETTINGS
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_translate_matches_reference_product(rows, cols, data):
    # Negative exponents, stored zero coefficients, all-zero layers, and
    # 0-row and 0-column points, each moved by integer forms with scales.
    x = data.draw(scaled_matrices(rows, cols))
    left = (data.draw(st.sampled_from((1, 2, 5))), data.draw(_integer_square(rows)))
    right = (data.draw(st.sampled_from((1, 3, 4))), data.draw(_integer_square(cols)))
    moved = _translate(left, x, right)
    want = _reference_translate(left, x.rows, right)
    assert moved.rows == want and _types(moved.rows) == _types(want)
    assert moved.scale == left[0] * x.scale * right[0] and moved.laurent == x.laurent
    assert len(moved.polys) == rows and all(len(r) == cols for r in moved.polys)
    # Only nonzero coefficients are stored, and a rational translate keeps exponent 0 only.
    assert all(c for r in moved.polys for p in r for c in p.values())
    assert x.laurent or all(p.keys() <= {0} for r in moved.polys for p in r)


@pytest.mark.parametrize("params", [(2, 0, 3, 0, 0), (1, 2, 0, 1, 0), (0, 2, 2, 0, 1)])
def test_translate_on_empty_arrows_of_complexes(params):
    # complexes members with l, m or n = 0 carry arrows with no rows or no columns.
    real = complexes_realization(*params)
    g = real.group_sampler(random.Random(3))
    moved = real.act(g, real.base_point)
    for (s, t), x, y in zip(real.arrows, real.base_point, moved):
        want = _reference_translate(g[s][:2], x.rows, g[t][2:])
        assert y.rows == want and len(y.polys) == len(x.polys)


@st.composite
def planted_minor_matrices(draw, integer=False):
    """Matrices up to 5 x 5, possibly wide or tall, with a vanishing leading or trailing minor planted.

    Delta_k is made to vanish by setting the first k entries of row k - 1 to
    a multiple of row 0's (to 0 when k = 1); the trailing k x k minor likewise
    from the bottom row.  Entries are integers, or Fractions with mixed
    denominators.
    """
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.integers(-9, 9) | st.just(0)
    if not integer:
        entry = st.builds(Fraction, entry, st.sampled_from((1, 1, 2, 3, 7)))
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    n = min(rows, cols)
    multiples = st.sampled_from((0, 1, -2, 3) if integer else (0, 1, -2, Fraction(1, 2)))
    if n and draw(st.booleans()):
        k, c = draw(st.integers(1, n)), draw(multiples)
        m[k - 1][:k] = [c * e for e in m[0][:k]] if k > 1 else [0]
    if n and draw(st.booleans()):
        k, c = draw(st.integers(1, n)), draw(multiples)
        m[rows - k][cols - k :] = [c * e for e in m[rows - 1][cols - k :]] if k > 1 else [0]
    return m


def _sympy_det(block) -> Fraction:
    det = sympy.Matrix(len(block), len(block), [sympy.Rational(e.numerator, e.denominator) for r in block for e in r]).det()
    return Fraction(int(det.p), int(det.q))


@_SETTINGS
@given(planted_minor_matrices(integer=True))
def test_leading_principal_minors_match_sympy(m):
    n = min(len(m), len(m[0]) if m else 0)
    want = [_sympy_det([r[:k] for r in m[:k]]) for k in range(1, n + 1)]
    stop = next((k + 1 for k, d in enumerate(want) if d == 0), n)
    copy = _rows(m)
    assert leading_principal_minors(m) == want[:stop]
    assert m == copy


@_SETTINGS
@given(planted_minor_matrices(), st.randoms(use_true_random=False))
def test_rational_minors_match_sympy(m, rnd):
    # Every k from 0, leading and trailing, read in a drawn order on one
    # stored matrix, including minors past a vanishing pivot.
    rows, cols = len(m), len(m[0]) if m else 0
    scaled = ScaledMatrix.of(m)
    reads = [(kind, k) for kind in ("leading", "trailing") for k in range(min(rows, cols) + 1)]
    rnd.shuffle(reads)
    for kind, k in reads:
        if kind == "leading":
            got, block = leading_minor(scaled, k), [r[:k] for r in m[:k]]
        else:
            got, block = trailing_minor(scaled, k), [r[cols - k :] for r in m[rows - k :]]
        assert type(got) is Fraction and got == _sympy_det(block), (kind, k)
    assert scaled._rows is None


def test_minors_past_a_vanishing_pivot():
    # Delta_1 = 0 ends the elimination; Delta_2 comes from the expansion.
    swap = [[0, 1], [1, 0]]
    assert leading_principal_minors(swap) == [0]
    assert [leading_minor(swap, k) for k in (0, 1, 2)] == [1, 0, -1]
    assert [trailing_minor(swap, k) for k in (0, 1, 2)] == [1, 0, -1]
    m = ScaledMatrix.of([[0, 1, 2], [1, 0, 3], [4, 5, Fraction(1, 2)]])
    assert [leading_minor(m, k) for k in (3, 2, 1)] == [Fraction(43, 2), -1, 0]
    assert [type(leading_minor(m, k)) for k in (1, 2, 3)] == [Fraction] * 3


@st.composite
def matrix_pairs(draw):
    """Two ``ScaledMatrix``: a copy over another scale with stored zeros moved, a
    changed copy, constants under the other entry type, or an independent draw."""
    a = draw(scaled_matrices())
    how = draw(st.sampled_from(("rescaled", "changed", "retyped", "independent")))
    if how == "independent":
        return a, draw(scaled_matrices())
    if how == "retyped":
        constants = [[{0: p.get(0, 0)} for p in r] for r in a.polys]
        laurent = draw(st.booleans())
        return ScaledMatrix(a.scale, constants, laurent), ScaledMatrix(a.scale, constants, not laurent)
    k = draw(st.integers(1, 5))
    exponents = st.integers(-2, 3) if a.laurent else st.just(0)
    polys = []
    for r in a.polys:
        row = []
        for p in r:
            q = {e: k * c for e, c in p.items() if c or draw(st.booleans())}
            if draw(st.integers(0, 3)) == 0:
                q.setdefault(draw(exponents), 0)
            row.append(q)
        polys.append(row)
    if how == "changed" and polys and polys[0]:
        i, j = draw(st.integers(0, len(polys) - 1)), draw(st.integers(0, len(polys[0]) - 1))
        e = draw(exponents)
        polys[i][j][e] = polys[i][j].get(e, 0) + draw(st.sampled_from((1, -1, k)))
    return a, ScaledMatrix(k * a.scale, polys, a.laurent)


@_SETTINGS
@given(matrix_pairs())
def test_equality_agrees_with_rows(pair):
    a, b = pair
    equal = a.rows == b.rows
    assert (a == b) is equal and (b == a) is equal and (a != b) is not equal
    if equal:
        assert hash(a) == hash(b)
    # Against plain tuples, equality and hash read the divided rows.
    assert (a == b.rows) is equal and (b.rows == a) is equal and (a != b.rows) is not equal
    assert hash(a) == hash(a.rows) and a == a.rows


def test_equality_checks_shapes():
    # zip alone would pair a prefix; unequal shapes never compare equal.
    one = {0: 1}
    wide = ScaledMatrix(1, [[one, one]], False)
    assert wide != ScaledMatrix(1, [[one]], False) and ScaledMatrix(1, [[one]], False) != wide
    assert ScaledMatrix(1, [[], []], False) != ScaledMatrix(1, [[]], False)
    assert ScaledMatrix(1, [[one], [{}]], True) != ScaledMatrix(1, [[one]], True)
    assert ScaledMatrix(1, [], False) == ScaledMatrix(3, [], True) == ()
