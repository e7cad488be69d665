"""Differential tests of the oracle's integer matrix kernels on hypothesis-drawn inputs.

The translate is checked against plain products of ``Fraction`` rows, the
monoid's dilation against the ``Fraction`` sum and the sympy reference
(``form_reference``), the leading and trailing minors of the matrix as
stored against sympy determinants, ``ScaledMatrix`` equality against
equality of its divided rows, and a character's value on a Borel element,
read off ``torus_exponents``, against a product of ``Fraction`` powers.  A form is read at rational points; its t-orders on
translated curves come from Cauchy-Binet and are checked against the
translate built in sympy.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sphemb.families import admissible_circular_parameters, build_family  # noqa: E402
from sphemb.realization import Curve, Pairing, ScaledMatrix, _translate  # noqa: E402
from sphemb.lattice import mat_mul  # noqa: E402
from sphemb.rootdata import TorusLattice  # noqa: E402
from test_families import _minor  # noqa: E402
from form_reference import act, curve_point, form_at, form_orders, form_values, weight_value  # noqa: E402
from point_reference import divided, scaled  # noqa: E402

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _integer_rows(rows, cols, zeros=False):
    entry = st.just(0) if zeros else st.integers(-9, 9) | st.just(0)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def scaled_matrices(draw, rows=None, cols=None):
    """A ``ScaledMatrix`` up to 4 x 4 built on its stored integers, which may hold zeros or be all zero."""
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 4)) if cols is None else cols
    integers = draw(_integer_rows(rows, cols, zeros=draw(st.integers(0, 4)) == 0))
    return ScaledMatrix(draw(st.sampled_from((1, 1, 2, 3, 6, 7))), (rows, cols), integers)


def _integer_square(size):
    return st.lists(st.lists(st.integers(-9, 9) | st.just(0), min_size=size, max_size=size), min_size=size, max_size=size)


def _rows(m):
    return [list(r) for r in m]


def _reference_translate(left, x_rows, right):
    """(L / l) x (R / r) as a product of ``Fraction`` rows."""
    (l, big_l), (r, big_r) = left, right
    lf = [[Fraction(a, l) for a in row] for row in big_l]
    rf = [[Fraction(a, r) for a in row] for row in big_r]
    return tuple(tuple(row) for row in mat_mul(mat_mul(lf, _rows(x_rows)), rf))


@_SETTINGS
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_translate_matches_reference_product(rows, cols, data):
    # Stored zeros, all-zero matrices, and 0-row and 0-column points, each
    # moved by integer forms with scales.
    x = data.draw(scaled_matrices(rows, cols))
    left = (data.draw(st.sampled_from((1, 2, 5))), data.draw(_integer_square(rows)))
    right = (data.draw(st.sampled_from((1, 3, 4))), data.draw(_integer_square(cols)))
    moved = _translate(left, x, right)
    want = _reference_translate(left, divided(x), right)
    assert divided(moved) == want
    assert moved.scale == left[0] * x.scale * right[0]
    assert moved.shape == (rows, cols) and len(moved.integers) == rows and all(len(r) == cols for r in moved.integers)


@pytest.mark.parametrize("params", [(2, 0, 3, 0, 0), (1, 2, 0, 1, 0), (0, 2, 2, 0, 1)])
def test_translate_on_empty_arrows_of_complexes(params):
    # complexes members with l, m or n = 0 carry arrows with no rows or no columns.
    real = build_family("complexes:l={},m={},n={},r={},s={}".format(*params)).realization
    g = real.group_sampler(random.Random(3))
    moved = real.act(g, real.base_point)
    for (s, t), x, y in zip(real.arrows, real.base_point, moved):
        want = _reference_translate(g[s][:2], divided(x), g[t][2:])
        assert divided(y) == want and y.shape == x.shape


@st.composite
def planted_minor_matrices(draw):
    """Matrices up to 5 x 5, possibly wide or tall, with a vanishing leading or trailing minor planted.

    Delta_k is made to vanish by setting the first k entries of row k - 1 to
    a multiple of row 0's (to 0 when k = 1); the trailing k x k minor likewise
    from the bottom row.  Entries are Fractions with mixed denominators.
    """
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.builds(Fraction, st.integers(-9, 9) | st.just(0), st.sampled_from((1, 1, 2, 3, 7)))
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    n = min(rows, cols)
    multiples = st.sampled_from((0, 1, -2, Fraction(1, 2)))
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
@given(planted_minor_matrices(), st.randoms(use_true_random=False))
def test_rational_minors_match_sympy(m, rnd):
    # Every k from 0, leading and trailing, read in a drawn order on one
    # stored matrix, including minors past a vanishing smaller one.
    rows, cols = len(m), len(m[0]) if m else 0
    x = scaled(m)
    reads = [(kind, k) for kind in ("leading", "trailing") for k in range(min(rows, cols) + 1)]
    rnd.shuffle(reads)
    for kind, k in reads:
        if kind == "leading":
            got, block = _minor(x, k), [r[:k] for r in m[:k]]
        else:
            got, block = _minor(x, k, True), [r[cols - k :] for r in m[rows - k :]]
        assert got == _sympy_det(block), (kind, k)


def test_minors_past_a_vanishing_pivot():
    # Delta_1 = 0 and Delta_2 = -1: each minor is the determinant of its own block.
    swap = [[0, 1], [1, 0]]
    assert [_minor(swap, k) for k in (0, 1, 2)] == [1, 0, -1]
    assert [_minor(swap, k, True) for k in (0, 1, 2)] == [1, 0, -1]
    m = scaled([[0, 1, 2], [1, 0, 3], [4, 5, Fraction(1, 2)]])
    assert [_minor(m, k) for k in (3, 2, 1)] == [Fraction(43, 2), -1, 0]
    assert [m.minor_ratio(k) for k in (1, 2, 3)] == [(0, 2), (-4, 4), (172, 8)]


def _sympy_block_det(x, k, trailing):
    """The top-left, or bottom-right, k x k minor of a rational ``ScaledMatrix`` by sympy, as a ``Fraction``."""
    rows, cols = x.shape
    block = [r[cols - k :] for r in divided(x)[rows - k :]] if trailing else [r[:k] for r in divided(x)[:k]]
    return _sympy_det(block)


@_SETTINGS
@given(st.one_of(planted_minor_matrices().map(scaled), scaled_matrices()))
def test_stored_pivots_match_sympy(x):
    # Wide and tall matrices, and planted vanishing leading and trailing minors.
    n = min(x.shape)
    for trailing in (False, True):
        ratios = [x.minor_ratio(k, trailing) for k in range(n + 1)]
        for k, (got, scale) in enumerate(ratios):
            assert type(got) is int and scale == x.scale**k
            assert Fraction(got, scale) == _sympy_block_det(x, k, trailing), (trailing, k)


@_SETTINGS
@given(st.integers(0, 4).flatmap(lambda m: st.tuples(scaled_matrices(m, m), scaled_matrices(m, m))), st.sampled_from((1, 2, 3, 6)))
def test_rational_dilation_matches_the_reference_sum(pair, divisor):
    # The integer dot product against the sympy reference and the Fraction sum.
    form = Pairing(0, 1, divisor)
    got = form.ratio(pair)
    assert type(got[0]) is int and got[1] == pair[0].scale * pair[1].scale * divisor
    assert Fraction(*got) == form_at(form, pair) == _reference_dilation(pair, divisor)


@st.composite
def matrix_pairs(draw):
    """Two ``ScaledMatrix``: a copy over another scale, a changed copy, an
    independent draw, or a draw of another width."""
    a = draw(scaled_matrices())
    rows, cols = a.shape
    how = draw(st.sampled_from(("rescaled", "changed", "independent", "reshaped")))
    if how == "independent":
        return a, draw(scaled_matrices())
    if how == "reshaped":
        return a, draw(scaled_matrices(rows=rows, cols=draw(st.integers(0, 4).filter(lambda c: c != cols))))
    k = draw(st.integers(1, 5))
    integers = [[k * c for c in r] for r in a.integers]
    if how == "changed" and rows and cols:
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        integers[i][j] += draw(st.sampled_from((1, -1, k)))
    return a, ScaledMatrix(k * a.scale, a.shape, integers)


@_SETTINGS
@given(matrix_pairs())
def test_equality_agrees_with_rows(pair):
    a, b = pair
    equal = divided(a) == divided(b)
    assert (a == b) is equal and (b == a) is equal and (a != b) is not equal
    # Nothing but a ScaledMatrix equals one, not even its own divided rows.
    assert a != divided(a) and divided(a) != a and a != a.integers


def test_points_are_unhashable_and_have_no_rows():
    # A ScaledMatrix holds lists, so it has no hash, and no view of itself as rows.
    x = ScaledMatrix(2, (2, 2), [[0, 0], [4, 6]])
    with pytest.raises(TypeError, match="unhashable"):
        hash(x)
    for name in ("of", "rows", "__len__", "__getitem__", "__iter__"):
        assert not hasattr(x, name), name
    assert repr(x) == "ScaledMatrix(2, (2, 2), [[0, 0], [4, 6]])"


def test_equality_checks_shapes():
    # zip alone would pair a prefix; unequal shapes never compare equal,
    # except that matrices with no rows are equal whatever their widths.
    wide = ScaledMatrix(1, (1, 2), [[1, 1]])
    narrow = ScaledMatrix(1, (1, 1), [[1]])
    assert wide != narrow and narrow != wide
    assert ScaledMatrix(1, (1, 2), [[0, 0]]) != ScaledMatrix(1, (1, 1), [[0]])
    assert ScaledMatrix(1, (2, 0), [[], []]) != ScaledMatrix(1, (1, 0), [[]])
    assert ScaledMatrix(1, (2, 1), [[1], [0]]) != ScaledMatrix(1, (1, 1), [[1]])
    empty = (ScaledMatrix(1, (0, 2), []), ScaledMatrix(3, (0, 5), []), ScaledMatrix(2, (0, 0), []))
    assert all(a == b for a in empty for b in empty) and all(a != () for a in empty)


_MONOIDS = {m: build_family(f"monoid:m={m}").realization for m in range(1, 5)}


def _reference_dilation(point, m):
    """sum a_ij b_ij / m on the ``Fraction`` rows of the two arrows of a rational point."""
    a, b = map(divided, point)
    return sum((x * y for ra, rb in zip(a, b) for x, y in zip(ra, rb)), Fraction(0)) / m


def _dilation(m):
    (d,) = [f for f in _MONOIDS[m].semi_invariants if f.name == "d"]
    return d.evaluate


@pytest.mark.parametrize("m", sorted(_MONOIDS))
def test_dilation_on_orbit_points_and_translates(m):
    # Rational orbit points by value; every boundary curve moved by group
    # draws, by the t-orders that Cauchy-Binet reads, against the translate
    # built in sympy.
    real, rng = _MONOIDS[m], random.Random(m)
    for _ in range(6):
        point = real.act(real.group_sampler(rng), real.base_point)
        got, want = _dilation(m)(point), _reference_dilation(point, m)
        assert got == want and type(got) is type(want), point
    for c in real.curves:
        curve = curve_point(real, c.label)
        draws = real.group_draws(3, m)
        want = [form_orders([_dilation(m)], act(real, real.element(g), curve))[0] for g in draws]
        (terms,) = real.sweep((_dilation(m),), (c.label,), draws)
        assert [[term and term[0] for term in t] for t in terms] == [want], c.label


def test_dilation_drops_cancelled_powers():
    # On the curve (diag(1, 1, t), diag(1, -1, 1)), t at a1's last diagonal
    # entry on the base point (I, diag(1, -1, 1)), the terms at t^0 cancel,
    # 1 - 1, on every group draw: P = L_a^T L_b and Q = R_a R_b^T are scalar
    # matrices on the monoid.  So d is t times a constant, of order 1 on every
    # draw: a group of terms whose sum vanishes is passed over.
    x, y = scaled([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), scaled([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    cancel = Curve("cancel", {(0, 2): 1}, (3, 3))
    real = dataclasses.replace(_MONOIDS[3], base_point=(x, y), membership=lambda pt: True, curves=(cancel,))
    assert real.monomial_entries("cancel", 0) == ((0, 0, 1, 0), (1, 1, 1, 0), (2, 2, 1, 1))
    curve = curve_point(real, "cancel")
    draws = real.group_draws(8, 0)
    for g in draws:
        (value,) = form_values([_dilation(3)], act(real, real.element(g), curve))
        assert list(value) == [1], value
    ((terms,),) = real.sweep((_dilation(3),), ("cancel",), draws)
    assert [term and term[0] for term in terms] == [1] * 8


@_SETTINGS
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), scaled_matrices(m, m), scaled_matrices(m, m))))
def test_dilation_matches_reference_sum(drawn):
    # Stored zeros and all-zero matrices.
    m, a, b = drawn
    got, want = _dilation(m)((a, b)), _reference_dilation((a, b), m)
    assert got == want and type(got) is type(want)


def _reference_weight(real, chi, g):
    """chi(g) as the product of each diagonal ratio, a ``Fraction``, to the power of chi's coordinate."""
    v = Fraction(1)
    for c, ((f, i), (h, j)) in zip(chi.coords, real.torus):
        if c:
            v *= Fraction(g[f][1][i][i] * g[h][0], g[f][0] * g[h][1][j][j]) ** c
    return v


@pytest.mark.parametrize(
    "spec",
    [f"monoid:m={m}" for m in range(1, 5)]
    + ["circular:m={},n={},r={},s={}".format(*p) for p in admissible_circular_parameters(3, 4)]
    + [f"determinantal:m={m},n={n},r={r}" for m in (2, 3, 4) for n in (2, 3, 4) for r in range(1, min(m, n))],
)
def test_weight_value_matches_fraction_powers(spec):
    # Seeded Borel draws against characters with a negative coordinate: the
    # exponents ``torus_exponents`` gives each diagonal entry, raised and
    # multiplied, read chi(b) as the torus table's ratios do.
    real = build_family(spec).realization
    lattice = TorusLattice(tuple(f"e_{k}" for k in range(len(real.torus))))
    rng = random.Random(spec)
    for _ in range(12):
        b = real.borel_sampler(rng)
        coords = [rng.randint(-3, 3) for _ in real.torus]
        coords[rng.randrange(len(coords))] = rng.randint(-3, -1)
        chi = lattice.character(coords)
        assert 0 not in real.torus_exponents(chi).values()
        assert weight_value(real, chi, b) == _reference_weight(real, chi, b)
