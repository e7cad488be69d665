"""Independent references for the semi-invariant forms, read in sympy.

A point is read here one arrow at a time as (X, low, scale), for the matrix
t^low X / scale with X over Z[t], or over Z for a rational point, whose
``ScaledMatrix`` integers and scale are read as they are.  A curve lambda(t) . x0 is built from the base point
x0 and the curve's cocharacter as diag(t^lambda_s) x0 diag(t^-lambda_t) at
each arrow (s, t), both diagonals shifted to nonnegative powers, and is
moved by a group element's units (``act``).  A ``Minor``'s value is a sympy determinant over
Z[t] of its block, and a ``Pairing``'s the sum of its two arrows' entrywise
products.  Nothing here reads the package's minor kernels
(``ScaledMatrix.minor_ratio``, ``MatrixRealization.form_orders``), its
translate (``act``) or its curve entries (``monomial_entries``).  sympy is
imported on first use, so a test that reads a form here is skipped where
sympy is missing.  ``weight_value`` reads a character's value on a Borel
element off the realization's torus table (``torus_exponents``) in
``Fraction`` powers.
"""

from fractions import Fraction

import pytest

from sphemb.realization import Pairing


def _ring():
    pytest.importorskip("sympy")
    from sympy import ZZ, Symbol

    return ZZ[Symbol("t")]


def _terms(value, domain) -> list:
    """((e,), c) per term c t^e of an element of Z[t], or of Z as its t^0 term."""
    return value.terms() if domain.is_PolynomialRing else [((0,), value)]


def _integer_matrix(x, ring):
    """The stored integers of the ``ScaledMatrix`` x in ``ring``, and its scale."""
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix([[ring(c) for c in r] for r in x.integers], x.shape, ring), x.scale


def rational_point(point) -> tuple:
    """A rational point, one matrix per arrow, as (X, 0, scale) per arrow with X over Z."""
    pytest.importorskip("sympy")
    from sympy import ZZ

    return tuple((x, 0, q) for x, q in (_integer_matrix(y, ZZ) for y in point))


def curve_point(real, curve_label) -> tuple:
    """The labelled curve lambda(t) . x0 of ``real`` as (X, low, scale) per arrow."""
    from sympy.polys.matrices import DomainMatrix

    ring = _ring()
    (t,) = ring.gens
    lam = dict(real.curve(curve_label).cocharacter)
    point = []
    for (s, u), x0 in zip(real.arrows, real.base_point):
        x, scale = _integer_matrix(x0, ring)
        rows, cols = x.shape
        left, right = [lam.get((s, i), 0) for i in range(rows)], [-lam.get((u, j), 0) for j in range(cols)]
        # t^-low diag(t^lambda_s) and diag(t^-lambda_t) t^-high have no negative power, for their least powers low and high.
        low, high = min(left, default=0), min(right, default=0)
        left = DomainMatrix.diag([t ** (e - low) for e in left], ring, (rows, rows))
        right = DomainMatrix.diag([t ** (e - high) for e in right], ring, (cols, cols))
        point.append((left * x * right, low + high, scale))
    return tuple(point)


def act(real, g, point) -> tuple:
    """g . point for a tuple of units g and a point given as (X, low, scale) per arrow: (L / l) X (R / r) at each
    arrow (s, t), for L / l the factor g_s and R / r the inverse of g_t."""
    from sympy.polys.matrices import DomainMatrix

    moved = []
    for (s, u), (x, low, scale) in zip(real.arrows, point):
        (l, big_l, _, _), (_, _, r, big_r) = g[s], g[u]
        (rows, cols), ring = x.shape, x.domain
        big_l = DomainMatrix([[ring(e) for e in row] for row in big_l], (rows, rows), ring).to_sparse()
        big_r = DomainMatrix([[ring(e) for e in row] for row in big_r], (cols, cols), ring).to_sparse()
        moved.append((big_l * x.to_sparse() * big_r, low, l * scale * r))
    return tuple(moved)


def _minor(form, arrow) -> dict[int, int]:
    """scale^k times the minor ``form`` of the arrow (X, low, scale), as {power of t: int}, by one determinant of X's block."""
    x, low, _ = arrow
    (rows, cols), k = x.shape, form.k
    picked_rows, picked_cols = (range(rows - k, rows), range(cols - k, cols)) if form.trailing else (range(k), range(k))
    # Every entry carries t^low, so the determinant carries t^(k low).
    det = x.extract(list(picked_rows), list(picked_cols)).to_dense().det()
    return {e + k * low: int(c) for (e,), c in _terms(det, x.domain)}


def form_values(forms, point) -> list[dict[int, Fraction]]:
    """Each form's value at ``point``, given as (X, low, scale) per arrow, as {power of t: nonzero coefficient}, {} for zero."""
    values = []
    for form in forms:
        if isinstance(form, Pairing):
            (a, low_a, scale_a), (b, low_b, scale_b) = (point[k] for k in form.arrows)
            total = sum((p * q for r, s in zip(a.to_list(), b.to_list()) for p, q in zip(r, s)), a.domain.zero)
            terms, scale = {e + low_a + low_b: int(c) for (e,), c in _terms(total, a.domain)}, scale_a * scale_b * form.divisor
        else:
            terms, scale = _minor(form, point[form.arrow]), point[form.arrow][2] ** form.k
        values.append({e: Fraction(c, scale) for e, c in terms.items() if c})
    return values


def form_orders(forms, point) -> list[int | None]:
    """Each form's least power of t at ``point``; ``None`` where it vanishes."""
    return [min(value, default=None) for value in form_values(forms, point)]


def form_at(form, point) -> Fraction:
    """The form's value at a rational point."""
    (value,) = form_values((form,), rational_point(point))
    assert value.keys() <= {0}, value
    return value.get(0, Fraction(0))


def weight_value(real, chi, g) -> Fraction:
    """chi(g) for a Borel element g given as units: each diagonal entry L_ii / l of ``torus_exponents`` to its power."""
    value = Fraction(1)
    for (f, i), e in real.torus_exponents(chi).items():
        value *= Fraction(g[f][1][i][i], g[f][0]) ** e
    return value
