"""Independent references for the semi-invariant forms, read off a point's layers.

A ``Minor``'s value is a sympy determinant over Z[t] of its block of the
point's matrix, and a ``Pairing``'s the sum of its two arrows' products layer
by layer.  Neither reads the package's minor kernels
(``ScaledMatrix.minor_ratio``, ``MatrixRealization.form_orders``) or its
``LaurentPoly`` arithmetic.  sympy is imported on first use, so a test that
reads a minor here is skipped where sympy is missing.
"""

from fractions import Fraction

import pytest

from sphemb.families import Pairing, ScaledMatrix


def _polynomial_matrix(x: ScaledMatrix):
    """(Z[t], x's entries times scale t^-low as elements of it, low) for the least stored power low; (Z, x's
    stored integers, 0) when x has no layer but layer 0."""
    pytest.importorskip("sympy")
    from sympy import ZZ, Symbol

    if x.layers.keys() <= {0}:
        return ZZ, [list(map(ZZ, r)) for r in x.constant_terms()], 0
    ring = ZZ[Symbol("t")]
    (t,) = ring.gens
    (rows, cols), low, items = x.shape, min(x.layers), x.layers.items()
    entries = [[sum((m[i][j] * t ** (e - low) for e, m in items if m[i][j]), ring.zero) for j in range(cols)] for i in range(rows)]
    return ring, entries, low


def _minor(form, x: ScaledMatrix, polynomial) -> dict[int, int]:
    """scale^k times the minor ``form`` of x, as {power of t: int}, by one sympy determinant over Z[t]."""
    from sympy.polys.matrices import DomainMatrix

    (ring, entries, low), (rows, cols), k = polynomial, x.shape, form.k
    picked_rows, picked_cols = (range(rows - k, rows), range(cols - k, cols)) if form.trailing else (range(k), range(k))
    block = [[entries[i][j] for j in picked_cols] for i in picked_rows]
    # Every entry carries t^-low, so the determinant carries t^(-k low).
    det = DomainMatrix(block, (k, k), ring).det()
    return {e + k * low: int(c) for (e,), c in (det.terms() if ring.is_PolynomialRing else [((0,), det)])}


def form_values(forms, point) -> list[dict[int, Fraction]]:
    """Each form's value at ``point`` as {power of t: nonzero coefficient}, {} for zero; each arrow goes into Z[t] once."""
    polynomials = {}
    values = []
    for form in forms:
        if isinstance(form, Pairing):
            a, b = (ScaledMatrix.of(point[k]) for k in form.arrows)
            total: dict[int, int] = {}
            for e, p in a.layers.items():
                for f, q in b.layers.items():
                    total[e + f] = total.get(e + f, 0) + sum(x * y for r, s in zip(p, q) for x, y in zip(r, s))
            scale = a.scale * b.scale * form.divisor
        else:
            x = ScaledMatrix.of(point[form.arrow])
            if form.arrow not in polynomials:
                polynomials[form.arrow] = _polynomial_matrix(x)
            total, scale = _minor(form, x, polynomials[form.arrow]), x.scale**form.k
        values.append({e: Fraction(c, scale) for e, c in total.items() if c})
    return values


def form_orders(forms, point) -> list[int | None]:
    """Each form's least power of t at ``point``; ``None`` where it vanishes."""
    return [min(value, default=None) for value in form_values(forms, point)]


def form_at(form, point) -> Fraction:
    """The form's value at a rational point."""
    (value,) = form_values((form,), point)
    assert value.keys() <= {0}, value
    return value.get(0, Fraction(0))
