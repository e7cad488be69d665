"""Points written as rows of rationals, for the tests.

The package keeps every point as a ``ScaledMatrix``: one integer matrix over
one scale, with no view of itself as rows.  A test that writes a point as
rows builds it with ``scaled``, and a test that compares one against rows
reads it with ``divided``.
"""

from __future__ import annotations

from fractions import Fraction

from sphemb.lattice import scaled_to_integers
from sphemb.realization import ScaledMatrix


def scaled(rows, cols: int | None = None) -> ScaledMatrix:
    """Rows of ints or ``Fraction``s as a ``ScaledMatrix`` over the lcm of their denominators.

    ``cols`` is the width, read off the first row if not given: no rows have
    none of their own.
    """
    rows = [[Fraction(e) for e in r] for r in rows]
    scale, integers = scaled_to_integers(rows)
    return ScaledMatrix(scale, (len(rows), (len(rows[0]) if rows else 0) if cols is None else cols), integers)


def divided(x: ScaledMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """x's stored integers, each divided by its scale as a ``Fraction``, as a tuple of rows."""
    return tuple(tuple(Fraction(c, x.scale) for c in r) for r in x.integers)
