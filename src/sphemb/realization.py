"""The matrix realization of a family member: points, forms, curves and the group as data.

A realization (``MatrixRealization``) is a product of GL factors moving one
matrix per arrow (s, t) as g_s X g_t^-1, and the group is data: the arrows,
each factor's size, its Borel orientation and the dual factor pairs
(g_b = c g_a^-T), from which the realization derives its samplers and Lie
basis; a family writes only its stabilizer sampler.

A group element is a tuple of units (l, L, r, R), one per factor: the
matrix L / l with inverse R / r, for integer L, R and l, r > 0.  The
oracle draws forward only (``MatrixRealization.group_draw``): a generic
factor as its integer matrix A and det A, a dual pair's second factor as
its scalar c.  ``element`` inverts a draw (``integer_inverse``) only where
a translate is built (``act``, ``_translate``), and a stabilizer element is
its factors (l, L) alone, which the stabilizer check and its negative
control read (``fixes_base_point``, ``bump_moves_base_point``).

A point is a tuple of ``ScaledMatrix``, one per arrow, the one point format:
an integer matrix over one scale, built once per base point.  The membership
tests, tangents and a form's value at a point (``Minor.ratio``, one
``row_determinant`` of its block, and ``Pairing.ratio``, one dot product)
read its integers, scale and shape as stored.

A curve is a cocharacter lambda (``Curve``) through the base point x0,
which is monomial at every arrow: entry c at (i, j) of arrow
(s, t) becomes c t^(lambda_s(i) - lambda_t(j)) (``monomial_entries``), and
the curve's limit and every t-order are read off these entries.  Every
semi-invariant is data, a ``Minor`` on an arrow between generic factors or
a ``Pairing`` of arrows whose sources and targets are dual factor pairs;
its t-orders on the seeded translates are read by Cauchy-Binet off the
curve's entries and the forward draws, the inverses' minors by Jacobi's
identity (``sweep``), and its Borel weight off the orientation table
and the dual pairs (``borel_exponents``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from math import prod
from operator import mul
from typing import Callable, Sequence

from .lattice import integer_inverse, row_determinant
from .rootdata import Character

Unit = tuple[int, list[list[int]], int, list[list[int]]]
GroupElement = tuple[Unit, ...]
Factor = tuple[int, list[list[int]]]
Draw = tuple  # per factor: (A, det A) for a generic factor, the scalar c for a dual pair's second


def _zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


class ScaledMatrix:
    """A rational matrix held as one integer matrix over one scale: the one format of every point.

    ``shape`` is (rows, columns) and ``integers`` is scale times the matrix,
    for an integer ``scale`` > 0.  Two ``ScaledMatrix`` compare on their
    integers, and nothing else equals one; it is unhashable, as it holds lists.
    Each leading or trailing minor is the ``row_determinant`` of its block of
    the integers as stored (``minor_ratio``).
    """

    __slots__ = ("scale", "shape", "integers")

    def __init__(self, scale: int, shape: tuple[int, int], integers: list[list[int]]):
        self.scale = scale
        self.shape = shape
        self.integers = integers

    def __eq__(self, other):
        """Equality of the divided matrices, read on the integers; no rows equal no rows at any width."""
        if not isinstance(other, ScaledMatrix):
            return NotImplemented
        if self.shape[0] != other.shape[0] or self.shape[0] and self.shape[1] != other.shape[1]:
            return False
        s, t = other.scale, self.scale
        return all([c * s for c in p] == [c * t for c in q] for p, q in zip(self.integers, other.integers))

    __hash__ = None

    def __repr__(self):
        return f"ScaledMatrix({self.scale!r}, {self.shape!r}, {self.integers!r})"

    def minor_ratio(self, k: int, trailing: bool = False) -> tuple[int, int]:
        """(n, scale^k) for the top-left k x k minor n / scale^k, the bottom-right one if ``trailing``.

        n is ``row_determinant`` of the k x k block of the integers as stored.
        ``ValueError`` unless 0 <= k <= min(rows, columns).
        """
        rows, cols = self.shape
        if not 0 <= k <= min(rows, cols):
            raise ValueError(f"no {k} x {k} minor in a {rows} x {cols} matrix")
        stored = self.integers
        block = [r[cols - k :] for r in stored[rows - k :]] if trailing else [r[:k] for r in stored[:k]]
        return row_determinant(block), self.scale**k


Point = tuple[ScaledMatrix, ...]

# Group samplers draw from a wide integer range: translated-curve orders are
# read off coefficient polynomials in the sampled entries, and a wide range
# keeps accidental zeros of those polynomials rare.  Structured samplers
# (Borel, stabilizer shapes) need no genericity and stay small.
_GENERIC_RANGE = 999


def _rand_int_matrix(rng: random.Random, rows: int, cols: int, lo: int = -2, hi: int = 2):
    """Entries ``rng.randint(lo, hi)`` row-major, as ``randrange`` draws them: ``getrandbits``, redrawn while too big."""
    n, bits, flat = hi - lo + 1, rng.getrandbits, []
    while len(flat) < rows * cols:
        if (r := bits(n.bit_length())) < n:
            flat.append(lo + r)
    return [flat[i * cols : (i + 1) * cols] for i in range(rows)]


_SCALARS = (-3, -2, -1, 1, 2, 3)


def _unit(m: list[list[int]]) -> Unit:
    """The unit of an invertible integer matrix M: (1, M, r, R) with M^-1 = R / r."""
    return (1, m, *integer_inverse(m))


def _rand_nonsingular(rng: random.Random, n: int, bound: int = 4) -> tuple[list[list[int]], int]:
    """A random integer matrix with entries in -bound..bound and its determinant, redrawn exactly while it is
    singular: each draw is tested by one ``row_determinant`` and nothing is inverted; n = 0 draws nothing."""
    while True:
        m = _rand_int_matrix(rng, n, n, -bound, bound)
        det = row_determinant(m)
        if det:
            return m, det


def _rand_triangular(rng: random.Random, n: int, lower: bool) -> tuple[list[list[int]], int]:
    """A triangular matrix and its determinant, drawn row by row: each diagonal entry from {+-1, +-2, +-3}, each
    entry off it from -3..3."""
    draw, m = rng.randrange, _zeros(n, n)
    for i in range(n):
        m[i][i] = rng.choice(_SCALARS)
        for j in range(i) if lower else range(i + 1, n):
            m[i][j] = draw(-3, 4)
    return m, prod(m[i][i] for i in range(n))


def _dual_unit(unit: Unit, c: int) -> Unit:
    """c A^-T for the unit A = L / l with inverse X / d: c X^T / d, with inverse L^T / (l c)."""
    l, a, d, x = unit
    sign = 1 if c > 0 else -1
    return (d, [[c * e for e in col] for col in zip(*x)], l * abs(c), [[sign * e for e in col] for col in zip(*a)])


@dataclass(frozen=True)
class Minor:
    """The k x k minor of arrow ``arrow``'s matrix on its first k rows and columns, or its last k if ``trailing``."""

    arrow: int
    k: int
    trailing: bool = False

    @property
    def arrows(self) -> tuple[int, ...]:
        return (self.arrow,)

    def fault(self, shapes: Sequence[tuple[int, int]]) -> str | None:
        """Why the form cannot be read on points whose arrows have these ``shapes``, or ``None``."""
        if not 0 <= self.arrow < len(shapes):
            return f"no arrow {self.arrow}"
        rows, cols = shapes[self.arrow]
        if not 0 <= self.k <= min(rows, cols):
            return f"no {self.k} x {self.k} minor of arrow {self.arrow}'s {rows} x {cols} matrix"
        return None

    def __call__(self, point: Point) -> Fraction:
        return Fraction(*self.ratio(point))

    def ratio(self, point: Point) -> tuple[int, int]:
        """The value at a point as its undivided pair (n, q), q > 0: the arrow's matrix's ``minor_ratio``."""
        return point[self.arrow].minor_ratio(self.k, self.trailing)


@dataclass(frozen=True)
class Pairing:
    """sum_ij a_ij b_ij / divisor, for the matrix a of arrow ``arrow_a`` and b of arrow ``arrow_b``.

    A realization reads it only where the two arrows' sources are a pair of
    its ``dual_factors``, and their targets too (``check_forms``).
    """

    arrow_a: int
    arrow_b: int
    divisor: int

    @property
    def arrows(self) -> tuple[int, ...]:
        return (self.arrow_a, self.arrow_b)

    def fault(self, shapes: Sequence[tuple[int, int]]) -> str | None:
        """Why the form cannot be read on points whose arrows have these ``shapes``, or ``None``."""
        for a in self.arrows:
            if not 0 <= a < len(shapes):
                return f"no arrow {a}"
        if self.divisor < 1:
            return f"divisor {self.divisor} is below 1"
        if shapes[self.arrow_a] != shapes[self.arrow_b]:
            return f"arrows {self.arrow_a} and {self.arrow_b} have shapes {shapes[self.arrow_a]} and {shapes[self.arrow_b]}"
        return None

    def __call__(self, point: Point) -> Fraction:
        return Fraction(*self.ratio(point))

    def ratio(self, point: Point) -> tuple[int, int]:
        """The value at a point as its undivided pair (n, q), q > 0: for the stored L_a A and L_b B,
        one integer dot product over L_a L_b divisor."""
        a, b = point[self.arrow_a], point[self.arrow_b]
        return sum(map(mul, chain(*a.integers), chain(*b.integers))), a.scale * b.scale * self.divisor


@dataclass(eq=False)
class SemiInvariantSpec:
    """A polynomial function of the matrix entries with a claimed weight.

    ``form`` is the function as data, a ``Minor`` or a ``Pairing``; anything
    else raises ``ValueError``, and so do a ``Pairing`` off the dual factor
    pairs and a ``Minor`` on a loop arrow or at a dual pair's second factor
    when a realization checks it (``MatrixRealization.check_forms``).
    The oracle reads its t-orders by Cauchy-Binet
    (``MatrixRealization.sweep``) and its values at rational points from
    ``form.ratio``.  ``evaluate`` is the form itself, set at construction.
    """

    name: str
    claimed_weight: Character
    form: Minor | Pairing
    evaluate: Callable[[Point], Fraction] = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.form, (Minor, Pairing)):
            raise ValueError(f"semi-invariant {self.name} has no Minor or Pairing form")
        self.evaluate = self.form


@dataclass(frozen=True)
class Curve:
    """The curve lambda(t) . x0 of a cocharacter lambda through the base point x0,
    the ranks of its limit at t = 0 per arrow, and the boundary divisor it reaches, if any.

    ``cocharacter`` is lambda's {(factor, diagonal index): exponent} table,
    given as a dict or as pairs and held as its sorted ((factor, index),
    exponent) pairs: lambda(t) is diagonal in every factor, with t^e at each
    listed entry and 1 elsewhere.
    """

    label: str
    cocharacter: tuple[tuple[tuple[int, int], int], ...]
    limit_ranks: tuple[int, ...]
    boundary: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "cocharacter", tuple(sorted(dict(self.cocharacter).items())))


def _factor_sizes(arrows, shapes) -> tuple[int, ...]:
    """Each factor's size, read off the base point: arrow (s, t) of shape (rows, columns) gives s rows and t columns.

    ``ValueError`` for a factor on no arrow or with two sizes.
    """
    sizes: dict[int, int] = {}
    for (s, t), (rows, cols) in zip(arrows, shapes):
        for v, n in ((s, rows), (t, cols)):
            if sizes.setdefault(v, n) != n:
                raise ValueError(f"factor {v} has sizes {sizes[v]} and {n}")
    for v in range(1 + max(sizes, default=-1)):
        if v not in sizes:
            raise ValueError(f"factor {v} is on no arrow")
    return tuple(sizes[v] for v in range(len(sizes)))


def _lie_basis(sizes, dual_factors) -> tuple[dict[int, tuple[tuple[int, int, int], ...]], ...]:
    """The Lie algebra of the group with these factor ``sizes`` and ``dual_factors``, as ``MatrixRealization.lie_basis``.

    E_ij at each factor in no dual pair, factor by factor.  Then each dual
    pair (a, b), whose Lie algebra is the pairs (A, delta I - A^T), spanned by
    (E_ij, -E_ji) and (0, I).
    """
    paired = {v for pair in dual_factors for v in pair}
    basis = [{v: ((i, j, 1),)} for v, n in enumerate(sizes) if v not in paired for i in range(n) for j in range(n)]
    for a, b in dual_factors:
        n = sizes[a]
        basis += [{a: ((i, j, 1),), b: ((j, i, -1),)} for i in range(n) for j in range(n)]
        basis.append({b: tuple((k, k, 1) for k in range(n))})
    return tuple(basis)


@dataclass(eq=False)
class MatrixRealization:
    """Concrete matrix avatar of a family member, for oracle-level checks.

    A point is one ``ScaledMatrix`` per arrow (s, t) of ``arrows``, and a
    base point of anything else raises ``ValueError`` naming the arrow; a
    group element is one unit per factor, and ``act`` moves X to g_s X g_t^-1.  A stabilizer
    element (``stabilizer_sampler``) is one factor (l, L) per factor.  ``shapes`` holds
    the base point's (rows, columns) per arrow, on which every form is checked
    (``check_forms``), and ``sizes`` each factor's size, read off them.
    ``borel_lower[v]`` says whether factor v's Borel part is lower (else
    upper) triangular, and each pair (a, b) of ``dual_factors`` has
    g_b = c g_a^-T, so g_a^T g_b scalar, on the group.  The group is this
    data: the samplers (``group_draw``, ``group_sampler``, ``borel_sampler``), the Lie basis
    (``lie_basis``, each element mapping a factor to a sparse matrix as
    (i, j, c) triples for c E_ij, taken at construction by ``_lie_basis``)
    and the closed-form Borel weights (``borel_exponents``) are read off
    these tables and nothing else.  ``torus[k]`` names the diagonal entries,
    as (factor, index) pairs, whose ratio is basis character k's value on a
    Borel element (``torus_exponents``).  The base point's nonzero entries
    per arrow and each curve's entries c t^e (``monomial_entries``) are
    taken at construction; after it a realization gains no state, and every
    call draws and builds what it reads.
    """

    base_point: Point
    membership: Callable[[Point], bool]
    arrows: tuple[tuple[int, int], ...]
    borel_lower: tuple[bool, ...]
    expected_orbit_dimension: int
    stabilizer_sampler: Callable[[random.Random], tuple[Factor, ...]]
    torus: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = ()
    dual_factors: tuple[tuple[int, int], ...] = ()
    semi_invariants: tuple[SemiInvariantSpec, ...] = ()
    curves: tuple[Curve, ...] = ()
    shapes: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    sizes: tuple[int, ...] = field(init=False, repr=False)
    lie_basis: tuple[dict[int, tuple[tuple[int, int, int], ...]], ...] = field(init=False, repr=False)
    _base_entries: tuple[tuple[tuple[int, int, int], ...], ...] = field(init=False, repr=False)
    _curve_entries: dict[str, tuple[tuple[tuple[int, int, int, int], ...], ...]] = field(init=False, repr=False)

    def __post_init__(self):
        for a, x in enumerate(self.base_point):
            if not isinstance(x, ScaledMatrix):
                raise ValueError(f"base point arrow {a} is not a ScaledMatrix")
        if not self.membership(self.base_point):
            raise ValueError("base point fails the membership predicate")
        self.shapes = tuple(x.shape for x in self.base_point)
        self.sizes = factors = _factor_sizes(self.arrows, self.shapes)
        if len(self.borel_lower) != len(factors):
            raise ValueError(f"borel_lower has {len(self.borel_lower)} entries for {len(factors)} factors")
        paired: set[int] = set()
        for a, b in self.dual_factors:
            if not (0 <= a < len(factors) and 0 <= b < len(factors)):
                raise ValueError(f"dual factors {(a, b)} name a factor with no Borel orientation")
            if self.borel_lower[a] == self.borel_lower[b]:
                raise ValueError(f"dual factors {(a, b)} have the same Borel orientation")
            if not a < b or factors[a] != factors[b] or paired & {a, b}:
                raise ValueError(f"dual factors {(a, b)} are not two unpaired factors of one size, in factor order")
            paired |= {a, b}
        self._base_entries = tuple(
            tuple((i, j, c) for i, r in enumerate(x.integers) for j, c in enumerate(r) if c) for x in self.base_point
        )
        self._curve_entries = {}
        for curve in self.curves:
            if curve.label in self._curve_entries:
                raise ValueError(f"curve {curve.label} is given twice")
            lam = dict(curve.cocharacter)
            for v, i in lam:
                if not (0 <= v < len(factors) and 0 <= i < factors[v]):
                    raise ValueError(f"curve {curve.label}'s cocharacter names {(v, i)}, no diagonal entry of a factor")
            self._curve_entries[curve.label] = tuple(
                tuple((i, j, c, lam.get((s, i), 0) - lam.get((t, j), 0)) for i, j, c in entries)
                for (s, t), entries in zip(self.arrows, self._base_entries)
            )
        self.lie_basis = _lie_basis(factors, self.dual_factors)
        self.check_forms(self.semi_invariants)
        # Cauchy-Binet and the limits read every arrow on each curve as a monomial matrix: at most one nonzero entry
        # per row and column.
        for a, x in enumerate(self.base_point) if self.curves else ():
            if any(sum(map(bool, line)) > 1 for line in (*x.integers, *zip(*x.integers))):
                raise ValueError(f"base point is not monomial on arrow {a}")

    def group_draw(self, rng: random.Random, borel: bool = False) -> Draw:
        """A random group element as drawn, nothing inverted: per factor (A, det A) for A with entries in
        +-``_GENERIC_RANGE``, redrawn while singular, or triangular as ``borel_lower`` says if ``borel``, but the
        scalar c of g_b = c g_a^-T at the second factor b of each dual pair (a, b)."""
        duals, lower = {b for _, b in self.dual_factors}, self.borel_lower
        return tuple(
            rng.choice(_SCALARS) if v in duals
            else _rand_triangular(rng, n, lower[v]) if borel
            else _rand_nonsingular(rng, n, _GENERIC_RANGE)
            for v, n in enumerate(self.sizes)
        )

    def element(self, draw: Draw) -> GroupElement:
        """The units of a draw: (1, A, d, X) with A^-1 = X / d (``integer_inverse``) per generic factor, and
        c g_a^-T (``_dual_unit``) at the second factor of each dual pair."""
        duals, g = {b: a for a, b in self.dual_factors}, []
        for v, f in enumerate(draw):
            g.append(_dual_unit(g[duals[v]], f) if v in duals else _unit(f[0]))
        return tuple(g)

    def group_sampler(self, rng: random.Random) -> GroupElement:
        """A random group element as units: the ``element`` of a ``group_draw``."""
        return self.element(self.group_draw(rng))

    def borel_sampler(self, rng: random.Random) -> GroupElement:
        """A random Borel element as units: the ``element`` of a triangular ``group_draw``."""
        return self.element(self.group_draw(rng, borel=True))

    def check_forms(self, functions) -> None:
        """``ValueError`` naming the first semi-invariant whose form cannot be read on points of ``shapes``, is a
        ``Pairing`` whose arrows' sources, or targets, are not a pair of ``dual_factors``, or is a ``Minor`` on an
        arrow with the second factor of a dual pair as its source or target, or on a loop (s = t)."""
        seconds = {b for _, b in self.dual_factors}
        for f in functions:
            form = f.form
            fault = form.fault(self.shapes)
            if fault is None and isinstance(form, Pairing) and not self._on_dual_pairs(form):
                fault = f"arrows {form.arrow_a} and {form.arrow_b} do not run between dual factor pairs"
            if fault is None and isinstance(form, Minor) and seconds & set(self.arrows[form.arrow]):
                fault = f"arrow {form.arrow} runs at the second factor of a dual pair"
            if fault is None and isinstance(form, Minor) and len(set(self.arrows[form.arrow])) == 1:
                fault = f"arrow {form.arrow} is a loop"
            if fault is not None:
                raise ValueError(f"semi-invariant {f.name}: {fault}")

    def curve(self, label: str) -> Curve:
        for c in self.curves:
            if c.label == label:
                return c
        raise KeyError(f"unknown curve {label!r}")

    def group_draws(self, trials: int, seed: int) -> tuple[Draw, ...]:
        """The first ``trials`` elements ``group_draw`` draws from ``Random(seed)``, drawn afresh on every call; their
        units are the ones ``group_sampler`` gives on the same stream."""
        rng = random.Random(seed)
        return tuple(self.group_draw(rng) for _ in range(trials))

    def monomial_entries(self, curve_label: str, arrow: int) -> tuple[tuple[int, int, int, int], ...]:
        """(i, j, c, e) per entry c t^e of the curve lambda(t) . x0 at ``arrow`` (s, t), by row, taken at construction.

        c is the base point's nonzero entry at (i, j), as stored, and e is
        lambda_s(i) - lambda_t(j).
        """
        if curve_label not in self._curve_entries:
            raise KeyError(f"unknown curve {curve_label!r}")
        return self._curve_entries[curve_label][arrow]

    def sweep(self, forms, curve_labels, draws: Sequence[Draw]) -> list[list[list[tuple[int, int] | None]]]:
        """Per curve label, per form, its lowest term (e, c) on each translate g . curve, ``None`` where it vanishes,
        for g running over ``draws`` (as ``group_draws`` gives them), all read in one pass over the draws.

        c t^e is the lowest nonzero term of the form's undivided value
        (``form.ratio``) on the translate as ``act`` stores it, for the units
        of the draw; no translate and no unit is built.
        At an arrow (s, t) a translate is L X R over a positive scale, for the
        units L of g_s and R of g_t^-1 and the curve's monomial X
        (``monomial_entries``), so by Cauchy-Binet its minor on the rows and
        columns K is sum_I det L[K, I] det X[I, J] det R[J, K] over the
        k-subsets I of X's nonzero rows, J being their columns.  A ``Minor``
        runs between generic factors (``check_forms``), each drawn as A with
        d = |det A|, so L = A_s and R = d_t A_t^-1: det L[K, I] is read
        forward off A_s's rows K, and det R[J, K] by Jacobi's identity,
        det (d A^-1)[J, K] = sgn(det A) (-1)^(sum J + sum K)
        d^(k-1) det A[K^c, J^c], off A_t's rows K^c (``_row_minors``, a table
        per draw, factor and rows, or ``_complement_minors`` where cheaper);
        each curve groups the subsets (``_minor_subsets``, built once per arrow
        and k) by power of t, and
        the rest is one multiplier per form and draw (``_scalars``).  A
        ``Pairing`` of arrows a, b is sum x_ab y_cd P[a][c] Q[b][d] for
        P = L_a^T L_b and Q = R_a R_b^T, which are p I and q I on the dual
        pairs it runs between (``check_forms``), p = c d_a and q = sign(c') d_b:
        the multiplier times the untranslated pairing, with no table read.
        The subsets and the draw tables live for the call alone.
        """
        subsets = cache(lambda arrow, k: _minor_subsets(self._base_entries[arrow], k, (1 << self.shapes[arrow][1]) - 1))
        plans = [self._plan(form, subsets) for form in forms]
        reads = [[self._curve_terms(form, plan[4], label) for label in curve_labels] for form, plan in zip(forms, plans)]
        lowest: list[list[list[tuple[int, int] | None]]] = [[[] for _ in forms] for _ in curve_labels]
        for draw in draws:
            tables: dict = {}
            for f, ((left_key, right_key, sign, scalars, _), per_curve) in enumerate(zip(plans, reads)):
                multiplier = _scalars(draw, sign, scalars)
                if left_key is None:
                    for out, term in zip(lowest, per_curve):
                        out[f].append(term and (term[0], multiplier * term[1]))
                    continue
                for key in (left_key, right_key):
                    if key not in tables:
                        tables[key] = _draw_table(draw, key)
                left, right = tables[left_key], tables[right_key]
                for out, groups in zip(lowest, per_curve):
                    term = None
                    for e, terms in groups:
                        coefficient = sum([left[i] * c * right[j] for i, j, c in terms])
                        if coefficient:
                            term = (e, multiplier * coefficient)
                            break
                    out[f].append(term)
        return lowest

    def _plan(self, form, subsets: Callable[[int, int], list]) -> tuple:
        """How ``sweep`` reads ``form`` on every curve: its left and right draw tables' keys (``_draw_table``), or
        ``None``, its sign and per-draw scalars (``_scalars``) and, for a ``Minor`` of k > 0 on arrow (s, t), its
        subsets (``subsets(arrow, k)``, as ``_minor_subsets`` gives them): det L_s[K, I] forward off A_s's rows K,
        det R_t[J, K] through Jacobi off A_t's rows K^c, the sign (-1)^(sum K) for t's first or last k indices K and
        the scalar sgn(det A_t) |det A_t|^(k-1)."""
        if isinstance(form, Pairing):
            duals = {b: a for a, b in self.dual_factors}
            (sa, ta), (sb, tb) = (self.arrows[a] for a in form.arrows)
            # p = c d_a and q = sign(c') d_b, c and c' the scalars of each pair's second factor.
            b, b2 = max(sa, sb), max(ta, tb)
            return None, None, 1, ((b, 1, 0), (duals[b], 1, 1), (b2, 0, 1), (duals[b2], 1, 1)), ()
        (s, t), k, n = self.arrows[form.arrow], form.k, self.shapes[form.arrow][1]
        if k == 0:
            return None, None, 1, (), ()
        lead, chosen = not form.trailing, subsets(form.arrow, k)
        sign = (-1) ** ((0 if lead else k * (n - k)) + k * (k - 1) // 2)
        left = ("minors", s, lead, sum({1 << i for i, _, _ in self._base_entries[form.arrow]}))
        # Jacobi needs det A_t[K^c, J^c] only for the J^c the subsets name: one row_determinant each (about (n - k)^3
        # steps, 32 for the call) where the table on all 2^n column subsets, shared by every k, costs more.
        masks = tuple(sorted({j for _, j, _, _ in chosen}))
        cheaper = len(masks) * ((n - k) ** 3 + 32) < 1 << n
        right = ("complements", t, not lead, masks) if cheaper else ("minors", t, not lead, (1 << n) - 1)
        return left, right, sign, ((t, k - 1, k),), chosen

    def _curve_terms(self, form, subsets, curve_label: str):
        """For a ``Minor`` of k > 0 its ``subsets`` (I, J^c, c) grouped by the power e of t the curve gives them, e
        ascending; for a form that reads no table, its lowest term (e, c) on the curve itself, or ``None``."""
        if isinstance(form, Pairing):
            return _dual_pairing_term(*(self.monomial_entries(curve_label, a) for a in form.arrows))
        if form.k == 0:
            return 0, 1
        powers, groups = [e for *_, e in self.monomial_entries(curve_label, form.arrow)], {}
        for rows, jc, c, chosen in subsets:
            groups.setdefault(sum([powers[i] for i in chosen]), []).append((rows, jc, c))
        return sorted(groups.items())

    def act(self, g: GroupElement, point: Point) -> Point:
        """g . X = g_s X g_t^-1 at each arrow (s, t) of a point, as a ``ScaledMatrix`` over the product of the scales
        of g_s, X and g_t^-1 (``_translate``)."""
        return tuple(_translate(g[s][:2], x, g[t][2:]) for (s, t), x in zip(self.arrows, point))

    def fixes_base_point(self, g) -> bool:
        """Whether g . x0 = x0, exactly: g_s X g_t^-1 = X at each arrow (s, t), tested as l_t L_s X = l_s X L_t.

        g is a tuple of factors (l, L), or of units, whose first halves are
        read; X is the base point's integers, read at their nonzero entries.
        """
        return self._fixes([unit[:2] for unit in g])

    def bump_moves_base_point(self, g) -> bool:
        """Whether some bump of g (as ``fixes_base_point`` reads it) moves the base point: the negative control.

        A bump raises one entry of one factor by 1, L / l becoming
        (L + l E_ij) / l, walked factor by factor, then row-major, up to the
        first that moves the base point.  A bump with
        det(L + l E_ij) = det L + l C_ij(L) = 0, C_ij the (i, j) cofactor of L,
        makes its factor singular and is skipped (one ``row_determinant``);
        every other is tested as ``fixes_base_point`` tests g.
        """
        forward = [unit[:2] for unit in g]
        for k, (l, big_l) in enumerate(forward):
            for i, row in enumerate(big_l):
                for j in range(len(row)):
                    bumped = list(big_l)
                    bumped[i] = list(row)
                    bumped[i][j] += l
                    if row_determinant(bumped) and not self._fixes(forward[:k] + [(l, bumped)] + forward[k + 1 :]):
                        return True
        return False

    def _fixes(self, forward) -> bool:
        """``fixes_base_point`` for the factors L / l given as (l, L) in ``forward``, one per factor."""
        for arrow, ((s, t), (rows, cols)) in enumerate(zip(self.arrows, self.shapes)):
            (ls, left), (lt, right) = forward[s], forward[t]
            # l_t L_s X - l_s X L_t: X's entry c at (i, j) adds c L_s's column i to column j and c L_t's row j to row i.
            diff = _zeros(rows, cols)
            for i, j, c in self._base_entries[arrow]:
                a, b = lt * c, ls * c
                for out, e in zip(diff, (r[i] for r in left)):
                    out[j] += a * e
                out = diff[i]
                for h, e in enumerate(right[j]):
                    out[h] -= b * e
            if any(map(any, diff)):
                return False
        return True

    def tangent_rows(self, point: Point) -> list[dict[int, int]]:
        """Per ``lie_basis`` element A, the tangent A_s X - X A_t at each arrow (s, t), times X's scale: X's integers.

        A ``{column: int}`` dict that stores no zero, the arrows' entries numbered row-major, arrow by arrow.
        Only X's nonzero entries are read: c E_ij moves X's row j to row i (left) and column i to column j (right).
        """
        blocks, offset = [], 0
        for (s, t), x in zip(self.arrows, point):
            (height, cols), by_row, by_col = x.shape, {}, {}
            for k, r in enumerate(x.integers):
                for h, e in enumerate(r):
                    if e:
                        by_row.setdefault(k, []).append((offset + h, e))
                        by_col.setdefault(h, []).append((offset + k * cols, e))
            blocks.append((s, t, cols, by_row, by_col))
            offset += height * cols
        rows = []
        for element in self.lie_basis:
            row: dict[int, int] = {}
            for s, t, cols, by_row, by_col in blocks:
                for i, j, c in element.get(s, ()):
                    for col, e in by_row.get(j, ()):
                        row[col + i * cols] = row.get(col + i * cols, 0) + c * e
                for i, j, c in element.get(t, ()):
                    for col, e in by_col.get(i, ()):
                        row[col + j] = row.get(col + j, 0) - c * e
            rows.append({col: e for col, e in row.items() if e})
        return rows

    def torus_exponents(self, chi: Character) -> dict[tuple[int, int], int]:
        """chi on a Borel element as ``torus`` reads it: the exponent of each diagonal entry (factor, index), zeros dropped."""
        exponents: dict[tuple[int, int], int] = {}
        for c, (top, bottom) in zip(chi.coords, self.torus):
            exponents[top] = exponents.get(top, 0) + c
            exponents[bottom] = exponents.get(bottom, 0) - c
        return {entry: e for entry, e in exponents.items() if e}

    def borel_exponents(self, form) -> dict[tuple[int, int], int] | None:
        """``form``'s weight read off the Borel's triangular shape, as ``torus_exponents`` gives one, or ``None``.

        A Borel element moves arrow (s, t)'s X to g_s X g_t^-1.  With g_s lower
        and g_t upper triangular (``borel_lower``) a leading k x k minor
        rescales by g_s's first k diagonal entries over g_t's; with both
        swapped a trailing minor does, by the last k.  A ``Pairing``
        tr(A^T B) / divisor rescales by c_s / c_t when g_sa^T g_sb = c_s I and
        g_ta^T g_tb = c_t I (``dual_factors``), each c being the product of
        its pair's (0, 0) entries.  Anything else gives ``None``.
        """
        lower = self.borel_lower
        if isinstance(form, Minor):
            (s, t), k = self.arrows[form.arrow], form.k
            if lower[s] == lower[t] or lower[s] == form.trailing:
                return None
            rows, cols = self.shapes[form.arrow] if form.trailing else (k, k)
            return {**{(s, i): 1 for i in range(rows - k, rows)}, **{(t, j): -1 for j in range(cols - k, cols)}}
        if not self._on_dual_pairs(form):
            return None
        (sa, ta), (sb, tb) = (self.arrows[a] for a in form.arrows)
        exponents: dict[tuple[int, int], int] = {}
        for factor, e in ((sa, 1), (sb, 1), (ta, -1), (tb, -1)):
            exponents[factor, 0] = exponents.get((factor, 0), 0) + e
        return {entry: e for entry, e in exponents.items() if e}

    def root_move(self, form: Minor, point: Point) -> tuple[int, int, int] | None:
        """(v, i, j) for the first root element u = I + E_ij of the Borel that changes the ``Minor`` at ``point``, or
        ``None``: the one form that can lack a shape weight (``borel_exponents``) once ``check_forms`` has run.

        u sits at factor v, below the diagonal if ``borel_lower[v]`` and above
        it otherwise; the roots are tried at the ends of the form's arrow
        (s, t) in factor order, the highest first.  u moves the arrow's X by
        row i += row j at s = v and column j -= column i at t = v.
        """
        (s, t), x, k = self.arrows[form.arrow], point[form.arrow], form.k
        value = x.minor_ratio(k, form.trailing)
        for v in sorted({s, t}):
            n, lower = self.sizes[v], self.borel_lower[v]
            for h in range(n - 1, 0, -1):
                for i, j in ((i, i - h) for i in range(h, n)) if lower else ((i, i + h) for i in range(n - h)):
                    y = [list(r) for r in x.integers]
                    if s == v:
                        y[i] = [p + q for p, q in zip(y[i], y[j])]
                    if t == v:
                        for r in y:
                            r[j] -= r[i]
                    if ScaledMatrix(x.scale, x.shape, y).minor_ratio(k, form.trailing) != value:
                        return v, i, j
        return None

    def _on_dual_pairs(self, form: Pairing) -> bool:
        """Whether the ``Pairing``'s two sources are a pair of ``dual_factors``, and its two targets too."""
        (sa, ta), (sb, tb) = (self.arrows[a] for a in form.arrows)
        dual = {frozenset(pair) for pair in self.dual_factors}
        return {sa, sb} in dual and {ta, tb} in dual


def _minor_subsets(entries, k: int, full: int) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """Per k-subset of a monomial X's nonzero (i, j, c) ``entries``, (I, J^c, c, chosen) with det X[I, J] = (-1)^(sum J) c
    at t = 1: ``chosen`` indexes the subset's entries, I is the bitmask of their rows and J^c that of the columns of
    ``full`` outside theirs, J, on which Jacobi reads the complementary minor; c carries the sign that sorts J."""
    subsets = []
    for chosen in combinations(range(len(entries)), k):
        rows, cols, coefficients = zip(*(entries[n] for n in chosen))
        flips = sum(cols) + sum(a > b for n, a in enumerate(cols) for b in cols[n + 1 :])
        coefficient = -prod(coefficients) if flips % 2 else prod(coefficients)
        subsets.append((sum(1 << i for i in rows), sum(1 << j for j in cols) ^ full, coefficient, chosen))
    return subsets


def _dual_pairing_term(x_entries, y_entries) -> tuple[int, int] | None:
    """The lowest term (e, s) of a ``Pairing`` of monomial X and Y, given by their (i, j, c, e) entries: s is the sum
    of x y over the entries x t^f of X and y t^g of Y at one position with f + g = e, the least e with s nonzero;
    ``None`` if every such sum is 0."""
    y_at = {(c, d): (y, g) for c, d, y, g in y_entries}
    sums: dict[int, int] = {}
    for a, b, x, f in x_entries:
        if (a, b) in y_at:
            y, g = y_at[a, b]
            sums[f + g] = sums.get(f + g, 0) + x * y
    return min(((e, total) for e, total in sums.items() if total), default=None)


def _draw_table(draw: Draw, key: tuple) -> dict:
    """One table of ``sweep`` for a draw, named by ``key``: ("minors", v, top, columns) for ``_row_minors`` of
    factor v's A and ("complements", v, top, masks) for its entries on ``masks`` alone."""
    kind, v, top, columns = key
    return (_row_minors if kind == "minors" else _complement_minors)(draw[v][0], columns, top)


def _row_minors(rows, columns: int, top: bool) -> dict[int, int]:
    """det of ``rows``' first j rows (``top``), or of its last j, on every j-subset of the columns in the bitmask
    ``columns``, keyed by its bitmask, for every j up to their number; each is expanded along the row its block
    adds to the one a size smaller, its last in a top block and its first in a bottom one."""
    indices = [j for j in range(columns.bit_length()) if columns >> j & 1]
    minors, height = {0: 1}, len(rows)
    for size in range(1, len(indices) + 1):
        row, shift = (rows[size - 1], size - 1) if top else (rows[height - size], 0)
        for chosen in combinations(indices, size):
            mask = sum(1 << j for j in chosen)
            total = 0
            for pos, j in enumerate(chosen):
                if row[j]:
                    term = row[j] * minors[mask ^ 1 << j]
                    total += -term if (shift + pos) & 1 else term
            minors[mask] = total
    return minors


def _complement_minors(rows, masks, top: bool) -> dict[int, int]:
    """The entries of ``_row_minors`` keyed by ``masks``, one ``row_determinant`` each."""
    minors = {}
    for mask in masks:
        columns = [j for j in range(mask.bit_length()) if mask >> j & 1]
        block = rows[: len(columns)] if top else rows[len(rows) - len(columns) :]
        minors[mask] = row_determinant([[row[j] for j in columns] for row in block])
    return minors


def _scalars(draw: Draw, sign: int, scalars) -> int:
    """``sign`` times x^e sgn(x)^f for each (v, e, f) of a plan of ``sweep``, x being factor v's det A or c:
    sgn(det A) |det A|^(k-1) is (v, k - 1, k), |det A| is (v, 1, 1), c^k is (v, k, 0) and sign(c)^k is (v, 0, k)."""
    for v, e, f in scalars:
        x = draw[v] if isinstance(draw[v], int) else draw[v][1]
        sign *= -(x**e) if x < 0 and f % 2 else x**e
    return sign


def _translate(left: tuple[int, list[list[int]]], x: ScaledMatrix, right: tuple[int, list[list[int]]]) -> ScaledMatrix:
    """(L / l) x (R / r) for integer forms left = (l, L) and right = (r, R), l, r > 0.

    x is kept as its nonzero rows K.  Row k of X R is
    c times R's row l if (k, l) holds the row's one nonzero entry c, as in
    base points, else the row against R's columns.  The result, L[:, K]
    (X[K] R), over the scale l L_x r, is taken in integer row-column
    products; a zero x's columns are empty.
    """
    (left_scale, left), (right_scale, right) = left, right
    shape, right_columns = x.shape, list(zip(*right))
    picked, middle = [], []
    for k, x_row in enumerate(x.integers):
        nonzero = [l for l, c in enumerate(x_row) if c]
        if len(nonzero) == 1:
            c, row = x_row[nonzero[0]], right[nonzero[0]]
            middle.append(row if c == 1 else [c * y for y in row])
        elif nonzero:
            middle.append([sum(map(mul, x_row, col)) for col in right_columns])
        else:
            continue
        picked.append(k)
    columns = list(zip(*middle)) or [()] * shape[1]
    rows = left if len(picked) == len(x.integers) else ([r[k] for k in picked] for r in left)
    return ScaledMatrix(left_scale * x.scale * right_scale, shape, [[sum(map(mul, r, col)) for col in columns] for r in rows])


def _monomial_matrix(rows: int, cols: int, ones) -> ScaledMatrix:
    """The rows x cols matrix with a 1 at each (i, j) of ``ones`` and zeros elsewhere, on scale 1."""
    matrix = _zeros(rows, cols)
    for i, j in ones:
        matrix[i][j] = 1
    return ScaledMatrix(1, (rows, cols), matrix)
