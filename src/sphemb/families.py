"""Model and matrix-realization constructors for the example families.

Four families are provided:

* ``monoid``: the dilation monoid of matrix pairs (A, B) with
  A^T B = A B^T = d(A,B) I, embedded blockwise; its divisor model and a
  matrix realization with boundary curves and semi-invariants.
* ``circular``: pairs (A, B) with AB = 0, BA = 0 and rank bounds.
* ``determinantal``: single matrices of bounded rank; the divisor model is
  the circular one at s = 0 and has no boundary divisor.
* ``complexes``: pairs (A, B) with AB = 0 and rank bounds; matrix
  realization only.

Every realization is a product of GL factors moving one matrix per arrow
(s, t) as g_s X g_t^-1, and the group is data: the arrows, each factor's
size, its Borel orientation and the dual factor pairs (g_b = c g_a^-T),
from which ``MatrixRealization`` derives its samplers and Lie basis; a
family writes only its stabilizer sampler.  ``_quiver_parts`` builds the
last three families' arrows, membership test and Borel orientation.

A group element is a tuple of units (l, L, r, R), one per factor: the
matrix L / l with inverse R / r, for integer L, R and l, r > 0.  The
oracle draws forward only (``MatrixRealization.group_draw``): a generic
factor as its integer matrix A and det A, a dual pair's second factor as
its scalar c.  ``element`` inverts a draw (``integer_inverse``) only where
a translate is built (``act``, ``_translate``), and a stabilizer element is
its factors (l, L) alone, which the stabilizer check and its negative
control read (``fixes_base_point``, ``bump_moves_base_point``).

A point is rational: one ``ScaledMatrix`` per arrow, an integer matrix over
one scale, built once per base point.  The membership tests and a form's
value at a point (``Minor.ratio``, one ``row_determinant`` of its block, and
``Pairing.ratio``, one dot product) read the integers as stored.

A curve is a cocharacter lambda (``Curve``) through the base point x0,
which is monomial wherever a form reads it: entry c at (i, j) of arrow
(s, t) becomes c t^(lambda_s(i) - lambda_t(j)) (``monomial_entries``), and
the curve's limit and every t-order are read off these entries.  Every
semi-invariant is data, a ``Minor`` or a ``Pairing`` of arrows; its
t-orders on the seeded translates are read by Cauchy-Binet off the curve's
entries and the forward draws, the inverses' minors by Jacobi's identity
(``lowest_terms``), and its Borel weight off the orientation table and the
dual pairs (``borel_exponents``).

Divisor functionals are derived, one table per fact.  A boundary's valuation
is its curve's cocharacter read through the torus table (``_valuation``:
basis character k, torus[k] = (top, bottom), pairs as lambda(top) -
lambda(bottom)), so the curves, the Borel weights and the model read the
same ``_monoid_torus`` / ``_circular_torus`` and cocharacter tables.  A
monoid colour's functional is its coroot in ``_monoid_coroots``; a circular
colour's is its first coroot in ``_circular_coroots`` pulled back through
the torus, and a paired colour's two coroots must pull back alike
(``ValueError`` otherwise).  ``_wonderful`` builds both families' wonderful
data from the same coroot tables; the determinantal model and wonderful
data are the circular ones at s = 0.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from math import lcm, prod
from operator import mul
from typing import Callable, Sequence

from .divisor_model import BoundarySpec, ColorSpec, SphericalDivisorModel, WonderfulModel
from .lattice import integer_inverse, mat_mul, rational_rank, row_determinant
from .rootdata import Character, Covector, SimpleRootSet, TorusLattice


class FamilyParameterError(ValueError):
    """Family parameters outside the admissible range."""


Matrix = tuple[tuple, ...]
Point = tuple[Matrix, ...]
Unit = tuple[int, list[list[int]], int, list[list[int]]]
GroupElement = tuple[Unit, ...]
Factor = tuple[int, list[list[int]]]
Draw = tuple  # per factor: (A, det A) for a generic factor, the scalar c for a dual pair's second


def _zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


class ScaledMatrix:
    """A rational matrix held as one integer matrix over one scale.

    The format of every point: ``shape`` (rows, columns) and ``integers``,
    scale times the matrix for an integer ``scale`` > 0.  The divided rows of
    ``Fraction`` are built when first read, and the matrix hashes and compares
    like them; two ``ScaledMatrix`` compare on their integers.  Each leading
    or trailing minor is the ``row_determinant`` of its block of the integers
    as stored (``minor_ratio``).
    """

    __slots__ = ("scale", "shape", "integers", "_rows")

    def __init__(self, scale: int, shape: tuple[int, int], integers: list[list[int]]):
        self.scale = scale
        self.shape = shape
        self.integers = integers
        self._rows: Matrix | None = None

    @classmethod
    def of(cls, m) -> "ScaledMatrix":
        """m itself, or its rows of rationals over the lcm of their denominators."""
        if isinstance(m, ScaledMatrix):
            return m
        rows = [[Fraction(e) for e in r] for r in m]
        scale = lcm(*(e.denominator for r in rows for e in r))
        shape = (len(rows), len(rows[0]) if rows else 0)
        return cls(scale, shape, [[e.numerator * (scale // e.denominator) for e in r] for r in rows])

    @property
    def rows(self) -> Matrix:
        """Each entry divided by the scale once, as a ``Fraction``."""
        if self._rows is None:
            self._rows = tuple(tuple(Fraction(c, self.scale) for c in r) for r in self.integers)
        return self._rows

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, i):
        return self.rows[i]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        """Equality of the divided rows, read on the integers against a ``ScaledMatrix``; no rows equal no rows at any width."""
        if not isinstance(other, ScaledMatrix):
            return self.rows == other
        if self.shape[0] != other.shape[0] or self.shape[0] and self.shape[1] != other.shape[1]:
            return False
        s, t = other.scale, self.scale
        return all([c * s for c in p] == [c * t for c in q] for p, q in zip(self.integers, other.integers))

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"ScaledMatrix({self.rows!r})"

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


# Group samplers draw from a wide integer range: translated-curve orders are
# read off coefficient polynomials in the sampled entries, and a wide range
# keeps accidental zeros of those polynomials rare.  Structured samplers
# (Borel, stabilizer shapes) need no genericity and stay small.
_GENERIC_RANGE = 999


def _rand_int_matrix(rng: random.Random, rows: int, cols: int, lo: int = -2, hi: int = 2):
    """Entries ``rng.randint(lo, hi)`` row-major, drawn as ``randrange(lo, hi + 1)``: the same stream."""
    draw, hi = rng.randrange, hi + 1
    return [[draw(lo, hi) for _ in range(cols)] for _ in range(rows)]


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
        return ScaledMatrix.of(point[self.arrow]).minor_ratio(self.k, self.trailing)


@dataclass(frozen=True)
class Pairing:
    """sum_ij a_ij b_ij / divisor, for the matrix a of arrow ``arrow_a`` and b of arrow ``arrow_b``."""

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
        a, b = ScaledMatrix.of(point[self.arrow_a]), ScaledMatrix.of(point[self.arrow_b])
        return sum(map(mul, chain(*a.integers), chain(*b.integers))), a.scale * b.scale * self.divisor


@dataclass(eq=False)
class SemiInvariantSpec:
    """A polynomial function of the matrix entries with a claimed weight.

    ``form`` is the function as data, a ``Minor`` or a ``Pairing``; anything
    else raises ``ValueError``.  The oracle reads its t-orders by Cauchy-Binet
    (``MatrixRealization.form_orders``) and its values at rational points from
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

    A point is one matrix per arrow (s, t) of ``arrows``, and a group element
    one unit per factor; ``act`` moves X to g_s X g_t^-1.  A stabilizer
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
    Borel element (``torus_exponents``).  ``memo`` keeps results that
    depend only on the realization, such as ``group_draws``.
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
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for a, x in enumerate(self.base_point):
            if not isinstance(x, ScaledMatrix) and not len(x):
                raise ValueError(f"base point arrow {a} is given as no rows, which have no width: give it as a ScaledMatrix")
        if not self.membership(self.base_point):
            raise ValueError("base point fails the membership predicate")
        self.shapes = tuple(ScaledMatrix.of(x).shape for x in self.base_point)
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
        self.lie_basis = _lie_basis(factors, self.dual_factors)
        self.check_forms(self.semi_invariants)
        # Cauchy-Binet reads a form's arrows on each curve as monomial matrices: at most one nonzero entry per row and column.
        for a in {a for f in self.semi_invariants for a in f.form.arrows} if self.curves else ():
            x = ScaledMatrix.of(self.base_point[a]).integers
            if any(sum(map(bool, line)) > 1 for line in (*x, *zip(*x))):
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
        """``ValueError`` naming the first semi-invariant whose form cannot be read on points of ``shapes``."""
        for f in functions:
            fault = f.form.fault(self.shapes)
            if fault is not None:
                raise ValueError(f"semi-invariant {f.name}: {fault}")

    def curve(self, label: str) -> Curve:
        for c in self.curves:
            if c.label == label:
                return c
        raise KeyError(f"unknown curve {label!r}")

    def memo(self, key, compute: Callable[[], object]):
        """compute(), run once per realization and key."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def group_draws(self, trials: int, seed: int) -> tuple[Draw, ...]:
        """The first ``trials`` elements ``group_draw`` draws from ``Random(seed)``, drawn once; their units are the
        ones ``group_sampler`` gives on the same stream."""

        def draw():
            rng = random.Random(seed)
            return tuple(self.group_draw(rng) for _ in range(trials))

        return self.memo(("group_draws", trials, seed), draw)

    def _base_entries(self, arrow: int) -> tuple[tuple[int, int, int], ...]:
        """(i, j, c) per nonzero entry c of the base point's integers at ``arrow``, by row, taken once."""

        def entries():
            x = ScaledMatrix.of(self.base_point[arrow]).integers
            return tuple((i, j, c) for i, r in enumerate(x) for j, c in enumerate(r) if c)

        return self.memo(("base_entries", arrow), entries)

    def monomial_entries(self, curve_label: str, arrow: int) -> tuple[tuple[int, int, int, int], ...]:
        """(i, j, c, e) per entry c t^e of the curve lambda(t) . x0 at ``arrow`` (s, t), by row, taken once.

        c is the base point's nonzero entry at (i, j), as stored, and e is
        lambda_s(i) - lambda_t(j).
        """

        def entries():
            lam, (s, t) = dict(self.curve(curve_label).cocharacter), self.arrows[arrow]
            return tuple((i, j, c, lam.get((s, i), 0) - lam.get((t, j), 0)) for i, j, c in self._base_entries(arrow))

        return self.memo(("monomial_entries", curve_label, arrow), entries)

    def form_orders(self, forms, curve_label: str, trials: int, seed: int) -> list[list[int | None]]:
        """Per form (``Minor`` or ``Pairing``), its t-order on each seeded translate g . curve, ``None`` where it
        vanishes: the power of its ``lowest_terms``."""
        lowest = self.lowest_terms(forms, curve_label, trials, seed)
        return [[None if term is None else term[0] for term in terms] for terms in lowest]

    def lowest_terms(self, forms, curve_label: str, trials: int, seed: int) -> list[list[tuple[int, int] | None]]:
        """Per form, its lowest term (e, c) on each seeded translate g . curve, ``None`` where the form vanishes.

        c t^e is the lowest nonzero term of the form's undivided value
        (``form.ratio``) on the translate as ``act`` stores it, for the units
        of ``group_draws(trials, seed)``; no translate and no unit is built.
        At an arrow (s, t) a translate is L X R over a positive scale, for the
        units L of g_s and R of g_t^-1 and the curve's monomial X
        (``monomial_entries``), so by Cauchy-Binet its minor on the rows and
        columns K is sum_I det L[K, I] det X[I, J] det R[J, K] over the
        k-subsets I of X's nonzero rows, J being their columns.  A generic
        factor has L = A and R = d A^-1 (d = |det A|); the second of a dual
        pair (a, b), drawn as c, has L = c (d_a A_a^-1)^T and R = sign(c) A_a^T.
        A minor of A is read off A's rows K, and one of d A^-1 by Jacobi's
        identity, det (d A^-1)[J, K] = sgn(det A) (-1)^(sum J + sum K)
        d^(k-1) det A[K^c, J^c], off its rows K^c (``_row_minors``, a table
        per draw, factor and rows, or ``_complement_minors`` where cheaper);
        the curve's terms fold in J^c and (-1)^(sum J) (``_minor_terms``),
        and the rest once per form and draw (``_scalars``).  A ``Pairing`` of
        arrows a, b is sum x_ab y_cd P[a][c] Q[b][d] for P = L_a^T L_b and
        Q = R_a R_b^T: p I and q I on dual pairs, p = c d_a and
        q = sign(c') d_b (``_dual_pairing_terms``), else two Gram tables of
        the draw's units (``element``).  The order is the least power whose
        integer coefficient c is nonzero.
        """
        if not forms:
            return []
        plans = [self.memo(("plan", curve_label, form), lambda: self._plan(form, curve_label)) for form in forms]
        tables = self.memo(("draw_tables", trials, seed), lambda: [{} for _ in range(trials)])
        lowest: list[list[tuple[int, int] | None]] = [[] for _ in forms]
        for draw, cache in zip(self.group_draws(trials, seed), tables):
            for (left_key, right_key, sign, scalars, groups), form_terms in zip(plans, lowest):
                for key in (left_key, right_key):
                    if key not in cache:
                        cache[key] = self._draw_table(draw, key, cache)
                left, right, term = cache[left_key], cache[right_key], None
                for e, terms in groups:
                    coefficient = sum([left[i] * c * right[j] for i, j, c in terms])
                    if coefficient:
                        term = (e, _scalars(draw, sign * coefficient, scalars))
                        break
                form_terms.append(term)
        return lowest

    def _plan(self, form, curve_label: str) -> tuple:
        """How ``lowest_terms`` reads ``form`` on the curve: the keys of its left and right draw tables
        (``_draw_table``), its sign and per-draw scalars (``_scalars``) and its terms by power of t."""
        duals = {b: a for a, b in self.dual_factors}
        if isinstance(form, Pairing):
            x, y = (self.monomial_entries(curve_label, a) for a in form.arrows)
            (sa, ta), (sb, tb) = (self.arrows[a] for a in form.arrows)
            if not self._on_dual_pairs(form):
                return ("gram_columns", sa, sb), ("gram_rows", ta, tb), 1, (), _pairing_terms(x, y)
            # p = c d_a and q = sign(c') d_b, c and c' the scalars of each pair's second factor.
            b, b2 = max(sa, sb), max(ta, tb)
            scalars = ((b, 1, 0), (duals[b], 1, 1), (b2, 0, 1), (duals[b2], 1, 1))
            return ("one",), ("one",), 1, scalars, _dual_pairing_terms(x, y)
        x = self.monomial_entries(curve_label, form.arrow)
        (s, t), k, (rows, cols) = self.arrows[form.arrow], form.k, self.shapes[form.arrow]
        if k == 0:
            return ("one",), ("one",), 1, (), [(0, [(0, 0, 1)])]
        lead, full = not form.trailing, [(1 << rows) - 1, (1 << cols) - 1]
        # (-1)^(sum K) for K the first or the last k of n indices.
        turn = [(-1) ** ((0 if lead else k * (n - k)) + k * (k - 1) // 2) for n in (rows, cols)]
        # det L_s[K, I]: forward on A_s, or through Jacobi on c (d_a A_a^-1)^T at a dual pair's second factor.
        if s in duals:
            left, sign, scalars = ("minors", duals[s], not lead, full[0]), turn[0], [(s, k, 0), (duals[s], k - 1, k)]
        else:
            left, sign, scalars, full[0] = ("minors", s, lead, sum({1 << e[0] for e in x})), 1, [], 0
        # det R_t[J, K]: through Jacobi on d A_t^-1, or forward on sign(c) A_a^T at a dual pair's second factor.
        if t in duals:
            right, full[1] = ("minors", duals[t], lead, sum({1 << e[1] for e in x})), 0
            scalars.append((t, 0, k))
        else:
            right, sign = ("minors", t, not lead, full[1]), sign * turn[1]
            scalars.append((t, k - 1, k))
        terms = self.memo(("minor_terms", curve_label, form.arrow, k, *full), lambda: _minor_terms(x, k, *full))
        keys = [left, right]
        for side, n in enumerate((rows, cols)):
            # A Jacobi side needs det A[K^c, J^c] only for the J^c its terms name: one row_determinant each (about
            # (n - k)^3 steps, 32 for the call) where the table on all 2^n column subsets, shared by every k, costs more.
            masks = tuple(sorted({term[side] for _, group in terms for term in group}))
            if full[side] and len(masks) * ((n - k) ** 3 + 32) < 1 << n:
                keys[side] = ("complements", *keys[side][1:3], masks)
        return *keys, sign, tuple(scalars), terms

    def _draw_table(self, draw: Draw, key: tuple, cache: dict) -> dict:
        """One table of ``lowest_terms`` for a draw, named by ``key``: ("minors", v, top, columns) for
        ``_row_minors`` of factor v's A, ("complements", v, top, masks) for its entries on ``masks`` alone,
        ("gram_columns", f, h) and ("gram_rows", f, h) for L_f^T L_h and R_f R_h^T of
        the draw's units (``element``, taken once per draw), keyed by (row, column), and ("one",) for {0: 1}."""
        kind, *args = key
        if kind == "minors":
            v, top, columns = args
            return _row_minors(draw[v][0], columns, top)
        if kind == "complements":
            v, top, masks = args
            return _complement_minors(draw[v][0], masks, top)
        if kind == "one":
            return {0: 1}
        if "element" not in cache:
            cache["element"] = self.element(draw)
        g, (f, h) = cache["element"], args
        a, b = (list(zip(*g[f][1])), list(zip(*g[h][1]))) if kind == "gram_columns" else (g[f][3], g[h][3])
        return {(i, j): sum(map(mul, p, q)) for i, p in enumerate(a) for j, q in enumerate(b)}

    def act(self, g: GroupElement, point: Point) -> Point:
        """g . X = g_s X g_t^-1 at each arrow (s, t)."""
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
            for i, j, c in self._base_entries(arrow):
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
        """Per ``lie_basis`` element A, the tangent A_s X - X A_t at each arrow (s, t), times X's scale.

        A ``{column: int}`` dict that stores no zero, the arrows' entries numbered row-major, arrow by arrow.
        Only X's nonzero entries are read: c E_ij moves X's row j to row i (left) and column i to column j (right).
        """
        blocks, offset = [], 0
        for (s, t), x in zip(self.arrows, map(ScaledMatrix.of, point)):
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

    def root_move(self, form, point: Point) -> tuple[int, int, int] | None:
        """(v, i, j) for the first root element u = I + E_ij of the Borel that changes ``form`` at ``point``, or ``None``.

        u sits at factor v, below the diagonal if ``borel_lower[v]`` and above
        it otherwise, and u^-T at v's partner w in ``dual_factors``; the roots
        are tried factor by factor, the highest first.  u moves X at (s, t) by
        row i += row j at s = v, column j -= column i at t = v, row j -= row i
        at s = w and column i += column j at t = w.
        """
        value, partner = form.ratio(point), dict(self.dual_factors)
        seconds = set(partner.values())
        for v, n in enumerate(self.sizes):
            w, lower = partner.get(v), self.borel_lower[v]
            if v in seconds or not any({v, w} & set(self.arrows[a]) for a in form.arrows):
                continue
            for h in range(n - 1, 0, -1):
                for i, j in ((i, i - h) for i in range(h, n)) if lower else ((i, i + h) for i in range(n - h)):
                    moved = list(point)
                    for a in form.arrows:
                        (s, t), x = self.arrows[a], ScaledMatrix.of(point[a])
                        y = [list(r) for r in x.integers]
                        if s == v:
                            y[i] = [p + q for p, q in zip(y[i], y[j])]
                        if s == w:
                            y[j] = [p - q for p, q in zip(y[j], y[i])]
                        for r in y:
                            if t == v:
                                r[j] -= r[i]
                            if t == w:
                                r[i] += r[j]
                        moved[a] = ScaledMatrix(x.scale, x.shape, y)
                    if form.ratio(moved) != value:
                        return v, i, j
        return None

    def _on_dual_pairs(self, form: Pairing) -> bool:
        """Whether the ``Pairing``'s two sources are a pair of ``dual_factors``, and its two targets too."""
        (sa, ta), (sb, tb) = (self.arrows[a] for a in form.arrows)
        dual = {frozenset(pair) for pair in self.dual_factors}
        return {sa, sb} in dual and {ta, tb} in dual


def _minor_terms(entries, k: int, left_full: int = 0, right_full: int = 0) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """Per power e of t, ascending, the (I, J, c) with det X[I, J] = c t^e over the k-subsets I of X's nonzero rows.

    X is monomial, given by its (i, j, c, e) ``entries`` in row order; J is
    the columns of I's entries, and c carries the sign of the permutation
    that sorts them.  I and J are bitmasks; a side read through Jacobi's
    identity gives the mask of all its indices (``left_full``, ``right_full``),
    and its key is then the complement of its set S, c carrying (-1)^(sum S).
    """
    groups: dict[int, list] = {}
    for chosen in combinations(entries, k):
        rows, cols, coefficients, powers = zip(*chosen) if chosen else ((),) * 4
        flips = sum(a > b for n, a in enumerate(cols) for b in cols[n + 1 :])
        flips += (sum(rows) if left_full else 0) + (sum(cols) if right_full else 0)
        coefficient = -prod(coefficients) if flips % 2 else prod(coefficients)
        left, right = sum(1 << i for i in rows) ^ left_full, sum(1 << j for j in cols) ^ right_full
        groups.setdefault(sum(powers), []).append((left, right, coefficient))
    return sorted(groups.items())


def _pairing_terms(x_entries, y_entries) -> list[tuple[int, list[tuple[tuple[int, int], tuple[int, int], int]]]]:
    """Per power e of t, ascending, the ((a, c), (b, d), x y) over the entries x t^f at (a, b) of X and y t^g
    at (c, d) of Y with f + g = e, for monomial X and Y given by their (i, j, c, e) entries."""
    groups: dict[int, list] = {}
    for a, b, x, f in x_entries:
        for c, d, y, g in y_entries:
            groups.setdefault(f + g, []).append(((a, c), (b, d), x * y))
    return sorted(groups.items())


def _dual_pairing_terms(x_entries, y_entries) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """``_pairing_terms`` where both Gram tables are scalar, p I and q I, and read as the table {0: 1}: per power e
    of t, ascending, the one term (0, 0, s) for the sum s of x y over X's and Y's entries at one position with
    f + g = e, powers with s = 0 left out."""
    y_at = {(c, d): (y, g) for c, d, y, g in y_entries}
    sums: dict[int, int] = {}
    for a, b, x, f in x_entries:
        if (a, b) in y_at:
            y, g = y_at[a, b]
            sums[f + g] = sums.get(f + g, 0) + x * y
    return [(e, [(0, 0, total)]) for e, total in sorted(sums.items()) if total]


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
    """``sign`` times x^e sgn(x)^f for each (v, e, f) of a plan of ``lowest_terms``, x being factor v's det A or c:
    sgn(det A) |det A|^(k-1) is (v, k - 1, k), |det A| is (v, 1, 1), c^k is (v, k, 0) and sign(c)^k is (v, 0, k)."""
    for v, e, f in scalars:
        x = draw[v] if isinstance(draw[v], int) else draw[v][1]
        sign *= -(x**e) if x < 0 and f % 2 else x**e
    return sign


def _translate(left: tuple[int, list[list[int]]], x, right: tuple[int, list[list[int]]]) -> ScaledMatrix:
    """(L / l) x (R / r) for integer forms left = (l, L) and right = (r, R), l, r > 0.

    x (``ScaledMatrix.of``) is kept as its nonzero rows K.  Row k of X R is
    c times R's row l if (k, l) holds the row's one nonzero entry c, as in
    base points, else the row against R's columns.  The result, L[:, K]
    (X[K] R), over the scale l L_x r, is taken in integer row-column
    products; a zero x's columns are empty.
    """
    (left_scale, left), (right_scale, right) = left, right
    x = ScaledMatrix.of(x)
    shape, right_columns = (len(left), len(right[0]) if right else 0), list(zip(*right))
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


# ---------------------------------------------------------------------------
# The dilation monoid.


def monoid_model(m: int) -> tuple[SphericalDivisorModel, MatrixRealization]:
    """Divisor model and matrix realization of the rank-m dilation monoid."""
    model = _monoid_model(m)
    return model, _monoid_realization(m, model)


def _monoid_coroots(m: int) -> dict[str, dict[int, int]]:
    """Each monoid colour's coroot alpha_i^vee, sparse on eps_1..eps_{m+1}.

    alpha_i^vee pairs 1 with eps_i and -1 with eps_{i+1}; alpha_1^vee also
    pairs -1 with eps_{m+1}.  Keys come in the model's colour order.
    """
    table = {}
    for i in range(1, m):
        coroot = {i - 1: 1, i: -1}
        if i == 1:
            coroot[m] = -1
        table[f"D_{i}"] = coroot
    return table


def _monoid_cocharacters(m: int) -> dict[str, dict[tuple[int, int], int]]:
    """Each boundary curve's cocharacter, in boundary order: lambda_r scales a1's diagonal past r and b1's up to r."""
    return {f"lambda_{r}": {**{(0, k): 1 for k in range(r, m)}, **{(1, k): 1 for k in range(r)}} for r in range(m + 1)}


def _monoid_torus(m: int) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
    """The monoid torus table: eps_k is a1's k-th diagonal entry over a2's, eps_{m+1} b1's first over b2's."""
    return tuple(((0, k), (2, k)) for k in range(m)) + (((1, 0), (3, 0)),)


def _valuation(lattice: TorusLattice, torus, cocharacter: dict[tuple[int, int], int]) -> Covector:
    """The functional pairing basis character k, with torus[k] = (top, bottom), as lambda(top) - lambda(bottom).

    For the cocharacter lambda of a boundary curve this is the boundary's
    valuation: chi_k(lambda(t)) = t^(lambda(top) - lambda(bottom)) on the
    torus entries that ``torus`` names.
    """
    return lattice.covector([cocharacter.get(top, 0) - cocharacter.get(bottom, 0) for top, bottom in torus])


def _monoid_model(m: int) -> SphericalDivisorModel:
    if m < 1:
        raise FamilyParameterError("monoid requires m >= 1")

    labels = tuple(f"eps_{k}" for k in range(1, m + 2))
    lattice = TorusLattice(labels)
    basis = tuple(lattice.basis_character(lab) for lab in labels)
    coroot_table = _monoid_coroots(m)

    roots = []
    colors = []
    for i in range(1, m):
        root = [0] * (m + 1)
        root[i - 1] = 1
        root[i] = -1
        alpha = lattice.character(root)
        alpha_v = lattice.covector([coroot_table[f"D_{i}"].get(k, 0) for k in range(m + 1)])
        roots.append((f"alpha_{i}", alpha, alpha_v))
        colors.append(ColorSpec(f"D_{i}", alpha_v, canonical_coefficient=-2))

    torus, cochars = _monoid_torus(m), _monoid_cocharacters(m).values()
    boundaries = [BoundarySpec(f"X_{r}", _valuation(lattice, torus, lam)) for r, lam in enumerate(cochars)]

    char_aliases = tuple(
        (f"eps_{m + k}", basis[0] + basis[m] - basis[k - 1]) for k in range(2, m + 1)
    )

    return SphericalDivisorModel(
        weight_lattice=lattice,
        simple_roots=SimpleRootSet(tuple(roots)),
        colors=tuple(colors),
        boundaries=tuple(boundaries),
        basis_characters=basis,
        character_aliases=char_aliases,
    )


def _monoid_membership(point: Point) -> bool:
    # A^T B = A B^T = d I, tested on the stored L A and L' B: both products
    # scale by L L', and d with them.
    a = ScaledMatrix.of(point[0]).integers
    b = ScaledMatrix.of(point[1]).integers
    at_b = mat_mul(list(zip(*a)), b)
    d = at_b[0][0]
    return at_b == mat_mul(a, list(zip(*b))) == [[d * (i == j) for j in range(len(a))] for i in range(len(a))]


def _monoid_realization(m: int, model: SphericalDivisorModel) -> MatrixRealization:
    identity = _monomial_matrix(m, m, [(k, k) for k in range(m)])
    lattice = model.weight_lattice
    # The dilation d = sum a_ij b_ij / m, then the leading and trailing minors of A.
    d_weight = lattice.basis_character("eps_1") + lattice.basis_character(f"eps_{m + 1}")
    semi = [SemiInvariantSpec("d", d_weight, Pairing(0, 1, m))]
    for i in range(1, m + 1):
        chi = lattice.character([1 if k < i else 0 for k in range(m)] + [0])
        semi.append(SemiInvariantSpec(f"Delta_{i}", chi, Minor(0, i)))
    for i in range(1, m):
        chi = lattice.character([1 if k >= m - i else 0 for k in range(m)] + [0])
        semi.append(SemiInvariantSpec(f"Delta_trail_{i}", chi, Minor(0, i, trailing=True)))

    cochars = _monoid_cocharacters(m).items()
    curves = [Curve(label, lam, (r, m - r), f"X_{r}") for r, (label, lam) in enumerate(cochars)]

    def stabilizer_sampler(rng: random.Random) -> tuple[Factor, ...]:
        # The one inverse of a stabilizer draw: the dual factor's matrix is c A^-T.
        a = _unit(_rand_nonsingular(rng, m, _GENERIC_RANGE)[0])
        g = (a[:2], _dual_unit(a, rng.choice(_SCALARS))[:2])
        return g + g

    return MatrixRealization(
        base_point=(identity, identity),
        membership=_monoid_membership,
        arrows=((0, 2), (1, 3)),  # (a1, b1, a2, b2) . (X, Y) = (a1 X a2^-1, b1 Y b2^-1)
        # a1 lower, so b1 = c a1^-T upper; a2 upper, so b2 lower.
        borel_lower=(True, False, False, True),
        dual_factors=((0, 1), (2, 3)),
        torus=_monoid_torus(m),
        semi_invariants=tuple(semi),
        curves=tuple(curves),
        expected_orbit_dimension=m * m + 1,
        stabilizer_sampler=stabilizer_sampler,
    )


# ---------------------------------------------------------------------------
# Quiver realizations: prod GL(dims) acting on the arrow spaces of a quiver.


def _quiver_parts(factors: int, arrows, ranks, zero_paths=()) -> dict:
    """Arrows, membership and Borel orientation of a quiver realization on ``factors`` factors.

    Arrow k = (s, t) carries a matrix X_k, moved by g . X_k = g_s X_k g_t^-1.
    A point is a member when rk X_k <= ranks[k] and X_i X_j = 0 for every
    (i, j) in ``zero_paths``.  Borel elements are lower triangular at even
    vertices and upper triangular at odd ones (``borel_lower``).
    """

    def membership(point: Point) -> bool:
        # Ranks and zero compositions are unchanged by scaling each arrow
        # matrix, so they are read on the stored integers.
        scaled = [ScaledMatrix.of(x).integers for x in point]
        if any(rational_rank(x) > k for x, k in zip(scaled, ranks)):
            return False
        return all(e == 0 for i, j in zero_paths for row in mat_mul(scaled[i], scaled[j]) for e in row)

    return {"arrows": arrows, "membership": membership, "borel_lower": tuple(v % 2 == 0 for v in range(factors))}


# ---------------------------------------------------------------------------
# Circular complexes.


def _standard_er(r: int) -> list[tuple[int, int]]:
    """E_r, ones on the first r diagonal entries, as ``_monomial_matrix`` positions."""
    return [(i, i) for i in range(r)]


def _standard_fs(rows: int, cols: int, s: int) -> list[tuple[int, int]]:
    """F_s, ones on the last s entries of the bottom-right diagonal, as ``_monomial_matrix`` positions."""
    return [(rows - s + k, cols - s + k) for k in range(s)]


def _circular_parameters(m: int, n: int, r: int, s: int) -> tuple[int, int, int, int]:
    """The circular parameters with m <= n, or ``FamilyParameterError``.

    Swapping the two sides (m, r) <-> (n, s) when m > n gives the same variety,
    so every circular entry point normalises through here.  A member carries a
    model when 0 <= r, s and r + s <= m, except the degenerate (r, s) in
    {(0, 0), (m, 0), (0, m)}.
    """
    if m > n:
        m, n, r, s = n, m, s, r
    if r < 0 or s < 0:
        raise FamilyParameterError("rank bounds must be nonnegative")
    if r + s > m:
        raise FamilyParameterError("need r + s <= min(m, n)")
    if (r, s) in {(0, 0), (m, 0), (0, m)}:
        raise FamilyParameterError(f"(r, s) = {(r, s)} is a degenerate case with no model")
    return m, n, r, s


def circular_complexes_model(m: int, n: int, r: int, s: int) -> tuple[SphericalDivisorModel, MatrixRealization]:
    """Divisor model and realization for pairs (A, B) with AB = BA = 0 and rank bounds."""
    m, n, r, s = _circular_parameters(m, n, r, s)
    model = _circular_model(m, n, r, s)
    return model, _circular_realization(m, n, r, s, model)


def _circular_model(m: int, n: int, r: int, s: int) -> SphericalDivisorModel:
    """The circular divisor model for parameters as given (no swap, no checks).

    At s = 0 it is the model of the m x n matrices of rank <= r.
    """
    labels = tuple(f"eps_{i}" for i in range(1, r + 1)) + tuple(f"delta_{j}" for j in range(1, s + 1))
    lattice = TorusLattice(labels)
    torus = _circular_torus(m, n, r, s)

    def pulled_back(coroot: dict[int, int]) -> Covector:
        # Ambient entry (f, i) sits at f m + i, and basis character k has weight -(top - bottom) there.
        return _valuation(lattice, torus, {(0, a) if a < m else (1, a - m): -c for a, c in coroot.items()})

    functionals = {}
    for label, (first, *others) in _circular_coroots(m, n, r, s).items():
        functionals[label] = pulled_back(first)
        if any(pulled_back(c) != functionals[label] for c in others):
            raise ValueError(f"the coroots of colour {label} pull back to different functionals")

    # An exterior colour on the side of size m (1) or n (2) has coefficient
    # -(size - (r + s) + 1).  A D_s<side> that the coroot table leaves out
    # while s > 0 is merged into D_r<side>, whose coroot pulls back to both
    # functionals' sum: the coefficient doubles and D_s<side> is an alias.
    coefficients, aliases = {}, []
    for side, size in enumerate((m, n), start=1):
        coefficient = -(size - (r + s) + 1)
        merged = s > 0 and f"D_s{side}" not in functionals
        coefficients[f"D_r{side}"] = 2 * coefficient if merged else coefficient
        coefficients[f"D_s{side}"] = coefficient
        if merged:
            aliases.append((f"D_s{side}", f"D_r{side}"))
    colors = [ColorSpec(lab, f, canonical_coefficient=coefficients.get(lab, -2)) for lab, f in functionals.items()]

    simple = [(f"alpha_{i}", f"D_{i}", {i - 1: 1, i: -1}) for i in range(1, r)]
    simple += [(f"beta_{j}", f"E_{j}", {r + j - 1: -1, r + j: 1}) for j in range(1, s)]
    roots = [
        (root, lattice.character(coords.get(k, 0) for k in range(r + s)), functionals[color])
        for root, color, coords in simple
    ]

    boundaries = []
    if m == n and r + s == m:
        ids = (f"X_{{{r - 1},{m - r}}}", f"X_{{{r},{m - r - 1}}}")
        cochars = _circular_cocharacters(r, s).values()
        boundaries = [BoundarySpec(i, _valuation(lattice, torus, lam)) for i, lam in zip(ids, cochars)]

    return SphericalDivisorModel(
        weight_lattice=lattice,
        simple_roots=SimpleRootSet(tuple(roots)),
        colors=tuple(colors),
        boundaries=tuple(boundaries),
        basis_characters=tuple(lattice.basis_character(lab) for lab in lattice.labels),
        label_aliases=tuple(aliases),
    )


def _circular_cocharacters(r: int, s: int) -> dict[str, dict[tuple[int, int], int]]:
    """lambda_r (r >= 1) scales g1's diagonal entry r, 1-based, by t, moving E_r's last one; mu_r
    (s >= 1) scales g2's entry r + 1, moving F_s's first one when r + s = n and nothing otherwise."""
    table = {}
    if r:
        table[f"lambda_{r}"] = {(0, r - 1): 1}
    if s:
        table[f"mu_{r}"] = {(1, r): 1}
    return table


def _circular_coroots(m: int, n: int, r: int, s: int) -> dict[str, tuple[dict[int, int], ...]]:
    """Each circular colour's coroots, as sparse vectors on the ambient torus.

    Ambient coordinates are the m left-torus coordinates, then the n right
    ones.  The colours D_i and E_j pair a left with a right coroot; the
    exterior colours have one each, and a merged D_s1 or D_s2 has none of
    its own.  Keys come in the model's colour order.
    """

    def left(i: int) -> dict[int, int]:
        # coroot of -eps_{i,1} + eps_{i+1,1}  (1-based i)
        return {i - 1: -1, i: 1}

    def right(i: int) -> dict[int, int]:
        # coroot of eps_{i,2} - eps_{i+1,2}
        return {m + i - 1: 1, m + i: -1}

    table = {f"D_{i}": (left(i), right(i)) for i in range(1, r)}
    table.update({f"E_{j}": (left(m - s + j), right(n - s + j)) for j in range(1, s)})
    if r > 0:
        table["D_r1"] = (left(r),)
        table["D_r2"] = (right(r),)
    if s > 0 and not (r > 0 and r + s == m):
        table["D_s1"] = (left(m - s),)
    if s > 0 and not (r > 0 and r + s == n):
        table["D_s2"] = (right(n - s),)
    return table


def _circular_torus(m: int, n: int, r: int, s: int) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
    """The circular torus table: eps_i is g1's i-th diagonal entry over g2's, and
    delta_j g2's entry n - s + j over g1's entry m - s + j."""
    return tuple(((0, i), (1, i)) for i in range(r)) + tuple(((1, n - s + j), (0, m - s + j)) for j in range(s))


def _circular_realization(m: int, n: int, r: int, s: int, model: SphericalDivisorModel) -> MatrixRealization:
    base = (_monomial_matrix(m, n, _standard_er(r)), _monomial_matrix(n, m, _standard_fs(n, m, s)))
    arrows = ((0, 1), (1, 0))
    limit_ranks = {f"lambda_{r}": (r - 1, s), f"mu_{r}": (r, s - 1 if r + s == n else s)}
    # A member with boundaries has both curves, in the model's boundary order.
    curves = [
        Curve(label, lam, limit_ranks[label], boundary)
        for (label, lam), boundary in zip(_circular_cocharacters(r, s).items(), model.boundary_ids or (None, None))
    ]

    return MatrixRealization(
        base_point=base,
        torus=_circular_torus(m, n, r, s),
        curves=tuple(curves),
        expected_orbit_dimension=(r + s) * (m + n - (r + s)),
        stabilizer_sampler=lambda rng: sample_circular_stabilizer(rng, m, n, r, s),
        **_quiver_parts(2, arrows, (r, s), ((0, 1), (1, 0))),
    )


def _block_matrix(blocks, row_sizes: Sequence[int], col_sizes: Sequence[int]) -> list[list[int]]:
    """The integer matrix of a grid of blocks, ``None`` for a zero block."""
    rows = []
    for bi, rsize in enumerate(row_sizes):
        for i in range(rsize):
            row = []
            for bj, csize in enumerate(col_sizes):
                blk = blocks[bi][bj]
                row.extend([0] * csize if blk is None else blk[i])
            rows.append(row)
    return rows


def sample_circular_stabilizer(rng: random.Random, m: int, n: int, r: int, s: int) -> tuple[Factor, ...]:
    """A random element of the block-shaped stabilizer of the base idempotent, as factors (1, L)."""
    shared_11 = _rand_nonsingular(rng, r)[0]
    shared_33 = _rand_nonsingular(rng, s)[0]
    a22 = _rand_nonsingular(rng, m - r - s)[0]
    b22 = _rand_nonsingular(rng, n - r - s)[0]
    a = _block_matrix(
        [
            [shared_11, _rand_int_matrix(rng, r, m - r - s), _rand_int_matrix(rng, r, s)],
            [None, a22, _rand_int_matrix(rng, m - r - s, s)],
            [None, None, shared_33],
        ],
        (r, m - r - s, s),
        (r, m - r - s, s),
    )
    b = _block_matrix(
        [
            [shared_11, None, None],
            [_rand_int_matrix(rng, n - r - s, r), b22, None],
            [_rand_int_matrix(rng, s, r), _rand_int_matrix(rng, s, n - r - s), shared_33],
        ],
        (r, n - r - s, s),
        (r, n - r - s, s),
    )
    return ((1, a), (1, b))


# ---------------------------------------------------------------------------
# Determinantal varieties.


def determinantal_realization(m: int, n: int, r: int) -> tuple[MatrixRealization, SphericalDivisorModel]:
    """Matrix realization plus the divisor model of the m x n matrices of rank <= r."""
    model = _determinantal_model(m, n, r)
    return _determinantal_realization(m, n, r, model.weight_lattice), model


def _determinantal_model(m: int, n: int, r: int) -> SphericalDivisorModel:
    """The circular model at s = 0, in closed form: it has no boundary divisor.

    The complement of the open orbit is the rank <= r - 1 locus, of dimension
    (r - 1)(m + n - r + 1) and so of codimension m + n - 2r + 1 >= 3 (Bruns-Vetter,
    *Determinantal Rings*, LNM 1327, 1988), so it holds no divisor.
    """
    if not 0 < r < min(m, n):
        raise FamilyParameterError("determinantal requires 0 < r < min(m, n)")
    return _circular_model(m, n, r, 0)


def _determinantal_realization(m: int, n: int, r: int, lattice: TorusLattice) -> MatrixRealization:
    semi = []
    for i in range(1, r + 1):
        chi = lattice.character([1 if k < i else 0 for k in range(r)])
        semi.append(SemiInvariantSpec(f"Delta_{i}", chi, Minor(0, i)))

    # The circular lambda_r at s = 0; its limit spans the rank <= r - 1 orbit X_{r-1}, which is no divisor.
    lam = _circular_cocharacters(r, 0)[f"lambda_{r}"]

    return MatrixRealization(
        base_point=(_monomial_matrix(m, n, _standard_er(r)),),
        torus=_circular_torus(m, n, r, 0),
        semi_invariants=tuple(semi),
        curves=(Curve(f"lambda_{r}", lam, (r - 1,), f"X_{r - 1}"),),
        expected_orbit_dimension=r * (m + n - r),
        stabilizer_sampler=lambda rng: sample_circular_stabilizer(rng, m, n, r, 0),
        **_quiver_parts(2, ((0, 1),), (r,)),
    )


def finalize_determinantal_model(
    model: SphericalDivisorModel, realization: MatrixRealization, trials: int = 8, seed: int = 0
) -> SphericalDivisorModel:
    """``model``, once no boundary-labelled curve of ``realization`` reaches a divisor.

    The orbit of each such curve's limit at t = 0 is measured with the
    Jacobian-rank oracle, and one of codimension 1 raises ``ValueError``: the
    determinantal model is built in closed form with no boundary divisor
    (``_determinantal_model``).  ``trials`` and ``seed`` are not read, and
    nothing in the package calls this check.
    """
    from . import oracle

    base_dim = oracle.base_orbit_dimension(realization)
    for c in (c for c in realization.curves if c.boundary is not None):
        limit = oracle.curve_signature(realization, c.label).limit_point
        if base_dim - oracle.orbit_dimension(realization, limit) == 1:
            raise ValueError(f"the limit of {c.label} lies in a divisor, {c.boundary}")
    return model


# ---------------------------------------------------------------------------
# Varieties of complexes (realization only).


def _check_complexes_parameters(l: int, m: int, n: int, r: int, s: int) -> None:
    if not (0 <= r <= l and 0 <= s <= n and r + s <= m):
        raise FamilyParameterError("complexes requires 0 <= r <= l, 0 <= s <= n, r + s <= m")


def complexes_realization(l: int, m: int, n: int, r: int, s: int) -> MatrixRealization:
    """Pairs (A, B) in Mat(l,m) x Mat(m,n) with rk A <= r, rk B <= s, AB = 0."""
    _check_complexes_parameters(l, m, n, r, s)

    def stabilizer_sampler(rng: random.Random) -> tuple[Factor, ...]:
        a11 = _rand_nonsingular(rng, r)[0]
        c22 = _rand_nonsingular(rng, s)[0]
        a_full = _block_matrix(
            [[a11, _rand_int_matrix(rng, r, l - r)], [None, _rand_nonsingular(rng, l - r)[0]]],
            (r, l - r),
            (r, l - r),
        )
        b_full = _block_matrix(
            [
                [a11, None, None],
                [_rand_int_matrix(rng, m - r - s, r), _rand_nonsingular(rng, m - r - s)[0], None],
                [_rand_int_matrix(rng, s, r), _rand_int_matrix(rng, s, m - r - s), c22],
            ],
            (r, m - r - s, s),
            (r, m - r - s, s),
        )
        c_full = _block_matrix(
            [[_rand_nonsingular(rng, n - s)[0], _rand_int_matrix(rng, n - s, s)], [None, c22]],
            (n - s, s),
            (n - s, s),
        )
        return ((1, a_full), (1, b_full), (1, c_full))

    return MatrixRealization(
        base_point=(_monomial_matrix(l, m, _standard_er(r)), _monomial_matrix(m, n, _standard_fs(m, n, s))),
        # The orbit of complexes of ranks (r, s) (De Concini-Strickland 1981).
        expected_orbit_dimension=r * (l + m - r) + s * (m + n - s) - r * s,
        stabilizer_sampler=stabilizer_sampler,
        **_quiver_parts(3, ((0, 1), (1, 2)), (r, s), ((0, 1),)),
    )


# ---------------------------------------------------------------------------
# Wonderful-compactification coroot data for the families.


def _wonderful(labels: tuple[str, ...], table: dict[str, tuple[dict[int, int], ...]]) -> WonderfulModel:
    """Wonderful data on the torus with ``labels`` from a table of sparse coroots.

    Each colour keeps its one or two coroots, in the table's order.
    """
    lattice = TorusLattice(labels)

    def cov(sparse: dict[int, int]) -> Covector:
        v = [0] * len(labels)
        for k, c in sparse.items():
            v[k] = c
        return lattice.covector(v)

    return WonderfulModel(lattice, tuple((lab, tuple(cov(c) for c in cors)) for lab, cors in table.items()))


def monoid_wonderful(m: int) -> WonderfulModel:
    if m < 1:
        raise FamilyParameterError("monoid requires m >= 1")
    labels = tuple(f"eps_{k}_1" for k in range(1, m + 2)) + tuple(f"eps_{k}_2" for k in range(1, m + 2))
    # D_i pairs -alpha_i^vee on the first copy with alpha_i^vee on the second.
    return _wonderful(
        labels,
        {
            lab: ({k: -c for k, c in coroot.items()}, {m + 1 + k: c for k, c in coroot.items()})
            for lab, coroot in _monoid_coroots(m).items()
        },
    )


def circular_wonderful(m: int, n: int, r: int, s: int) -> WonderfulModel:
    return _circular_wonderful(*_circular_parameters(m, n, r, s))


def _circular_wonderful(m: int, n: int, r: int, s: int) -> WonderfulModel:
    """Wonderful data for circular parameters as given (no swap, no checks)."""
    labels = tuple(f"eps_{i}_1" for i in range(1, m + 1)) + tuple(f"eps_{j}_2" for j in range(1, n + 1))
    return _wonderful(labels, _circular_coroots(m, n, r, s))


# ---------------------------------------------------------------------------
# Family specifier grammar:  monoid:m=3  circular:m=2,n=3,r=1,s=1
#                            determinantal:m,n,r  complexes:l,m,n,r,s


_FAMILY_PARAMS = {
    "monoid": ("m",),
    "circular": ("m", "n", "r", "s"),
    "determinantal": ("m", "n", "r"),
    "complexes": ("l", "m", "n", "r", "s"),
}


def parse_family_spec(text: str) -> tuple[str, dict[str, int]]:
    name, sep, rest = text.partition(":")
    name = name.strip()
    if name not in _FAMILY_PARAMS:
        raise FamilyParameterError(f"unknown family {name!r}")
    wanted = _FAMILY_PARAMS[name]
    if not sep or not rest.strip():
        raise FamilyParameterError(f"family {name} requires parameters {','.join(wanted)}")
    params: dict[str, int] = {}
    tokens = [tok.strip() for tok in rest.split(",") if tok.strip()]
    positional: list[int] = []
    for tok in tokens:
        if "=" in tok:
            key, _, val = tok.partition("=")
            key = key.strip()
            if key not in wanted:
                raise FamilyParameterError(f"unknown parameter {key!r} for family {name}")
            if key in params:
                raise FamilyParameterError(f"duplicate parameter {key!r}")
            params[key] = parse_integer(val)
        else:
            positional.append(parse_integer(tok))
    if positional:
        if params or len(positional) != len(wanted):
            raise FamilyParameterError(f"family {name} takes parameters {','.join(wanted)}")
        params = dict(zip(wanted, positional))
    missing = [k for k in wanted if k not in params]
    if missing:
        raise FamilyParameterError(f"missing parameters for {name}: {','.join(missing)}")
    return name, params


_INTEGER_TEXT = re.compile(r"[+-]?[0-9]+")


def parse_integer(text: str) -> int:
    """``text``, stripped, read as exactly ``[+-]?[0-9]+`` in ASCII digits, or ``FamilyParameterError``.

    Every integer on the command line is read here: ``int`` alone would also
    read ``1_0`` as 10, and non-ASCII digits.
    """
    stripped = text.strip()
    if _INTEGER_TEXT.fullmatch(stripped) is None:
        raise FamilyParameterError(f"parameter value {stripped!r} is not an integer")
    return int(stripped)


class FamilyBundle:
    """A family member's divisor model, wonderful data and matrix realization.

    The model is a value, ``None`` for a family with none.  The realization
    and the wonderful data are each built on first read, once per bundle, by
    their thunk, and wonderful data with no thunk reads as ``None``.  The
    realization is validated as it is built.
    """

    def __init__(
        self,
        name: str,
        params: dict[str, int],
        realize: Callable[[], MatrixRealization],
        model: SphericalDivisorModel | None = None,
        wonder: Callable[[], WonderfulModel] | None = None,
    ):
        self.name = name
        self.params = params
        self.model = model
        self._realize = realize
        self._wonder = wonder

    @cached_property
    def realization(self) -> MatrixRealization:
        return self._realize()

    @cached_property
    def wonderful(self) -> WonderfulModel | None:
        return None if self._wonder is None else self._wonder()


def build_family(spec: str, trials: int = 8, seed: int = 0) -> FamilyBundle:
    """Construct the model/realization bundle for a family specifier string.

    Parameters are checked, and the divisor model built, here.  The
    realization and the wonderful data are built when ``bundle.realization``
    and ``bundle.wonderful`` are first read.  ``trials`` and ``seed`` are
    accepted and do not affect the bundle: no model is built with the oracle.
    """
    name, params = parse_family_spec(spec)
    if name == "monoid":
        m = params["m"]
        model = _monoid_model(m)
        return FamilyBundle(name, params, lambda: _monoid_realization(m, model), model, lambda: monoid_wonderful(m))
    if name == "circular":
        m, n, r, s = _circular_parameters(**params)
        model = _circular_model(m, n, r, s)
        return FamilyBundle(
            name, params, lambda: _circular_realization(m, n, r, s, model), model, lambda: _circular_wonderful(m, n, r, s)
        )
    if name == "determinantal":
        m, n, r = params["m"], params["n"], params["r"]
        model = _determinantal_model(m, n, r)
        return FamilyBundle(
            name,
            params,
            lambda: _determinantal_realization(m, n, r, model.weight_lattice),
            model,
            lambda: _circular_wonderful(m, n, r, 0),
        )
    _check_complexes_parameters(**params)
    return FamilyBundle(name, params, lambda: complexes_realization(**params))


def admissible_circular_parameters(max_m: int, max_n: int):
    """All (m, n, r, s) with m <= n within bounds that carry a divisor model."""
    out = []
    for m in range(1, max_m + 1):
        for n in range(m, max_n + 1):
            for r in range(m + 1):
                for s in range(m + 1):
                    try:
                        out.append(_circular_parameters(m, n, r, s))
                    except FamilyParameterError:
                        pass
    return out
