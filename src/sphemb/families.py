"""The example families: their divisor models, wonderful data and matrix realizations.

Four families are provided:

* ``monoid``: the dilation monoid of matrix pairs (A, B) with
  A^T B = A B^T = d(A,B) I, embedded blockwise; its divisor model and a
  matrix realization with boundary curves and semi-invariants.
* ``circular``: pairs (A, B) with AB = 0, BA = 0 and rank bounds.
* ``determinantal``: single matrices of bounded rank; the divisor model is
  the circular one at s = 0 and has no boundary divisor.
* ``complexes``: pairs (A, B) with AB = 0 and rank bounds; matrix
  realization only.

``build_family`` builds every member, from its specifier, through one table
(``_FAMILIES``) of each family's parameter names and member builder.  A
realization (``realization.MatrixRealization``) is data: a family passes
its base point, arrows, Borel orientation, dual factor pairs, torus,
semi-invariants, curves and stabilizer sampler.  ``_quiver_parts`` builds
the last three families' arrows, membership test and Borel orientation.

Divisor functionals are derived, one table per fact.  A boundary's valuation
is its curve's cocharacter read through the torus table (``_valuation``:
basis character k, torus[k] = (top, bottom), pairs as lambda(top) -
lambda(bottom)), so the curves, the Borel weights and the model read the
same ``_monoid_torus`` / ``_circular_torus`` and cocharacter tables.  A
monoid colour's functional is its coroot in ``_monoid_coroots``; a circular
colour's is its first coroot in ``_circular_coroots`` pulled back through
the torus, and a paired colour's two coroots must pull back alike
(``ValueError`` otherwise).  Every colour's canonical coefficient is read off
the same coroot tables by Brion's formula (``_canonical_coefficients``), and
``_wonderful`` builds both families' wonderful data from them; the
determinantal model and wonderful data are the circular ones at s = 0.
"""

from __future__ import annotations

import random
import re
from functools import cached_property
from typing import Callable

from . import oracle
from .divisor_model import BoundarySpec, ColorSpec, SphericalDivisorModel, WonderfulModel
from .lattice import mat_mul, rational_rank
from .realization import (
    _GENERIC_RANGE,
    _SCALARS,
    Curve,
    Factor,
    MatrixRealization,
    Minor,
    Pairing,
    Point,
    SemiInvariantSpec,
    _dual_unit,
    _monomial_matrix,
    _rand_int_matrix,
    _rand_nonsingular,
    _unit,
    _zeros,
)
from .rootdata import Covector, SimpleRootSet, TorusLattice


class FamilyParameterError(ValueError):
    """Family parameters outside the admissible range."""


# ---------------------------------------------------------------------------
# The dilation monoid.


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


def _canonical_coefficients(table: dict[str, tuple[dict[int, int], ...]], ends: tuple[int, ...]) -> dict[str, int]:
    """Each colour's canonical coefficient -a_D, by Brion's formula a_D = <2 rho_G - 2 rho_L, alpha^vee> for type b.

    alpha^vee is the colour's first coroot, joining ambient coordinates a = min(alpha^vee) and a + 1.  In type A,
    a_D is the size of L's block holding a plus that of the block holding a + 1.  L's blocks are cut after each
    coroot the table lists (at its a) and after each GL factor's last coordinate (``ends``), so a_D is the next cut
    above a less the previous one below it, -1 before the first (Brion, *Variétés sphériques et théorie de Mori*,
    Duke Math. J. 72, 1993).
    """
    cuts = [-1, *sorted({min(c) for coroots in table.values() for c in coroots} | set(ends))]
    at = {lab: cuts.index(min(first)) for lab, (first, *_) in table.items()}
    return {lab: cuts[i - 1] - cuts[i + 1] for lab, i in at.items()}


def _monoid_model(m: int) -> SphericalDivisorModel:
    labels = tuple(f"eps_{k}" for k in range(1, m + 2))
    lattice = TorusLattice(labels)
    basis = tuple(lattice.basis_character(lab) for lab in labels)
    coroot_table = _monoid_coroots(m)

    coefficients = _canonical_coefficients({lab: (c,) for lab, c in coroot_table.items()}, (m - 1, m))
    roots = []
    colors = []
    for i in range(1, m):
        root = [0] * (m + 1)
        root[i - 1] = 1
        root[i] = -1
        alpha = lattice.character(root)
        alpha_v = lattice.covector([coroot_table[f"D_{i}"].get(k, 0) for k in range(m + 1)])
        roots.append((f"alpha_{i}", alpha, alpha_v))
        colors.append(ColorSpec(f"D_{i}", alpha_v, coefficients[f"D_{i}"]))

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
    a, b = point[0].integers, point[1].integers
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


def _monoid(m: int):
    """The rank-m dilation monoid's model, realization and wonderful data, as ``build_family`` takes them."""
    if m < 1:
        raise FamilyParameterError("monoid requires m >= 1")
    model = _monoid_model(m)
    return model, lambda: _monoid_realization(m, model), lambda: _monoid_wonderful(m)


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
        scaled = [x.integers for x in point]
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

    functionals, table = {}, _circular_coroots(m, n, r, s)
    for label, (first, *others) in table.items():
        functionals[label] = pulled_back(first)
        if any(pulled_back(c) != functionals[label] for c in others):
            raise ValueError(f"the coroots of colour {label} pull back to different functionals")
    coefficients = _canonical_coefficients(table, (m - 1, m + n - 1))
    colors = [ColorSpec(lab, f, coefficients[lab]) for lab, f in functionals.items()]
    # A D_s<side> that the table leaves out while s > 0 is merged into D_r<side>.
    aliases = [(f"D_s{side}", f"D_r{side}") for side in (1, 2) if s > 0 and f"D_s{side}" not in functionals]

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


def _circular(m: int, n: int, r: int, s: int):
    """The model, realization and wonderful data of pairs (A, B) with AB = BA = 0 and rank bounds."""
    m, n, r, s = _circular_parameters(m, n, r, s)
    model = _circular_model(m, n, r, s)
    return model, lambda: _circular_realization(m, n, r, s, model), lambda: _circular_wonderful(m, n, r, s)


def _block_triangular(rng: random.Random, diagonal, upper: bool) -> list[list[int]]:
    """The integer matrix of a block-triangular grid, drawn block by block in row-major order.

    Each diagonal block is given as a matrix, or as a size and drawn in place
    by ``_rand_nonsingular``; each block above the diagonal (``upper``), or
    below it, is drawn by ``_rand_int_matrix``, and every other block is zero.
    """
    sizes = [d if isinstance(d, int) else len(d) for d in diagonal]
    rows = []
    for i, height in enumerate(sizes):
        blocks = []
        for j, width in enumerate(sizes):
            if i == j:
                blocks.append(_rand_nonsingular(rng, height)[0] if isinstance(diagonal[i], int) else diagonal[i])
            else:
                blocks.append(_rand_int_matrix(rng, height, width) if (j > i) == upper else _zeros(height, width))
        rows += [sum(line, []) for line in zip(*blocks)]
    return rows


def sample_circular_stabilizer(rng: random.Random, m: int, n: int, r: int, s: int) -> tuple[Factor, ...]:
    """A random element of the block-shaped stabilizer of the base idempotent, as factors (1, L)."""
    first, last, a22, b22 = (_rand_nonsingular(rng, k)[0] for k in (r, s, m - r - s, n - r - s))
    a = _block_triangular(rng, (first, a22, last), True)
    return ((1, a), (1, _block_triangular(rng, (first, b22, last), False)))


# ---------------------------------------------------------------------------
# Determinantal varieties.


def _determinantal_realization(m: int, n: int, r: int, model: SphericalDivisorModel) -> MatrixRealization:
    lattice, semi = model.weight_lattice, []
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


def _determinantal(m: int, n: int, r: int):
    """The model, realization and wonderful data of the m x n matrices of rank <= r.

    The model is the circular one at s = 0, in closed form: it has no
    boundary divisor.  The complement of the open orbit is the rank <= r - 1
    locus, of dimension (r - 1)(m + n - r + 1) and so of codimension
    m + n - 2r + 1 >= 3 (Bruns-Vetter, *Determinantal Rings*, LNM 1327, 1988),
    so it holds no divisor.
    """
    if not 0 < r < min(m, n):
        raise FamilyParameterError("determinantal requires 0 < r < min(m, n)")
    model = _circular_model(m, n, r, 0)
    return model, lambda: _determinantal_realization(m, n, r, model), lambda: _circular_wonderful(m, n, r, 0)


def finalize_determinantal_model(
    model: SphericalDivisorModel, realization: MatrixRealization, trials: int = 8, seed: int = 0
) -> SphericalDivisorModel:
    """``model``, once no boundary-labelled curve of ``realization`` reaches a divisor.

    The orbit of each such curve's limit at t = 0 is measured with the
    Jacobian-rank oracle, and one of codimension 1 raises ``ValueError``: the
    determinantal model is built in closed form with no boundary divisor
    (``_determinantal``).  ``trials`` and ``seed`` are not read, and
    nothing in the package calls this check.
    """
    base_dim = oracle.orbit_dimension(realization)
    for c in (c for c in realization.curves if c.boundary is not None):
        limit = oracle.limit_signature(realization, c.label).limit_point
        if base_dim - oracle.orbit_dimension(realization, limit) == 1:
            raise ValueError(f"the limit of {c.label} lies in a divisor, {c.boundary}")
    return model


# ---------------------------------------------------------------------------
# Varieties of complexes (realization only).


def _complexes_realization(l: int, m: int, n: int, r: int, s: int) -> MatrixRealization:
    """Pairs (A, B) in Mat(l,m) x Mat(m,n) with rk A <= r, rk B <= s, AB = 0."""

    def stabilizer_sampler(rng: random.Random) -> tuple[Factor, ...]:
        a11, c22 = (_rand_nonsingular(rng, k)[0] for k in (r, s))
        grids = (((a11, l - r), True), ((a11, m - r - s, c22), False), ((n - s, c22), True))
        return tuple((1, _block_triangular(rng, diagonal, upper)) for diagonal, upper in grids)

    return MatrixRealization(
        base_point=(_monomial_matrix(l, m, _standard_er(r)), _monomial_matrix(m, n, _standard_fs(m, n, s))),
        # The orbit of complexes of ranks (r, s) (De Concini-Strickland 1981).
        expected_orbit_dimension=r * (l + m - r) + s * (m + n - s) - r * s,
        stabilizer_sampler=stabilizer_sampler,
        **_quiver_parts(3, ((0, 1), (1, 2)), (r, s), ((0, 1),)),
    )


def _complexes(l: int, m: int, n: int, r: int, s: int):
    """No model, the realization and no wonderful data: the varieties of complexes have a realization only."""
    if not (0 <= r <= l and 0 <= s <= n and r + s <= m):
        raise FamilyParameterError("complexes requires 0 <= r <= l, 0 <= s <= n, r + s <= m")
    return None, lambda: _complexes_realization(l, m, n, r, s), None


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


def _monoid_wonderful(m: int) -> WonderfulModel:
    """Wonderful data of the rank-m dilation monoid (no checks)."""
    labels = tuple(f"eps_{k}_1" for k in range(1, m + 2)) + tuple(f"eps_{k}_2" for k in range(1, m + 2))
    # D_i pairs -alpha_i^vee on the first copy with alpha_i^vee on the second.
    return _wonderful(
        labels,
        {
            lab: ({k: -c for k, c in coroot.items()}, {m + 1 + k: c for k, c in coroot.items()})
            for lab, coroot in _monoid_coroots(m).items()
        },
    )


def _circular_wonderful(m: int, n: int, r: int, s: int) -> WonderfulModel:
    """Wonderful data for circular parameters as given (no swap, no checks)."""
    labels = tuple(f"eps_{i}_1" for i in range(1, m + 1)) + tuple(f"eps_{j}_2" for j in range(1, n + 1))
    return _wonderful(labels, _circular_coroots(m, n, r, s))


# ---------------------------------------------------------------------------
# Family specifier grammar:  monoid:m=3  circular:m=2,n=3,r=1,s=1
#                            determinantal:m,n,r  complexes:l,m,n,r,s


# Per family, its parameter names and its member builder: the parameters in,
# checked, and (model, realization thunk, wonderful thunk) out, ``None`` for
# what the family has not.
_FAMILIES = {
    "monoid": (("m",), _monoid),
    "circular": (("m", "n", "r", "s"), _circular),
    "determinantal": (("m", "n", "r"), _determinantal),
    "complexes": (("l", "m", "n", "r", "s"), _complexes),
}


def parse_family_spec(text: str) -> tuple[str, dict[str, int]]:
    name, sep, rest = text.partition(":")
    name = name.strip()
    if name not in _FAMILIES:
        raise FamilyParameterError(f"unknown family {name!r}")
    wanted = _FAMILIES[name][0]
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


def build_family(spec: str, seed: int = 0) -> FamilyBundle:
    """Construct the model/realization bundle for a family specifier string.

    Parameters are checked, and the divisor model built, here.  The
    realization and the wonderful data are built when ``bundle.realization``
    and ``bundle.wonderful`` are first read.  Nothing reads ``seed`` (no model is
    built with the oracle); only the benchmark's model-cold workload passes it.
    """
    name, params = parse_family_spec(spec)
    model, realize, wonder = _FAMILIES[name][1](**params)
    return FamilyBundle(name, params, realize, model, wonder)


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
