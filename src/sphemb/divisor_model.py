"""Divisor calculus on a combinatorial model of a spherical embedding.

A model carries the weight lattice, the simple roots restricted to it, one
pairing functional per colour, one invariant-valuation functional per
boundary divisor, and the canonical-divisor coefficient of every colour.
From that data this module computes principal divisors of semi-invariant
functions, the divisor class group as a Smith-normal-form cokernel, divisor
classes, principality witnesses, the Gorenstein determination, and section
divisors on a wonderful-compactification model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Mapping, Sequence

from .lattice import (
    AbelianGroupPresentation,
    IntegerMatrix,
    SmithDecomposition,
    smith_normal_form,
    sparse_addmul,
)
from .rootdata import (
    Character,
    Covector,
    LatticeMismatchError,
    SimpleRootSet,
    TorusLattice,
    antidominant_flags,
    pair,
    scaled_pairings,
)

class ForeignLabelError(ValueError):
    """A divisor refers to a label that does not belong to the model."""


class NonIntegralPairingError(ValueError):
    """A pairing that must be integral came out fractional (malformed model)."""


class PicardMembershipError(ValueError):
    """A character outside the Picard sublattice of a wonderful model."""


class ModelDocumentError(ValueError):
    """A model JSON document that ``model_from_json`` cannot read: a missing or
    mistyped field, or a value the model rejects."""


@dataclass(frozen=True)
class Divisor:
    """Formal integer combination of labelled prime divisors (zeros dropped)."""

    coefficients: tuple[tuple[str, int], ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, int]) -> "Divisor":
        items = tuple(sorted((k, int(v)) for k, v in mapping.items() if int(v) != 0))
        return cls(items)

    @classmethod
    def zero(cls) -> "Divisor":
        return cls(())

    def coefficient(self, label: str) -> int:
        for k, v in self.coefficients:
            if k == label:
                return v
        return 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.coefficients)

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other: "Divisor") -> "Divisor":
        out = self.as_dict()
        for k, v in other.coefficients:
            out[k] = out.get(k, 0) + v
        return Divisor.from_mapping(out)

    def __neg__(self) -> "Divisor":
        return Divisor(tuple((k, -v) for k, v in self.coefficients))

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __mul__(self, k: int) -> "Divisor":
        return Divisor.from_mapping({lab: k * v for lab, v in self.coefficients})

    __rmul__ = __mul__


@dataclass(frozen=True)
class ColorSpec:
    id: str
    functional: Covector
    canonical_coefficient: int


@dataclass(frozen=True)
class BoundarySpec:
    id: str
    valuation: Covector


@dataclass(frozen=True)
class SphericalDivisorModel:
    """Combinatorial avatar of one spherical embedding.

    ``label_aliases`` lets merged colour names resolve to their canonical
    label; ``character_aliases`` names non-basis lattice characters (such as
    the redundant torus coordinates of the dilation monoid).
    """

    weight_lattice: TorusLattice
    simple_roots: SimpleRootSet
    colors: tuple[ColorSpec, ...]
    boundaries: tuple[BoundarySpec, ...]
    basis_characters: tuple[Character, ...]
    label_aliases: tuple[tuple[str, str], ...] = ()
    character_aliases: tuple[tuple[str, Character], ...] = ()

    @cached_property
    def label_order(self) -> tuple[str, ...]:
        """Boundaries, then colours; built on first read and kept out of eq, hash and repr (not a field)."""
        return tuple(b.id for b in self.boundaries) + tuple(c.id for c in self.colors)

    @property
    def boundary_ids(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.boundaries)

    @property
    def color_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.colors)

    def resolve_label(self, name: str) -> str:
        for alias, target in self.label_aliases:
            if name == alias:
                return target
        if name in self.label_order:
            return name
        raise ForeignLabelError(f"label {name!r} does not belong to this model")

    def divisor(self, mapping: Mapping[str, int]) -> Divisor:
        out: dict[str, int] = {}
        for name, coeff in mapping.items():
            canon = self.resolve_label(name)
            out[canon] = out.get(canon, 0) + int(coeff)
        return Divisor.from_mapping(out)

    def character(self, name: str) -> Character:
        if name in self.weight_lattice.labels:
            return self.weight_lattice.basis_character(name)
        for alias, chi in self.character_aliases:
            if name == alias:
                return chi
        raise KeyError(f"unknown character label {name!r}")

    def character_from_mapping(self, mapping: Mapping[str, int]) -> Character:
        return self.weight_lattice.combination(
            (int(coeff), self.character(name)) for name, coeff in mapping.items()
        )


@dataclass(frozen=True)
class ValidationReport:
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_model(model: SphericalDivisorModel) -> ValidationReport:
    """Check lattice generation, integrality, antidominance and label uniqueness."""
    failures: list[str] = []

    ids = list(model.label_order)
    if len(set(ids)) != len(ids):
        failures.append("divisor labels are not unique")
    for alias, target in model.label_aliases:
        if alias in ids:
            failures.append(f"alias {alias!r} collides with a primary label")
        if target not in ids:
            failures.append(f"alias {alias!r} points at unknown label {target!r}")

    rank = model.weight_lattice.rank
    basis = IntegerMatrix.from_rows([list(b.coords) for b in model.basis_characters], cols=rank)
    diag = smith_normal_form(basis).D.diagonal()
    if sum(1 for d in diag if d != 0) != rank or any(d not in (0, 1) for d in diag):
        failures.append("basis characters do not generate the full weight lattice")

    table = pairing_table(model)
    for i, spec in enumerate(model.colors, start=len(model.boundaries)):
        if any(row[i] % spec.functional.scale for row in table):
            failures.append(f"colour functional {spec.id} is not integral on the lattice")
    antidominant = antidominant_flags([spec.valuation for spec in model.boundaries], model.simple_roots)
    for i, spec in enumerate(model.boundaries):
        if any(row[i] % spec.valuation.scale for row in table):
            failures.append(f"boundary valuation {spec.id} is not integral on the lattice")
        if not antidominant[i]:
            failures.append(f"boundary valuation {spec.id} is not antidominant")

    return ValidationReport(tuple(failures))


def _functionals(model: SphericalDivisorModel) -> list[Covector]:
    """The functional of every label, in ``label_order``."""
    return [b.valuation for b in model.boundaries] + [c.functional for c in model.colors]


def pairing_table(model: SphericalDivisorModel) -> tuple[tuple[int, ...], ...]:
    """``scaled_pairings`` of each basis character against the functionals in ``label_order``.

    One transpose of the functionals' ``numerators`` gives a column per
    lattice coordinate, its entries in ``label_order``.  A basis character
    that is a single coordinate 1 reads its column as is; any other sums
    c · column over its nonzero coordinates c.  Built on first read and kept
    on the model object, as ``class_group_data`` is, so a
    ``dataclasses.replace`` copy builds its own.
    """
    table = model.__dict__.get("_pairing_table")
    if table is None:
        table = _transposed_pairings(model.basis_characters, _functionals(model))
        object.__setattr__(model, "_pairing_table", table)
    return table


def _transposed_pairings(basis: Sequence[Character], functionals: Sequence[Covector]) -> tuple[tuple[int, ...], ...]:
    """The rows of ``pairing_table``; a character and a covector on different lattices raise as in ``scaled_pairings``."""
    if not basis or not functionals:
        return ((),) * len(basis)
    lattice = basis[0].lattice
    if any(x.lattice is not lattice and x.lattice != lattice for x in (*basis, *functionals)):
        raise LatticeMismatchError("character and covector on different lattices")
    columns = list(zip(*(f.numerators for f in functionals)))
    zero = (0,) * len(functionals)
    rows = []
    for b in basis:
        support = [(i, c) for i, c in enumerate(b.coords) if c]
        if len(support) == 1 and support[0][1] == 1:
            rows.append(columns[support[0][0]])
            continue
        row = zero
        for i, c in support:
            row = tuple(a + c * x for a, x in zip(row, columns[i]))
        rows.append(row)
    return tuple(rows)


def _integral_rows(model: SphericalDivisorModel, table: Sequence[Sequence[int]]) -> list[list[int]]:
    """Rows of scaled pairings in ``label_order``, each divided exactly by its functional's ``scale``.

    The first remainder, row by row, raises ``NonIntegralPairingError`` naming its label.
    """
    scales = [f.scale for f in _functionals(model)]
    if all(scale == 1 for scale in scales):
        return [list(values) for values in table]
    for values in table:
        for i, (value, scale) in enumerate(zip(values, scales)):
            if value % scale:
                kind = "boundary" if i < len(model.boundaries) else "colour"
                raise NonIntegralPairingError(f"non-integral {kind} pairing at {model.label_order[i]}")
    return [[value // scale for value, scale in zip(values, scales)] for values in table]


def principal_divisor(model: SphericalDivisorModel, chi: Character) -> Divisor:
    """Divisor of the semi-invariant extending ``chi``: one pairing per label."""
    (row,) = _integral_rows(model, [scaled_pairings(chi, _functionals(model))])
    return Divisor.from_mapping(dict(zip(model.label_order, row)))


def canonical_divisor(model: SphericalDivisorModel) -> Divisor:
    """The fixed representative: -1 on every boundary, each colour's stored coefficient (derived, or a document's)."""
    coeffs = {b.id: -1 for b in model.boundaries}
    coeffs.update({c.id: c.canonical_coefficient for c in model.colors})
    return Divisor.from_mapping(coeffs)


@dataclass(frozen=True)
class ClassGroupData:
    presentation: AbelianGroupPresentation
    relation_matrix: IntegerMatrix
    snf: SmithDecomposition
    free_indices: tuple[int, ...]
    torsion: tuple[tuple[int, int], ...]
    generators: tuple[str, ...] | None
    # The inverse of the chosen generator matrix (integral).
    _gen_inverse: tuple[tuple[int, ...], ...] | None


@dataclass(frozen=True)
class ClassCoordinates:
    """Coordinates of a divisor class: free part plus torsion residues.

    When the model's class group admits a basis of prime-divisor classes the
    free part is written against those named generators; otherwise it is
    given in the Smith-normal-form coordinate system.
    """

    free: tuple[int, ...]
    torsion: tuple[int, ...]
    generators: tuple[str, ...] | None

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.free) and all(c == 0 for c in self.torsion)


def _relation_matrix(model: SphericalDivisorModel) -> IntegerMatrix:
    return IntegerMatrix.from_rows(_integral_rows(model, pairing_table(model)), cols=len(model.label_order))


def _choose_basis(vectors: Sequence[Sequence[int]], f: int) -> tuple[list[int], list[list[int]]]:
    """Greedily pick, in order, the vectors that extend the picked ones to part of a basis of Z^f.

    One column reduction: the columns T of a unimodular f x f matrix keep
    picked · T = [I | 0].  A vector v extends the k picked ones iff
    gcd((v · T)[k:]) = 1; it is then taken, and column operations on T bring
    v · T to e_k, the columns k.. by Euclid's algorithm and the columns
    before k by subtracting multiples of column k, which the picked rows
    read as 0.  Returns the picked indices and the columns of T: once f
    vectors are picked, T is the inverse of the matrix with them as rows.

    The columns of T are held as sparse ``{row: value}`` dicts and each
    vector as its nonzero ``(index, value)`` pairs, so a product v · T[:, j]
    reads only the entries where both are nonzero.
    """
    cols = [{j: 1} for j in range(f)]
    picked: list[int] = []
    for index, v in enumerate(vectors):
        k = len(picked)
        if k == f:
            break
        pairs = [(i, a) for i, a in enumerate(v) if a]

        def dot(col):
            return sum(a * col[i] for i, a in pairs if i in col)

        w = {j: dot(cols[j]) for j in range(k, f)}
        if gcd(*w.values()) != 1:
            continue
        live = [j for j in w if w[j]]
        while len(live) > 1:
            p = min(live, key=lambda j: abs(w[j]))
            for j in live:
                if j != p:
                    q = w[j] // w[p]
                    w[j] -= q * w[p]
                    sparse_addmul(cols[j], cols[p], -q)
            live = [j for j in live if w[j]]
        (p,) = live
        if w[p] < 0:
            cols[p] = {i: -a for i, a in cols[p].items()}
        cols[k], cols[p] = cols[p], cols[k]
        for j in range(k):
            c = dot(cols[j])
            if c:
                sparse_addmul(cols[j], cols[k], -c)
        picked.append(index)
    return picked, [[col.get(i, 0) for i in range(f)] for col in cols]


def class_group_data(model: SphericalDivisorModel) -> ClassGroupData:
    """Class group and SNF of a model, computed once and kept on the model object.

    A lookup is one attribute read; it never hashes the frozen model.  The
    relation matrix's SNF is the only one computed; the named generators come
    from one column reduction (``_choose_basis``).
    """
    cached = model.__dict__.get("_class_group_data")
    if cached is not None:
        return cached
    order = model.label_order
    rel = _relation_matrix(model)
    snf = smith_normal_form(rel)
    n = rel.cols
    k = min(rel.rows, n)
    diag = snf.D.diagonal()
    free_indices = tuple(i for i in range(n) if i >= k or diag[i] == 0)
    torsion = tuple((i, diag[i]) for i in range(k) if diag[i] > 1)
    presentation = AbelianGroupPresentation(len(free_indices), tuple(f for _, f in torsion))

    # Free-part coordinates of the label basis vectors: (V^T e_l)[free] = V[l][free].
    free_rows = [[row[i] for i in free_indices] for row in map(snf.V.row, range(n))]

    generators: tuple[str, ...] | None
    gen_inverse = None
    f = len(free_indices)
    if torsion:
        generators = None
    elif f == 0:
        generators = ()
        gen_inverse = ()
    else:
        preference = model.color_ids + model.boundary_ids
        position = {lab: i for i, lab in enumerate(order)}
        picked, cols = _choose_basis([free_rows[position[lab]] for lab in preference], f)
        if len(picked) == f:
            generators = tuple(preference[i] for i in picked)
            # Row i of the inverse of the generators' column matrix is column i of T.
            gen_inverse = tuple(tuple(col) for col in cols)
        else:
            generators = None

    data = ClassGroupData(
        presentation=presentation,
        relation_matrix=rel,
        snf=snf,
        free_indices=free_indices,
        torsion=torsion,
        generators=generators,
        _gen_inverse=gen_inverse,
    )
    object.__setattr__(model, "_class_group_data", data)
    return data


def class_group(model: SphericalDivisorModel) -> AbelianGroupPresentation:
    """Divisor class group: cokernel of the semi-invariant relation matrix."""
    return class_group_data(model).presentation


def class_group_generators(model: SphericalDivisorModel) -> tuple[str, ...] | None:
    """Named prime-divisor classes freely generating the class group, if such exist."""
    return class_group_data(model).generators


def _coefficient_vector(model: SphericalDivisorModel, d: Divisor) -> list[int]:
    order = model.label_order
    known = set(order)
    for lab, _ in d.coefficients:
        if lab not in known:
            raise ForeignLabelError(f"label {lab!r} does not belong to this model")
    coeffs = d.as_dict()
    return [coeffs.get(lab, 0) for lab in order]


def _snf_coordinates(model: SphericalDivisorModel, d: Divisor) -> tuple[ClassGroupData, tuple[int, ...]]:
    """The class-group data and w = V^T v, where v is d's coefficient vector and U R V = D.

    V is read only at the labels where d is nonzero.
    """
    data = class_group_data(model)
    return data, data.snf.V.apply_transpose(_coefficient_vector(model, d))


def class_of(model: SphericalDivisorModel, d: Divisor) -> ClassCoordinates:
    """Coordinates of [d] in the class group; equal iff divisors are linearly equivalent."""
    data, w = _snf_coordinates(model, d)
    free = [w[i] for i in data.free_indices]
    torsion = tuple(w[i] % f for i, f in data.torsion)
    if data.generators is not None and data._gen_inverse is not None:
        free = [sum(row[j] * free[j] for j in range(len(free))) for row in data._gen_inverse]
    return ClassCoordinates(free=tuple(free), torsion=torsion, generators=data.generators)


def is_principal(model: SphericalDivisorModel, d: Divisor) -> tuple[bool, Character | None]:
    """Whether some lattice character has divisor exactly ``d``; witness when so.

    With U R V = D cached by ``class_group_data``, R^T x = v becomes
    D^T y = w for x = U^T y and w = V^T v: solvable iff w vanishes on the free
    coordinates and d_i divides w_i on the others.  Free y_i are set to 0.
    """
    data, w = _snf_coordinates(model, d)
    if any(w[i] for i in data.free_indices) or any(w[i] % f for i, f in data.torsion):
        return False, None
    diag = data.snf.D.diagonal()
    y = [w[i] // diag[i] if i < len(diag) and diag[i] else 0 for i in range(data.snf.U.rows)]
    x = data.snf.U.apply_transpose(y)
    return True, model.weight_lattice.combination(zip(x, model.basis_characters))


def is_gorenstein(model: SphericalDivisorModel) -> bool:
    """Whether the canonical class is trivial in the class group.

    For the affine-cone families handled here the Picard group is trivial and
    the varieties are Cohen-Macaulay, so triviality of the canonical class is
    the Gorenstein property.
    """
    principal, _ = is_principal(model, canonical_divisor(model))
    return principal


# ---------------------------------------------------------------------------
# Wonderful compactification: Picard basis and section divisors.


@dataclass(frozen=True)
class WonderfulModel:
    """Coroot data of a wonderful compactification.

    ``colors`` holds one ``(label, coroots)`` record per colour.  A colour
    with two coroots stands for a pair of simple roots identified on the
    Picard group, whose coroot functionals must agree on a section weight;
    a colour with one coroot stands for an unpaired simple root.  Paired
    colours come first.
    """

    lattice: TorusLattice
    colors: tuple[tuple[str, tuple[Covector, ...]], ...]

    @property
    def color_ids(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.colors)


def wonderful_section_divisor(model: WonderfulModel, chi: Character) -> Divisor:
    """Divisor of the canonical section attached to a Picard-lattice character."""
    coeffs: dict[str, int] = {}
    for lab, coroots in model.colors:
        a, *others = (pair(chi, f) for f in coroots)
        for b in others:
            if a != b:
                raise PicardMembershipError(
                    f"character pairs unequally ({a} vs {b}) against the coroot pair at {lab}"
                )
        if a.denominator != 1:
            raise NonIntegralPairingError(f"non-integral pairing at {lab}")
        coeffs[lab] = a.numerator
    return Divisor.from_mapping(coeffs)


# ---------------------------------------------------------------------------
# Serialization.  Rationals are written as "p/q" strings, "1/1" included.


def _frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def model_to_json_dict(model: SphericalDivisorModel) -> dict:
    doc: dict = {
        "lattice": {"rank": model.weight_lattice.rank, "labels": list(model.weight_lattice.labels)},
        "basis_characters": [list(b.coords) for b in model.basis_characters],
        "simple_roots": [
            {"label": rlab, "root": list(root.coords), "coroot": [_frac_str(c) for c in coroot.coords]}
            for rlab, root, coroot in model.simple_roots.roots
        ],
        "colors": [
            {
                "id": c.id,
                "functional": [_frac_str(x) for x in c.functional.coords],
                "canonical_coefficient": c.canonical_coefficient,
            }
            for c in model.colors
        ],
        "boundaries": [
            {"id": b.id, "valuation": [_frac_str(x) for x in b.valuation.coords]}
            for b in model.boundaries
        ],
    }
    if model.label_aliases:
        doc["aliases"] = {a: t for a, t in model.label_aliases}
    if model.character_aliases:
        doc["character_aliases"] = {a: list(chi.coords) for a, chi in model.character_aliases}
    return doc


def model_to_json(model: SphericalDivisorModel) -> str:
    return json.dumps(model_to_json_dict(model), separators=(",", ":"))


def _typed(value, kind, what: str):
    """``value`` if it is a ``kind`` (a bool is no int), else ``ModelDocumentError``."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ModelDocumentError(f"{what} has the wrong type: {value!r}")
    return value


def model_from_json(doc) -> SphericalDivisorModel:
    """The model of a document in ``model_to_json``'s format, given as text or parsed.

    A malformed document raises ``ModelDocumentError``: a missing field, a
    field of the wrong type (labels and ids are strings, character
    coordinates and canonical coefficients integers, functional coordinates
    "p/q" strings or integers, ``provisional`` a boolean), a value the model
    rejects, such as a zero denominator or a coordinate count that is not the
    rank, or ``provisional`` true: every model is final.
    """
    try:
        return _read_model(json.loads(doc) if isinstance(doc, str) else doc)
    except ModelDocumentError:
        raise
    except KeyError as e:
        raise ModelDocumentError(f"missing field {e.args[0]!r}") from None
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise ModelDocumentError(str(e)) from e


def _read_model(doc) -> SphericalDivisorModel:
    doc = _typed(doc, dict, "the model document")
    lattice_doc = _typed(doc["lattice"], dict, "lattice")
    labels = tuple(_typed(lab, str, "a lattice label") for lab in _typed(lattice_doc["labels"], list, "lattice labels"))
    if len(labels) != _typed(lattice_doc["rank"], int, "the lattice rank"):
        raise ModelDocumentError("label count does not match rank")
    lattice = TorusLattice(labels)

    # Coordinate types are checked in one pass; the per-coordinate loop runs only to name a bad one.
    def character(coords) -> Character:
        coords = _typed(coords, list, "a character")
        if not {int}.issuperset(map(type, coords)):
            for c in coords:
                _typed(c, int, "a character coordinate")
        return lattice.character(coords)

    def covector(coords) -> Covector:
        coords = _typed(coords, list, "a functional")
        if not {str, int}.issuperset(map(type, coords)):
            for c in coords:
                _typed(c, (str, int), "a functional coordinate")
        return lattice.covector(coords)

    def entries(key: str) -> list[dict]:
        return [_typed(item, dict, f"an entry of {key}") for item in _typed(doc[key], list, key)]

    def mapping(key: str) -> dict:
        table = _typed(doc.get(key, {}), dict, key)
        return {_typed(k, str, f"a key of {key}"): v for k, v in table.items()}

    simple_roots = SimpleRootSet(
        tuple(
            (_typed(item["label"], str, "a root label"), character(item["root"]), covector(item["coroot"]))
            for item in entries("simple_roots")
        )
    )
    colors = tuple(
        ColorSpec(
            _typed(item["id"], str, "a colour id"),
            covector(item["functional"]),
            _typed(item["canonical_coefficient"], int, "a canonical coefficient"),
        )
        for item in entries("colors")
    )
    boundaries = tuple(
        BoundarySpec(_typed(item["id"], str, "a boundary id"), covector(item["valuation"]))
        for item in entries("boundaries")
    )
    model = SphericalDivisorModel(
        weight_lattice=lattice,
        simple_roots=simple_roots,
        colors=colors,
        boundaries=boundaries,
        basis_characters=tuple(character(c) for c in _typed(doc["basis_characters"], list, "basis characters")),
        label_aliases=tuple((a, _typed(t, str, "an alias target")) for a, t in mapping("aliases").items()),
        character_aliases=tuple((a, character(c)) for a, c in mapping("character_aliases").items()),
    )
    # No model awaits confirmation by the oracle, so only a false provisional key reads.
    if _typed(doc.get("provisional", False), bool, "provisional"):
        raise ModelDocumentError("provisional is true: every model is final")
    return model
