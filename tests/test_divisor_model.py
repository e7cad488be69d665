import copy
import dataclasses
import json
import random
from fractions import Fraction

import pytest

from snf_reference import dense_choose_basis
from sphemb.divisor_model import (
    Divisor,
    ForeignLabelError,
    ModelDocumentError,
    NonIntegralPairingError,
    PicardMembershipError,
    WonderfulModel,
    _choose_basis,
    _functionals,
    _relation_matrix,
    canonical_divisor,
    class_group,
    class_group_data,
    class_group_generators,
    class_of,
    is_gorenstein,
    is_principal,
    model_from_json,
    model_to_json,
    model_to_json_dict,
    pairing_table,
    principal_divisor,
    validate_model,
    wonderful_section_divisor,
)
from sphemb.families import admissible_circular_parameters, build_family
from sphemb.lattice import IntegerMatrix, smith_normal_form, solve_integer
from sphemb.rootdata import LatticeMismatchError, TorusLattice, scaled_pairings


def _random_character(model, rng):
    return model.weight_lattice.character(
        [rng.randint(-9, 9) for _ in range(model.weight_lattice.rank)]
    )


def test_principal_divisor_zero_character():
    model = build_family("monoid:m=3").model
    assert principal_divisor(model, model.weight_lattice.combination([])).is_zero


def test_principal_divisor_monoid_relations():
    model = build_family("monoid:m=3").model
    assert principal_divisor(model, model.character("eps_1")).as_dict() == {"X_0": 1, "D_1": 1}
    assert principal_divisor(model, model.character("eps_4")).as_dict() == {
        "X_1": 1,
        "X_2": 1,
        "X_3": 1,
        "D_1": -1,
    }
    chi = model.character("eps_1") + model.character("eps_4")
    assert principal_divisor(model, chi).as_dict() == {"X_0": 1, "X_1": 1, "X_2": 1, "X_3": 1}


def test_principal_divisor_is_homomorphism():
    rng = random.Random(41)
    models = [build_family("monoid:m=3").model, build_family("monoid:m=4").model, build_family("circular:m=3,n=3,r=1,s=2").model]
    for model in models:
        for _ in range(40):
            a = _random_character(model, rng)
            b = _random_character(model, rng)
            assert principal_divisor(model, a + b) == principal_divisor(model, a) + principal_divisor(model, b)


def test_class_of_principal_is_zero():
    rng = random.Random(43)
    for model in (build_family("monoid:m=3").model, build_family("circular:m=2,n=3,r=1,s=1").model):
        for _ in range(40):
            chi = _random_character(model, rng)
            assert class_of(model, principal_divisor(model, chi)).is_zero


def test_class_group_monoid():
    model = build_family("monoid:m=3").model
    pres = class_group(model)
    assert pres.free_rank == 2 and not pres.invariant_factors
    assert class_group_generators(model) == ("D_1", "D_2")


def test_class_group_invariant_under_reordering():
    model = build_family("monoid:m=3").model
    rng = random.Random(47)
    for _ in range(10):
        colors = list(model.colors)
        boundaries = list(model.boundaries)
        basis = list(model.basis_characters)
        rng.shuffle(colors)
        rng.shuffle(boundaries)
        rng.shuffle(basis)
        shuffled = dataclasses.replace(
            model,
            colors=tuple(colors),
            boundaries=tuple(boundaries),
            basis_characters=tuple(basis),
        )
        assert class_group(shuffled) == class_group(model)


def test_canonical_divisor_monoid():
    model = build_family("monoid:m=3").model
    assert canonical_divisor(model).as_dict() == {
        "X_0": -1,
        "X_1": -1,
        "X_2": -1,
        "X_3": -1,
        "D_1": -2,
        "D_2": -2,
    }
    # The class, not the representative, matches the short form -2(D_1 + D_2).
    short = model.divisor({"D_1": -2, "D_2": -2})
    assert class_of(model, canonical_divisor(model)) == class_of(model, short)


def test_canonical_divisor_circular_cases():
    model = build_family("circular:m=2,n=2,r=1,s=1").model
    assert canonical_divisor(model).as_dict() == {
        "X_{0,1}": -1,
        "X_{1,0}": -1,
        "D_r1": -2,
        "D_r2": -2,
    }
    model = build_family("circular:m=2,n=3,r=1,s=1").model
    assert canonical_divisor(model).as_dict() == {"D_r1": -2, "D_r2": -2, "D_s2": -2}


def test_is_principal_witness_is_exact():
    rng = random.Random(53)
    model = build_family("monoid:m=3").model
    for _ in range(30):
        chi = _random_character(model, rng)
        d = principal_divisor(model, chi)
        ok, witness = is_principal(model, d)
        assert ok
        assert principal_divisor(model, witness) == d
    ok, witness = is_principal(model, model.divisor({"D_1": 1}))
    assert not ok and witness is None
    ok, witness = is_principal(model, Divisor.zero())
    assert ok and witness.is_zero


def _divisors_to_probe(model, rng):
    yield Divisor.zero()
    yield canonical_divisor(model)
    for lab in model.label_order:
        yield model.divisor({lab: 1})
    for _ in range(4):
        yield principal_divisor(model, _random_character(model, rng))
        yield model.divisor({lab: rng.randint(-3, 3) for lab in model.label_order})


def _reference_is_principal(model, d):
    rel = class_group_data(model).relation_matrix
    return solve_integer(rel.transpose(), [d.coefficient(lab) for lab in model.label_order])


def test_is_principal_matches_solve_integer_on_family_models():
    # Every relation matrix here has full row rank, so the witness is unique.
    rng = random.Random(61)
    models = [build_family(f"monoid:m={m}").model for m in range(1, 7)]
    models += [build_family("circular:m={},n={},r={},s={}".format(*p)).model for p in admissible_circular_parameters(3, 4)]
    models += [
        build_family(f"determinantal:m={m},n={n},r={r}").model
        for m in range(2, 5)
        for n in range(2, 5)
        for r in range(1, min(m, n))
    ]
    for model in models:
        diag = class_group_data(model).snf.D.diagonal()
        assert len(diag) == len(model.basis_characters) and all(diag)
        for d in _divisors_to_probe(model, rng):
            ok, witness = is_principal(model, d)
            x = _reference_is_principal(model, d)
            assert ok == (x is not None)
            if ok:
                assert witness.coords == tuple(
                    sum(c * b.coords[k] for c, b in zip(x, model.basis_characters))
                    for k in range(model.weight_lattice.rank)
                )


def _json_model(rank, colors, boundaries):
    return model_from_json(
        {
            "lattice": {"rank": rank, "labels": [f"e{i}" for i in range(1, rank + 1)]},
            "basis_characters": [[int(i == j) for j in range(rank)] for i in range(rank)],
            "simple_roots": [],
            "colors": [
                {"id": lab, "functional": [str(x) for x in f], "canonical_coefficient": -1}
                for lab, f in colors
            ],
            "boundaries": [{"id": lab, "valuation": [str(x) for x in v]} for lab, v in boundaries],
        }
    )


def test_is_principal_on_rank_deficient_models():
    rng = random.Random(67)
    models = [
        # e1 - e2 has the zero divisor; the relation matrix has rank 1.
        _json_model(2, [("D", (1, 1))], [("X", (2, 2))]),
        # rank 2 of 3, with torsion Z/2 in the class group
        _json_model(3, [("D", (2, 0, 2)), ("E", (0, 1, 0))], [("X", (0, 2, 0))]),
        # more basis characters than labels
        _json_model(3, [], [("X", (2, 3, 0))]),
    ]
    for model in models:
        for d in _divisors_to_probe(model, rng):
            ok, witness = is_principal(model, d)
            assert ok == (_reference_is_principal(model, d) is not None)
            if ok:
                assert principal_divisor(model, witness) == d
            else:
                assert witness is None
    ok, witness = is_principal(models[2], models[2].divisor({"X": 1}))
    assert ok and principal_divisor(models[2], witness).as_dict() == {"X": 1}


def test_generators_pinned_where_the_greedy_rejects_a_colour():
    # No family model makes the generator choice skip a colour; these two do.
    # Recorded before the choice ran by column reduction: on the first model
    # D1 + D2 = -2X, so D2 is rejected beside D1 and X is taken; on the second
    # D2 is rejected beside D1, D3 is taken, and then X1 ahead of X2.
    cases = [
        (
            _json_model(1, [("D1", (1,)), ("D2", (1,))], [("X", (2,))]),
            2,
            ("D1", "X"),
            {"X": (0, 1), "D1": (1, 0), "D2": (-1, -2)},
        ),
        (
            _json_model(2, [("D1", (1, 0)), ("D2", (1, 3)), ("D3", (0, 1))], [("X1", (2, 0)), ("X2", (0, 1))]),
            3,
            ("D1", "D3", "X1"),
            {"X1": (0, 0, 1), "X2": (3, -1, 6), "D1": (1, 0, 0), "D2": (-1, 0, -2), "D3": (0, 1, 0)},
        ),
    ]
    for model, free_rank, generators, classes in cases:
        assert validate_model(model).ok
        group = class_group(model)
        assert (group.free_rank, group.invariant_factors) == (free_rank, ())
        assert class_group_generators(model) == generators
        for label, free in classes.items():
            coords = class_of(model, model.divisor({label: 1}))
            assert (coords.free, coords.torsion, coords.generators) == (free, (), generators)


def test_gorenstein_examples():
    assert is_gorenstein(build_family("monoid:m=1").model)
    assert not is_gorenstein(build_family("monoid:m=3").model)
    assert is_gorenstein(build_family("circular:m=2,n=2,r=1,s=1").model)


def test_principal_divisor_rejects_non_integral_pairing():
    # One colour functional and one boundary valuation with 1/2 at eps_1:
    # an odd eps_1 coordinate pairs to a half-integer, an even one does not.
    model = build_family("monoid:m=3").model
    half = model.weight_lattice.covector(["1/2", 0, 0, 0])
    bad_colour = dataclasses.replace(
        model, colors=(dataclasses.replace(model.colors[0], functional=half),) + model.colors[1:]
    )
    bad_boundary = dataclasses.replace(
        model, boundaries=(dataclasses.replace(model.boundaries[0], valuation=half),) + model.boundaries[1:]
    )
    odd = model.weight_lattice.character([3, 1, 0, 0])
    with pytest.raises(NonIntegralPairingError, match=f"colour pairing at {model.colors[0].id}"):
        principal_divisor(bad_colour, odd)
    with pytest.raises(NonIntegralPairingError, match=f"boundary pairing at {model.boundaries[0].id}"):
        principal_divisor(bad_boundary, odd)
    even = model.weight_lattice.character([2, 1, 0, 0])
    assert principal_divisor(bad_colour, even).coefficient(model.colors[0].id) == 1
    assert principal_divisor(bad_boundary, even).coefficient(model.boundaries[0].id) == 1


def test_wonderful_section_rejects_non_integral_pairing():
    lattice = TorusLattice(("x", "y"))
    half = lattice.covector(["1/2", 0])
    model = WonderfulModel(lattice, (("D_p", (half, half)), ("D_h", (half,))))
    with pytest.raises(NonIntegralPairingError, match="non-integral pairing at D_p"):
        wonderful_section_divisor(model, lattice.character([3, 5]))
    single = WonderfulModel(lattice, (("D_h", (half,)),))
    with pytest.raises(NonIntegralPairingError, match="non-integral pairing at D_h"):
        wonderful_section_divisor(single, lattice.character([1, 0]))
    assert wonderful_section_divisor(model, lattice.character([2, 7])).as_dict() == {"D_p": 1, "D_h": 1}


def test_character_from_mapping():
    model = build_family("monoid:m=3").model
    chi = model.character_from_mapping({"eps_1": 2, "eps_4": -1, "eps_2": 0})
    assert chi == 2 * model.character("eps_1") - model.character("eps_4")
    assert model.character_from_mapping({}) == model.weight_lattice.character([0] * model.weight_lattice.rank)
    with pytest.raises(KeyError, match="unknown character label 'eps_99'"):
        model.character_from_mapping({"eps_1": 1, "eps_99": 1})


def test_foreign_label_rejected():
    model = build_family("monoid:m=2").model
    with pytest.raises(ForeignLabelError):
        model.divisor({"X_9": 1})
    with pytest.raises(ForeignLabelError):
        class_of(model, Divisor.from_mapping({"bogus": 1}))


def test_class_group_data_is_kept_on_the_model(monkeypatch):
    from sphemb import divisor_model
    from sphemb.divisor_model import SphericalDivisorModel

    model = build_family("monoid:m=4").model
    twin = build_family("monoid:m=4").model
    snf_inputs = []
    snf = divisor_model.smith_normal_form
    monkeypatch.setattr(divisor_model, "smith_normal_form", lambda a: snf_inputs.append(a) or snf(a))
    data = class_group_data(model)
    # One SNF per model, of the relation matrix: the presentation is read off
    # it, and the generators come from a column reduction, not more SNFs.
    assert snf_inputs == [data.relation_matrix]
    assert data.generators == ("D_1", "D_2", "D_3")
    assert data.presentation.free_rank == 3 and data.presentation.invariant_factors == ()

    def no_hash(self):
        raise AssertionError("class-group lookups must not hash the model")

    monkeypatch.setattr(SphericalDivisorModel, "__hash__", no_hash)
    assert class_group_data(model) is data
    assert is_gorenstein(model) == class_of(model, canonical_divisor(model)).is_zero
    # An equal model built separately computes its own data, with equal results.
    assert twin == model and class_group_data(twin) is not data
    assert class_group_data(twin).presentation == data.presentation
    assert snf_inputs == [data.relation_matrix] * 2


def test_one_pairing_table_per_model_object(monkeypatch):
    from sphemb import divisor_model, families

    # ``paired`` lists the basis characters of every table built; the table
    # is one transpose and makes no ``scaled_pairings`` call, which only
    # ``principal_divisor`` still makes.
    paired, single = [], []
    transposed, scaled_pairings = divisor_model._transposed_pairings, divisor_model.scaled_pairings
    monkeypatch.setattr(divisor_model, "_transposed_pairings", lambda basis, fs: paired.extend(basis) or transposed(basis, fs))
    monkeypatch.setattr(divisor_model, "scaled_pairings", lambda chi, fs: single.append(chi) or scaled_pairings(chi, fs))
    # The families derive their functionals from tables and pair nothing at
    # construction; the first query builds the model's one table.
    assert not hasattr(families, "scaled_pairings")

    model = build_family("monoid:m=6").model
    basis = list(model.basis_characters)
    assert paired == [] and "_pairing_table" not in vars(model)
    data = class_group_data(model)
    table = pairing_table(model)
    assert validate_model(model).ok and data.generators == ("D_1", "D_2", "D_3", "D_4", "D_5")
    assert paired == basis and pairing_table(model) is table and single == []

    # A replaced model builds its own table: a copy of a model builds anew.
    paired.clear()
    bundle = build_family("determinantal:m=3,n=3,r=2")
    assert paired == []
    final = bundle.model
    class_group_data(final)
    assert validate_model(final).ok
    assert paired == list(final.basis_characters)
    twin = dataclasses.replace(final)
    assert "_pairing_table" not in vars(twin)
    class_group_data(twin)
    assert paired == list(final.basis_characters) * 2
    assert pairing_table(twin) is not pairing_table(final) and pairing_table(twin) == pairing_table(final)
    assert single == []

    # A planted slip: D_3's functional halved, D_5's divided by 3, X_1's
    # valuation negated, X_3's halved, X_5 replaced by -eps_7/2, and D_1 listed
    # twice.  The failures and the first non-integral label are unchanged.
    paired.clear()
    lat = model.weight_lattice
    colors, bounds = list(model.colors), list(model.boundaries)
    colors[2] = dataclasses.replace(colors[2], functional=lat.covector([c / 2 for c in colors[2].functional.coords]))
    colors[4] = dataclasses.replace(colors[4], functional=lat.covector([c / 3 for c in colors[4].functional.coords]))
    bounds[1] = dataclasses.replace(bounds[1], valuation=lat.covector([-c for c in bounds[1].valuation.coords]))
    bounds[3] = dataclasses.replace(bounds[3], valuation=lat.covector([c / 2 for c in bounds[3].valuation.coords]))
    bounds[5] = dataclasses.replace(bounds[5], valuation=lat.covector([0, 0, 0, 0, 0, 0, "-1/2"]))
    slipped = dataclasses.replace(model, colors=tuple(colors) + (colors[0],), boundaries=tuple(bounds))
    assert validate_model(slipped).failures == (
        "divisor labels are not unique",
        "colour functional D_3 is not integral on the lattice",
        "colour functional D_5 is not integral on the lattice",
        "boundary valuation X_1 is not antidominant",
        "boundary valuation X_3 is not integral on the lattice",
        "boundary valuation X_5 is not integral on the lattice",
    )
    with pytest.raises(NonIntegralPairingError, match="^non-integral colour pairing at D_3$"):
        class_group_data(slipped)
    assert paired == basis
    # Rows are searched in basis order: eps_1 meets D_1 before any basis
    # character meets X_5, although X_5 comes first in label order.
    slipped = dataclasses.replace(
        model,
        colors=(dataclasses.replace(colors[0], functional=lat.covector([c / 3 for c in colors[0].functional.coords])),)
        + model.colors[1:],
        boundaries=model.boundaries[:5] + (bounds[5],) + model.boundaries[6:],
    )
    with pytest.raises(NonIntegralPairingError, match="^non-integral colour pairing at D_1$"):
        class_group_data(slipped)
    with pytest.raises(NonIntegralPairingError, match="^non-integral boundary pairing at X_5$"):
        principal_divisor(slipped, model.character("eps_7"))


def test_validate_model_detects_corruption():
    model = build_family("monoid:m=3").model
    assert validate_model(model).ok

    # Boundary valuation replaced by a dominant functional.
    bad_valuation = model.weight_lattice.covector([1, 0, 0, 0])
    bad = dataclasses.replace(
        model,
        boundaries=(dataclasses.replace(model.boundaries[0], valuation=bad_valuation),)
        + model.boundaries[1:],
    )
    report = validate_model(bad)
    assert not report.ok
    assert any("antidominant" in msg for msg in report.failures)

    # Duplicate label.
    dup = dataclasses.replace(model, colors=model.colors + (model.colors[0],))
    assert any("unique" in msg for msg in validate_model(dup).failures)

    # Non-integral functional.
    frac = model.weight_lattice.covector(["1/2", 0, 0, 0])
    nonint = dataclasses.replace(
        model,
        colors=(dataclasses.replace(model.colors[0], functional=frac),) + model.colors[1:],
    )
    assert any("integral" in msg for msg in validate_model(nonint).failures)


def test_divisor_algebra():
    d1 = Divisor.from_mapping({"a": 1, "b": -2})
    d2 = Divisor.from_mapping({"b": 2, "c": 1})
    assert (d1 + d2).as_dict() == {"a": 1, "c": 1}
    assert (d1 - d1).is_zero
    assert (2 * d1).as_dict() == {"a": 2, "b": -4}
    assert d1.coefficient("zzz") == 0


def _family_models():
    yield from (build_family(f"monoid:m={m}").model for m in range(1, 13))
    yield from (build_family("circular:m={},n={},r={},s={}".format(*p)).model for p in admissible_circular_parameters(5, 6))
    for m in range(1, 6):
        for n in range(1, 6):
            for r in range(1, min(m, n)):
                yield build_family(f"determinantal:m={m},n={n},r={r}").model


def test_serialization_round_trip():
    # Every family model, the character aliases eps_7.. of monoid m = 5..7
    # among them, comes back equal and dumps to the same text: alias order is
    # the document's, not sorted.
    count = 0
    for model in _family_models():
        text = model_to_json(model)
        again = model_from_json(text)
        assert again == model, text
        assert model_to_json(again) == text
        count += 1
    assert count == 157


def test_json_rank_must_match_labels():
    doc = model_to_json_dict(build_family("monoid:m=2").model)
    doc["lattice"]["rank"] = 4
    with pytest.raises(ModelDocumentError, match="^label count does not match rank$"):
        model_from_json(doc)


def _edited(doc, path, value=None):
    """A deep copy of ``doc`` with the field at ``path`` set to ``value``, or deleted when ``value`` is ``_DELETE``."""
    doc = copy.deepcopy(doc)
    *parents, key = path
    node = doc
    for k in parents:
        node = node[k]
    if value is _DELETE:
        del node[key]
    else:
        node[key] = value
    return doc


_DELETE = object()


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("colors",), _DELETE, "missing field 'colors'"),
        (("boundaries", 0, "valuation"), _DELETE, "missing field 'valuation'"),
        (("boundaries", 0, "valuation", 1), "1/0", "Fraction(1, 0)"),
        (("colors", 0, "functional", 0), "x", "Invalid literal for Fraction: 'x'"),
        (("lattice",), 5, "lattice has the wrong type: 5"),
        (("lattice", "rank"), "3", "the lattice rank has the wrong type: '3'"),
        (("lattice", "labels", 0), 1, "a lattice label has the wrong type: 1"),
        (("boundaries", 0, "id"), None, "a boundary id has the wrong type: None"),
        (("colors", 0, "id"), 7, "a colour id has the wrong type: 7"),
        (("colors", 0, "canonical_coefficient"), "-2", "a canonical coefficient has the wrong type: '-2'"),
        (("colors", 0, "canonical_coefficient"), True, "a canonical coefficient has the wrong type: True"),
        (("colors", 0, "functional", 0), 0.5, "a functional coordinate has the wrong type: 0.5"),
        (("basis_characters", 0, 0), "1", "a character coordinate has the wrong type: '1'"),
        (("basis_characters", 0, 0), 1.0, "a character coordinate has the wrong type: 1.0"),
        (("basis_characters", 0), [1, 0], "coordinate length does not match lattice rank"),
        (("simple_roots", 0, "label"), None, "a root label has the wrong type: None"),
        (("provisional",), "yes", "provisional has the wrong type: 'yes'"),
        (("provisional",), True, "provisional is true: every model is final"),
        (("aliases",), [["D_s1", "D_r1"]], "aliases has the wrong type"),
        (("character_aliases",), {"eps_9": ["1", 0, 0]}, "a character coordinate has the wrong type: '1'"),
        (("lattice", "labels", 1), "eps_1", "basis labels must be distinct"),
    ],
)
def test_malformed_json_documents_raise_model_document_error(path, value, message):
    doc = model_to_json_dict(build_family("monoid:m=2").model)
    bad = _edited(doc, path, value)
    for given_as in (bad, json.dumps(bad)):
        with pytest.raises(ModelDocumentError) as caught:
            model_from_json(given_as)
        assert str(caught.value).startswith(message), str(caught.value)
    assert model_from_json(doc) == build_family("monoid:m=2").model


# Messages and values of the document's reading of one functional coordinate,
# pinned: integer text ("n", "p/q") is read with int, any other text by
# Fraction, and both readings must agree with Fraction's on every string.
@pytest.mark.parametrize(
    "text, message",
    [
        ("--3", "Invalid literal for Fraction: '--3'"),
        ("+-1", "Invalid literal for Fraction: '+-1'"),
        ("1/0", "Fraction(1, 0)"),
        ("-0/0", "Fraction(0, 0)"),
        ("", "Invalid literal for Fraction: ''"),
        (" ", "Invalid literal for Fraction: ' '"),
        ("-3/-4", "Invalid literal for Fraction: '-3/-4'"),
        ("--3/4", "Invalid literal for Fraction: '--3/4'"),
        ("1/2/3", "Invalid literal for Fraction: '1/2/3'"),
        ("-", "Invalid literal for Fraction: '-'"),
    ],
)
def test_functional_coordinate_text_errors_are_pinned(text, message):
    doc = _edited(model_to_json_dict(build_family("monoid:m=3").model), ("colors", 0, "functional", 0), text)
    for given_as in (doc, json.dumps(doc)):
        with pytest.raises(ModelDocumentError) as caught:
            model_from_json(given_as)
        assert str(caught.value) == message


@pytest.mark.parametrize(
    "text, scale, numerators",
    [
        ("3.5", 2, (7, -2, 0, -2)),
        ("1e3", 1, (1000, -1, 0, -1)),
        (" 3", 1, (3, -1, 0, -1)),
        ("3\n", 1, (3, -1, 0, -1)),
        ("-0", 1, (0, -1, 0, -1)),
        ("3/1", 1, (3, -1, 0, -1)),
        ("007/01", 1, (7, -1, 0, -1)),
        ("2/4", 2, (1, -2, 0, -2)),
        ("-6/4", 2, (-3, -2, 0, -2)),
        ("+3", 1, (3, -1, 0, -1)),
        ("1_0", 1, (10, -1, 0, -1)),
        ("\u0663", 1, (3, -1, 0, -1)),
    ],
)
def test_functional_coordinate_text_values_are_pinned(text, scale, numerators):
    doc = _edited(model_to_json_dict(build_family("monoid:m=3").model), ("colors", 0, "functional", 0), text)
    for given_as in (doc, json.dumps(doc)):
        functional = model_from_json(given_as).colors[0].functional
        assert (functional.scale, functional.numerators) == (scale, numerators)
        assert all(type(c) is int for c in functional.numerators)


def test_json_text_that_is_not_a_model_document():
    for text in ("{", "[]", "5", "null", '"monoid"'):
        with pytest.raises(ModelDocumentError):
            model_from_json(text)
    with pytest.raises(ModelDocumentError, match="the model document has the wrong type"):
        model_from_json([model_to_json_dict(build_family("monoid:m=2").model)])


def test_serialization_schema_fields():
    doc = model_to_json_dict(build_family("monoid:m=2").model)
    assert set(doc) >= {"lattice", "basis_characters", "simple_roots", "colors", "boundaries"}
    assert doc["lattice"] == {"rank": 3, "labels": ["eps_1", "eps_2", "eps_3"]}
    assert all(isinstance(x, str) for item in doc["colors"] for x in item["functional"])
    # No model is provisional, so no dump has the key; a false one still reads.
    assert "provisional" not in doc
    assert model_from_json(dict(doc, provisional=False)) == build_family("monoid:m=2").model


# ---------------------------------------------------------------------------
# Wonderful sections on a small synthetic model: one paired colour and two
# unpaired ones, with hand-computed fundamental weights.


def _synthetic_wonderful():
    lattice = TorusLattice(tuple(f"e{i}" for i in range(1, 7)))

    def cov(*pairs):
        v = [0] * 6
        for idx, c in pairs:
            v[idx] = c
        return lattice.covector(v)

    model = WonderfulModel(
        lattice,
        (
            ("D_1", (cov((0, 1), (1, -1)), cov((3, 1), (4, -1)))),
            ("D_a", (cov((1, 1), (2, -1)),)),
            ("D_b", (cov((4, 1), (5, -1)),)),
        ),
    )
    weights = {
        "w_11": lattice.character([1, 0, 0, 0, 0, 0]),
        "w_12": lattice.character([0, 0, 0, 1, 0, 0]),
        "w_a": lattice.character([1, 1, 0, 0, 0, 0]),
        "w_b": lattice.character([0, 0, 0, 1, 1, 0]),
    }
    return model, weights


def test_wonderful_section_examples():
    model, w = _synthetic_wonderful()
    assert wonderful_section_divisor(model, w["w_11"] + w["w_12"]).as_dict() == {"D_1": 1}
    assert wonderful_section_divisor(model, w["w_a"]).as_dict() == {"D_a": 1}
    assert wonderful_section_divisor(model, w["w_b"]).as_dict() == {"D_b": 1}
    assert wonderful_section_divisor(model, model.lattice.combination([])).is_zero
    with pytest.raises(PicardMembershipError):
        wonderful_section_divisor(model, w["w_11"])


def test_wonderful_section_homomorphism():
    model, w = _synthetic_wonderful()
    rng = random.Random(59)
    gens = [w["w_11"] + w["w_12"], w["w_a"], w["w_b"]]
    for _ in range(50):
        chi1 = model.lattice.combination([])
        chi2 = model.lattice.combination([])
        for g in gens:
            chi1 = chi1 + rng.randint(-5, 5) * g
            chi2 = chi2 + rng.randint(-5, 5) * g
        lhs = wonderful_section_divisor(model, chi1 + chi2)
        rhs = wonderful_section_divisor(model, chi1) + wonderful_section_divisor(model, chi2)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Integer pairing rows against plain Fraction sums.


def _reference_pairing_row(model, chi):
    """<chi, f> for every label, summed over ``Fraction`` coordinates (the old pairing path)."""
    functionals = [b.valuation for b in model.boundaries] + [c.functional for c in model.colors]
    return [sum((c * x for c, x in zip(chi.coords, f.coords)), Fraction(0)) for f in functionals]


def _torsion_models(rng):
    """JSON models whose relation rows are random rows scaled by 1 to 4: torsion is common."""
    for _ in range(40):
        rank, width = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 1, -1, 2, 3)) * k for _ in range(width)] for k in (rng.randint(1, 4) for _ in range(rank))]
        n_boundary = rng.randint(0, width)
        columns = [tuple(rows[i][j] for i in range(rank)) for j in range(width)]
        yield _json_model(
            rank,
            [(f"D{j}", columns[j]) for j in range(n_boundary, width)],
            [(f"X{j}", columns[j]) for j in range(n_boundary)],
        )


def _sublattice_model():
    # Basis characters 2a and 3b span a sublattice, so the functionals with
    # denominators 2 and 3 still pair integrally with them.
    return model_from_json(
        {
            "lattice": {"rank": 2, "labels": ["a", "b"]},
            "basis_characters": [[2, 0], [0, 3]],
            "simple_roots": [],
            "colors": [{"id": "C", "functional": ["1/2", "1/3"], "canonical_coefficient": -1}],
            "boundaries": [{"id": "X", "valuation": ["0", "-1/3"]}],
        }
    )


def test_relation_matrix_matches_fraction_pairings():
    rng = random.Random(83)
    models = list(_family_models())
    assert len(models) == 157
    torsion = list(_torsion_models(rng))
    assert sum(1 for m in torsion if class_group(m).invariant_factors) >= 10
    for model in models + torsion + [_sublattice_model()]:
        reference = [_reference_pairing_row(model, b) for b in model.basis_characters]
        assert all(v.denominator == 1 for row in reference for v in row)
        assert _relation_matrix(model).to_rows() == [[v.numerator for v in row] for row in reference]
        for _ in range(3):
            chi = model.weight_lattice.combination((rng.randint(-5, 5), b) for b in model.basis_characters)
            expected = dict(zip(model.label_order, (v.numerator for v in _reference_pairing_row(model, chi))))
            assert principal_divisor(model, chi) == Divisor.from_mapping(expected)
    assert _relation_matrix(_sublattice_model()).to_rows() == [[0, 1], [-1, 1]]


@pytest.mark.parametrize(
    "colors, boundaries, message",
    [
        ([("D", ("1/2", "0")), ("E", ("0", "1"))], [("X", ("1", "1"))], "non-integral colour pairing at D"),
        ([("D", ("1", "0"))], [("X", ("0", "1")), ("Y", ("2/3", "1"))], "non-integral boundary pairing at Y"),
    ],
    ids=["colour", "boundary"],
)
def test_non_integral_json_model_raises_the_same_message_everywhere(colors, boundaries, message):
    model = _json_model(2, colors, boundaries)
    assert not validate_model(model).ok
    with pytest.raises(NonIntegralPairingError) as from_divisor:
        principal_divisor(model, model.weight_lattice.character([1, 1]))
    with pytest.raises(NonIntegralPairingError) as from_group:
        class_group(model)
    assert str(from_divisor.value) == str(from_group.value) == message


def test_sublattice_model_pairs_through_scaled_numerators():
    model = _sublattice_model()
    assert principal_divisor(model, model.weight_lattice.character([2, 3])).as_dict() == {"C": 2, "X": -1}
    with pytest.raises(NonIntegralPairingError, match="non-integral boundary pairing at X"):
        principal_divisor(model, model.weight_lattice.character([2, 1]))
    with pytest.raises(NonIntegralPairingError, match="non-integral colour pairing at C"):
        principal_divisor(model, model.weight_lattice.character([1, 0]))


# ---------------------------------------------------------------------------
# The pairing table, one transpose of the functionals' numerators, against
# one ``scaled_pairings`` pass per basis character.


def _reference_pairing_table(model):
    functionals = _functionals(model)
    return tuple(tuple(scaled_pairings(b, functionals)) for b in model.basis_characters)


def _grid_models():
    yield from (build_family(f"monoid:m={m}").model for m in range(1, 41))
    yield from (build_family("circular:m={},n={},r={},s={}".format(*p)).model for p in admissible_circular_parameters(7, 8))
    for m in range(1, 8):
        for n in range(1, 8):
            for r in range(1, min(m, n)):
                yield build_family(f"determinantal:m={m},n={n},r={r}").model


def _document(labels, basis, colors, boundaries):
    return model_from_json(
        {
            "lattice": {"rank": len(labels), "labels": list(labels)},
            "basis_characters": basis,
            "simple_roots": [],
            "colors": [{"id": lab, "functional": f, "canonical_coefficient": -1} for lab, f in colors],
            "boundaries": [{"id": lab, "valuation": v} for lab, v in boundaries],
        }
    )


_ODD_DOCUMENTS = [
    # A coefficient 2, negative entries and a two-term character, against
    # integer, "1/2" and "3/2" functionals.
    _document(
        ("a", "b", "c"),
        [[2, 0, 0], [0, -1, 0], [1, 1, 0], [0, 3, -2]],
        [("C", ["1/2", 1, "3/2"]), ("E", [0, "-3/2", 2])],
        [("X", [1, -1, 0]), ("Y", ["1/2", "1/2", "-1/2"])],
    ),
    # A zero basis character beside unit ones.
    _document(("a", "b"), [[1, 0], [0, 0], [0, 1]], [("C", [1, 2])], [("X", [1, -1])]),
    # No labels at all.
    _document(("a", "b"), [[1, 0], [0, 1], [3, -2]], [], []),
    # Rank 0, with labels and without.
    _document((), [[]], [("C", [])], [("X", [])]),
    _document((), [], [], []),
]


def test_pairing_table_matches_scaled_pairings():
    count = 0
    for model in [*_grid_models(), *_ODD_DOCUMENTS]:
        table = pairing_table(model)
        assert table == _reference_pairing_table(model)
        assert all(type(row) is tuple and all(type(v) is int for v in row) for row in table)
        count += 1
    assert count == 40 + len(admissible_circular_parameters(7, 8)) + 91 + 5
    # Labels X, Y, C, E with numerators (1, -1, 0), (1, 1, -1), (1, 2, 3), (0, -3, 4), by hand.
    assert pairing_table(_ODD_DOCUMENTS[0]) == ((2, 2, 2, 0), (1, -1, -2, 3), (0, 2, 3, -3), (-3, 5, 0, -17))
    assert pairing_table(_ODD_DOCUMENTS[2]) == ((), (), ())
    assert pairing_table(_ODD_DOCUMENTS[3]) == ((0, 0),)


def test_pairing_table_refuses_a_foreign_lattice():
    model = build_family("monoid:m=3").model
    other = TorusLattice(("a", "b", "c", "d"))
    for slipped in (
        dataclasses.replace(model, basis_characters=model.basis_characters[:3] + (other.character([0, 0, 0, 1]),)),
        dataclasses.replace(model, boundaries=(dataclasses.replace(model.boundaries[0], valuation=other.covector([0, 1, 1, 1])),) + model.boundaries[1:]),
    ):
        with pytest.raises(LatticeMismatchError, match="^character and covector on different lattices$"):
            pairing_table(slipped)
    # With no label, or no basis character, nothing is paired and nothing is refused.
    assert pairing_table(dataclasses.replace(model, colors=(), boundaries=(), basis_characters=(other.character([1, 0, 0, 0]),))) == ((),)
    assert pairing_table(dataclasses.replace(slipped, basis_characters=())) == ()


# Coordinate types are checked in one pass over a list, and the
# per-coordinate loop names the first bad one with the message it gave when
# it checked every coordinate: a bool, a float, None or a nested list, in a
# character or in a functional, behind a good first coordinate.
@pytest.mark.parametrize("bad", [True, False, 1.0, 2.5, None, [1], []], ids=repr)
@pytest.mark.parametrize(
    "path, what",
    [
        (("basis_characters", 1), "a character coordinate"),
        (("simple_roots", 0, "root"), "a character coordinate"),
        (("character_aliases", "eps_9"), "a character coordinate"),
        (("colors", 0, "functional"), "a functional coordinate"),
        (("boundaries", 1, "valuation"), "a functional coordinate"),
        (("simple_roots", 0, "coroot"), "a functional coordinate"),
    ],
)
def test_one_pass_coordinate_checks_name_the_first_bad_coordinate(path, what, bad):
    doc = model_to_json_dict(build_family("monoid:m=2").model)
    doc["character_aliases"] = {"eps_9": [1, 0, 0]}
    node = doc
    for key in path:
        node = node[key]
    coords = list(node)
    # A second bad coordinate after the first is not the one named.
    coords[1], coords[2] = bad, 0.5
    for given_as in (_edited(doc, path, coords), json.dumps(_edited(doc, path, coords))):
        with pytest.raises(ModelDocumentError) as caught:
            model_from_json(given_as)
        assert str(caught.value) == f"{what} has the wrong type: {bad!r}"


def test_scale_two_functional_raises_the_same_message_everywhere():
    # One colour functional halved on a family model: the integral fast path
    # is not taken, and the first non-integral label in basis order is named,
    # with the same message from principal_divisor and from class_group,
    # also once the table was built by validate_model.
    model = build_family("monoid:m=5").model
    colors = list(model.colors)
    colors[2] = dataclasses.replace(colors[2], functional=model.weight_lattice.covector([c / 2 for c in colors[2].functional.coords]))
    for validate_first in (False, True):
        slipped = dataclasses.replace(model, colors=tuple(colors))
        assert [f.scale for f in _functionals(slipped)].count(2) == 1
        if validate_first:
            assert validate_model(slipped).failures == ("colour functional D_3 is not integral on the lattice",)
        with pytest.raises(NonIntegralPairingError) as from_group:
            class_group(slipped)
        with pytest.raises(NonIntegralPairingError) as from_divisor:
            principal_divisor(slipped, slipped.character("eps_3"))
        assert str(from_group.value) == str(from_divisor.value) == "non-integral colour pairing at D_3"
    # An even pairing divides exactly, as it did before the fast path.
    assert principal_divisor(slipped, 2 * slipped.character("eps_3")) == 2 * principal_divisor(model, slipped.character("eps_3")) - model.divisor({"D_3": 1})


def test_label_order_is_read_once_per_model_object():
    model = build_family("monoid:m=3").model
    assert "label_order" not in vars(model)
    order = model.label_order
    assert order == ("X_0", "X_1", "X_2", "X_3", "D_1", "D_2") and model.label_order is order
    # Not a field: equality, hash and repr do not read it.
    fresh = build_family("monoid:m=3").model
    assert fresh == model and hash(fresh) == hash(model) and repr(fresh) == repr(model)
    assert "label_order" not in vars(fresh) and "label_order" not in repr(model)
    # A copy with other boundaries reads its own order.
    fewer = dataclasses.replace(model, boundaries=model.boundaries[1:])
    assert fewer.label_order == ("X_1", "X_2", "X_3", "D_1", "D_2") and model.label_order is order
    assert fewer.resolve_label("X_1") == "X_1"
    with pytest.raises(ForeignLabelError, match="label 'X_0' does not belong to this model"):
        fewer.resolve_label("X_0")


# ---------------------------------------------------------------------------
# The generator choice against a greedy that runs one SNF per candidate.


def _reference_choice(vectors, f):
    picked = []
    for index, v in enumerate(vectors):
        if len(picked) == f:
            break
        rows = [vectors[i] for i in picked] + [v]
        diag = smith_normal_form(IntegerMatrix.from_rows(rows, cols=f)).D.diagonal()
        if sum(1 for d in diag if d) == len(rows) and all(d in (0, 1) for d in diag):
            picked.append(index)
    return picked


def _check_choice(vectors, f):
    picked, cols = _choose_basis(vectors, f)
    assert picked == _reference_choice(vectors, f)
    # The same picks and the same T as the dense column reduction.
    assert (picked, cols) == dense_choose_basis(vectors, f)
    # The picked rows times the columns of T read as the first rows of I.
    for i, index in enumerate(picked):
        assert [sum(a * b for a, b in zip(vectors[index], col)) for col in cols] == [int(i == j) for j in range(f)]


def test_generator_choice_matches_the_snf_greedy_on_family_models():
    for model in _family_models():
        data = class_group_data(model)
        if data.torsion:
            continue
        order = model.label_order
        f = len(data.free_indices)
        free_rows = [tuple(data.snf.V.entry(order.index(lab), i) for i in data.free_indices) for lab in order]
        preference = model.color_ids + model.boundary_ids
        _check_choice([free_rows[order.index(lab)] for lab in preference], f)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is a test-only dependency
    given = None

if given is not None:

    @st.composite
    def _candidate_rows(draw):
        """Row lists in Z^f: random, sparse, scaled (non-primitive) and dependent rows.

        A drawn prefix of scaled unit rows gives torsion-like starts, such
        as 2 e_1 ahead of e_1 + e_2.
        """
        f = draw(st.integers(1, 5))
        rows = [
            [k if j == i else 0 for j in range(f)]
            for i, k in enumerate(draw(st.lists(st.integers(1, 3), max_size=f)))
        ]
        entry = st.integers(-4, 4)
        for _ in range(draw(st.integers(0, 8))):
            kind = draw(st.sampled_from(("random", "sparse", "scaled", "dependent")))
            if kind == "random":
                rows.append(draw(st.lists(entry, min_size=f, max_size=f)))
            elif kind == "sparse":
                rows.append(draw(st.lists(st.sampled_from((0, 0, 0, 1, -1)), min_size=f, max_size=f)))
            elif kind == "scaled":
                k = draw(st.integers(2, 4))
                rows.append([k * e for e in draw(st.lists(entry, min_size=f, max_size=f))])
            elif rows:
                coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
                rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(f)])
        return draw(st.permutations(rows)) if draw(st.booleans()) else rows, f

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_candidate_rows())
    def test_generator_choice_matches_the_snf_greedy(case):
        vectors, f = case
        _check_choice(vectors, f)

    def _json_paths(node, path=()):
        yield path
        if isinstance(node, dict):
            for k, v in node.items():
                yield from _json_paths(v, path + (k,))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                yield from _json_paths(v, path + (i,))

    _JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=5,
    )
    _JSON_DOCS = [
        model_to_json_dict(m)
        for m in (
            build_family("monoid:m=2").model,
            build_family("monoid:m=5").model,
            build_family("circular:m=3,n=4,r=2,s=1").model,
            build_family("determinantal:m=3,n=3,r=2").model,
        )
    ]

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_mutated_json_documents_load_or_raise_model_document_error(data):
        # One field of a family document deleted or replaced by any JSON
        # value: the document loads or raises ModelDocumentError, nothing else.
        doc = data.draw(st.sampled_from(_JSON_DOCS))
        path = data.draw(st.sampled_from([p for p in _json_paths(doc) if p]))
        value = data.draw(st.just(_DELETE) | _JSON_VALUES)
        for given_as in (_edited(doc, path, value), json.dumps(_edited(doc, path, value))):
            try:
                model_from_json(given_as)
            except ModelDocumentError:
                pass
