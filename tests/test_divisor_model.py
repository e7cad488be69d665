import dataclasses
import random

import pytest

from sphemb.divisor_model import (
    Divisor,
    ForeignLabelError,
    NonIntegralPairingError,
    PicardMembershipError,
    ProvisionalModelError,
    WonderfulModel,
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
    principal_divisor,
    validate_model,
    wonderful_section_divisor,
)
from sphemb.families import (
    admissible_circular_parameters,
    build_family,
    circular_complexes_model,
    determinantal_realization,
    monoid_model,
)
from sphemb.lattice import solve_integer
from sphemb.rootdata import TorusLattice


def _random_character(model, rng):
    return model.weight_lattice.character(
        [rng.randint(-9, 9) for _ in range(model.weight_lattice.rank)]
    )


def test_principal_divisor_zero_character():
    model, _ = monoid_model(3)
    assert principal_divisor(model, model.weight_lattice.zero_character()).is_zero


def test_principal_divisor_monoid_relations():
    model, _ = monoid_model(3)
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
    models = [monoid_model(3)[0], monoid_model(4)[0], circular_complexes_model(3, 3, 1, 2)[0]]
    for model in models:
        for _ in range(40):
            a = _random_character(model, rng)
            b = _random_character(model, rng)
            assert principal_divisor(model, a + b) == principal_divisor(model, a) + principal_divisor(model, b)


def test_class_of_principal_is_zero():
    rng = random.Random(43)
    for model in (monoid_model(3)[0], circular_complexes_model(2, 3, 1, 1)[0]):
        for _ in range(40):
            chi = _random_character(model, rng)
            assert class_of(model, principal_divisor(model, chi)).is_zero


def test_class_group_monoid():
    model, _ = monoid_model(3)
    pres = class_group(model)
    assert pres.free_rank == 2 and not pres.invariant_factors
    assert class_group_generators(model) == ("D_1", "D_2")


def test_class_group_invariant_under_reordering():
    model, _ = monoid_model(3)
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
    model, _ = monoid_model(3)
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
    model, _ = circular_complexes_model(2, 2, 1, 1)
    assert canonical_divisor(model).as_dict() == {
        "X_{0,1}": -1,
        "X_{1,0}": -1,
        "D_r1": -2,
        "D_r2": -2,
    }
    model, _ = circular_complexes_model(2, 3, 1, 1)
    assert canonical_divisor(model).as_dict() == {"D_r1": -2, "D_r2": -2, "D_s2": -2}


def test_is_principal_witness_is_exact():
    rng = random.Random(53)
    model, _ = monoid_model(3)
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
    models = [monoid_model(m)[0] for m in range(1, 7)]
    models += [circular_complexes_model(*p)[0] for p in admissible_circular_parameters(3, 4)]
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


def test_gorenstein_examples():
    assert is_gorenstein(monoid_model(1)[0])
    assert not is_gorenstein(monoid_model(3)[0])
    assert is_gorenstein(circular_complexes_model(2, 2, 1, 1)[0])


def test_principal_divisor_rejects_non_integral_pairing():
    # One colour functional and one boundary valuation with 1/2 at eps_1:
    # an odd eps_1 coordinate pairs to a half-integer, an even one does not.
    model, _ = monoid_model(3)
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
    model, _ = monoid_model(3)
    chi = model.character_from_mapping({"eps_1": 2, "eps_4": -1, "eps_2": 0})
    assert chi == 2 * model.character("eps_1") - model.character("eps_4")
    assert model.character_from_mapping({}) == model.weight_lattice.zero_character()
    with pytest.raises(KeyError, match="unknown character label 'eps_99'"):
        model.character_from_mapping({"eps_1": 1, "eps_99": 1})


def test_foreign_label_rejected():
    model, _ = monoid_model(2)
    with pytest.raises(ForeignLabelError):
        model.divisor({"X_9": 1})
    with pytest.raises(ForeignLabelError):
        class_of(model, Divisor.from_mapping({"bogus": 1}))


def test_provisional_model_gates_class_queries():
    _, provisional = determinantal_realization(3, 3, 2)
    with pytest.raises(ProvisionalModelError):
        class_group(provisional)
    with pytest.raises(ProvisionalModelError):
        is_gorenstein(provisional)


def test_class_group_data_is_kept_on_the_model(monkeypatch):
    from sphemb import divisor_model
    from sphemb.divisor_model import SphericalDivisorModel

    model, _ = monoid_model(4)
    twin, _ = monoid_model(4)
    snf_inputs = []
    snf = divisor_model.smith_normal_form
    monkeypatch.setattr(divisor_model, "smith_normal_form", lambda a: snf_inputs.append(a) or snf(a))
    data = class_group_data(model)
    # One SNF of the relation matrix per model: the presentation is read off it.
    assert snf_inputs.count(data.relation_matrix) == 1
    assert data.presentation.free_rank == 3 and data.presentation.invariant_factors == ()

    def no_hash(self):
        raise AssertionError("class-group lookups must not hash the model")

    monkeypatch.setattr(SphericalDivisorModel, "__hash__", no_hash)
    assert class_group_data(model) is data
    assert is_gorenstein(model) == class_of(model, canonical_divisor(model)).is_zero
    # An equal model built separately computes its own data, with equal results.
    assert twin == model and class_group_data(twin) is not data
    assert class_group_data(twin).presentation == data.presentation
    assert snf_inputs.count(data.relation_matrix) == 2


def test_validate_model_detects_corruption():
    model, _ = monoid_model(3)
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
    yield from (monoid_model(m)[0] for m in range(1, 13))
    yield from (circular_complexes_model(*p)[0] for p in admissible_circular_parameters(5, 6))
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
    doc = model_to_json_dict(monoid_model(2)[0])
    doc["lattice"]["rank"] = 4
    with pytest.raises(ValueError, match="label count does not match rank"):
        model_from_json(doc)


def test_serialization_schema_fields():
    doc = model_to_json_dict(monoid_model(2)[0])
    assert set(doc) >= {"lattice", "basis_characters", "simple_roots", "colors", "boundaries"}
    assert doc["lattice"] == {"rank": 3, "labels": ["eps_1", "eps_2", "eps_3"]}
    assert all(isinstance(x, str) for item in doc["colors"] for x in item["functional"])


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
    assert wonderful_section_divisor(model, model.lattice.zero_character()).is_zero
    with pytest.raises(PicardMembershipError):
        wonderful_section_divisor(model, w["w_11"])


def test_wonderful_section_homomorphism():
    model, w = _synthetic_wonderful()
    rng = random.Random(59)
    gens = [w["w_11"] + w["w_12"], w["w_a"], w["w_b"]]
    for _ in range(50):
        chi1 = model.lattice.zero_character()
        chi2 = model.lattice.zero_character()
        for g in gens:
            chi1 = chi1 + rng.randint(-5, 5) * g
            chi2 = chi2 + rng.randint(-5, 5) * g
        lhs = wonderful_section_divisor(model, chi1 + chi2)
        rhs = wonderful_section_divisor(model, chi1) + wonderful_section_divisor(model, chi2)
        assert lhs == rhs
