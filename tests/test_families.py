import random
from fractions import Fraction

import pytest

from sphemb.divisor_model import (
    canonical_divisor,
    class_group,
    class_group_generators,
    class_of,
    principal_divisor,
    validate_model,
)
from sphemb.families import (
    FamilyParameterError,
    admissible_circular_parameters,
    build_family,
    circular_complexes_model,
    circular_wonderful,
    complexes_realization,
    determinantal_realization,
    finalize_determinantal_model,
    monoid_model,
    monoid_wonderful,
    parse_family_spec,
    sample_circular_stabilizer,
)
from sphemb.oracle import stabilizer_check
from sphemb.rootdata import pair


def test_monoid_parameter_validation():
    with pytest.raises(FamilyParameterError):
        monoid_model(0)


def test_monoid_shapes():
    model, real = monoid_model(3)
    assert model.boundary_ids == ("X_0", "X_1", "X_2", "X_3")
    assert model.color_ids == ("D_1", "D_2")
    model1, _ = monoid_model(1)
    assert model1.boundary_ids == ("X_0", "X_1")
    assert model1.color_ids == ()
    assert class_group(model1).is_trivial


def test_monoid_eps2_relation():
    model, _ = monoid_model(3)
    d = principal_divisor(model, model.character("eps_2"))
    assert d.as_dict() == {"X_0": 1, "X_1": 1, "D_2": 1, "D_1": -1}


def test_monoid_redundant_coordinate_aliases():
    # eps_{m+i} = eps_{m+1} + eps_1 - eps_i, so eps_i + eps_{m+i} agree for all i.
    model, _ = monoid_model(3)
    total = None
    for i in (1, 2, 3):
        chi = model.character(f"eps_{i}") + model.character(f"eps_{3 + i}")
        if total is None:
            total = chi
        assert chi == total
    with pytest.raises(KeyError):
        model.character("eps_99")


def test_monoid_realization_membership_and_curves():
    _, real = monoid_model(3)
    assert real.membership(real.base_point)
    rng = random.Random(3)
    for _ in range(5):
        g = real.group_sampler(rng)
        assert real.membership(real.act(g, real.base_point))
    assert dict(real.boundary_curves) == {f"X_{r}": f"lambda_{r}" for r in range(4)}


def test_circular_parameter_validation():
    for bad in [(2, 2, 0, 0), (2, 2, 2, 0), (2, 2, 0, 2), (2, 2, 2, 1), (2, 2, -1, 1)]:
        with pytest.raises(FamilyParameterError):
            circular_complexes_model(*bad)


def test_circular_swap_normalization():
    a, _ = circular_complexes_model(3, 2, 1, 1)
    b, _ = circular_complexes_model(2, 3, 1, 1)
    assert a == b


def test_circular_boundary_counts():
    for m, n, r, s in admissible_circular_parameters(5, 5):
        model, _ = circular_complexes_model(m, n, r, s)
        expected = 2 if (m == n and r + s == m) else 0
        assert len(model.boundaries) == expected, (m, n, r, s)


def test_circular_color_inventory():
    model, _ = circular_complexes_model(3, 3, 1, 1)
    assert model.color_ids == ("D_r1", "D_r2", "D_s1", "D_s2")
    model, _ = circular_complexes_model(2, 2, 1, 1)
    assert model.color_ids == ("D_r1", "D_r2")
    assert dict(model.label_aliases) == {"D_s1": "D_r1", "D_s2": "D_r2"}
    model, _ = circular_complexes_model(2, 3, 1, 1)
    assert model.color_ids == ("D_r1", "D_r2", "D_s2")
    model, _ = circular_complexes_model(4, 4, 2, 2)
    assert model.color_ids == ("D_1", "E_1", "D_r1", "D_r2")
    model, _ = circular_complexes_model(4, 5, 1, 0)
    assert model.color_ids == ("D_r1", "D_r2")
    model, _ = circular_complexes_model(4, 5, 0, 2)
    assert model.color_ids == ("E_1", "D_s1", "D_s2")


def test_circular_merged_label_queries_agree():
    model, _ = circular_complexes_model(3, 3, 1, 2)
    via_r = model.divisor({"D_r1": 1})
    via_s = model.divisor({"D_s1": 1})
    assert via_r == via_s
    assert class_of(model, via_r) == class_of(model, via_s)


def test_circular_relations_case_i():
    model, _ = circular_complexes_model(4, 4, 2, 2)
    lat = model.weight_lattice
    rel = {
        "eps_1": principal_divisor(model, lat.basis_character("eps_1")).as_dict(),
        "eps_2": principal_divisor(model, lat.basis_character("eps_2")).as_dict(),
        "delta_1": principal_divisor(model, lat.basis_character("delta_1")).as_dict(),
        "delta_2": principal_divisor(model, lat.basis_character("delta_2")).as_dict(),
    }
    assert rel["eps_1"] == {"D_1": 1}
    assert rel["eps_2"] == {"X_{1,2}": 1, "D_1": -1, "D_r1": 1, "D_r2": 1}
    assert rel["delta_1"] == {"X_{2,1}": 1, "E_1": -1, "D_r1": 1, "D_r2": 1}
    assert rel["delta_2"] == {"E_1": 1}


def test_all_family_models_validate():
    models = [monoid_model(m)[0] for m in range(1, 7)]
    models += [circular_complexes_model(*p)[0] for p in admissible_circular_parameters(5, 5)]
    for model in models:
        report = validate_model(model)
        assert report.ok, report.failures


def test_monoid_class_groups_through_rank_six():
    for m in range(1, 7):
        model, _ = monoid_model(m)
        pres = class_group(model)
        assert pres.free_rank == m - 1
        assert pres.invariant_factors == ()
        if m > 1:
            assert class_group_generators(model) == tuple(f"D_{i}" for i in range(1, m))


def test_determinantal_parameter_validation():
    for bad in [(2, 2, 0), (2, 2, 2), (3, 2, 2)]:
        with pytest.raises(FamilyParameterError):
            determinantal_realization(*bad)


def test_determinantal_realization_and_finalized_model():
    real, provisional = determinantal_realization(2, 2, 1)
    assert provisional.provisional
    assert real.membership(real.base_point)
    model = finalize_determinantal_model(provisional, real)
    assert not model.provisional
    # The only candidate boundary orbit has codimension > 1, so none survive.
    assert model.boundaries == ()
    assert validate_model(model).ok
    pres = class_group(model)
    assert pres.free_rank == 1 and not pres.invariant_factors
    coords = class_of(model, canonical_divisor(model))
    assert coords.free == (0,)  # m == n: Gorenstein quadric cone


def test_determinantal_rectangular_canonical_class():
    real, provisional = determinantal_realization(2, 4, 1)
    model = finalize_determinantal_model(provisional, real)
    coords = class_of(model, canonical_divisor(model))
    assert coords.generators == ("D_r1",)
    assert coords.free == (4 - 2,)


def test_complexes_realization_checks():
    real = complexes_realization(2, 3, 2, 1, 1)
    # base point satisfies AB = 0 and the rank bounds
    assert real.membership(real.base_point)
    rng = random.Random(17)
    good = real.stabilizer_sampler(rng)
    assert stabilizer_check(real, good)
    # breaking the shared-block condition A11 = B11 moves the base point
    a_rows = [list(r) for r in good[0]]
    a_rows[0][0] += 1
    bad = (tuple(tuple(r) for r in a_rows), good[1], good[2])
    assert not stabilizer_check(real, bad)
    with pytest.raises(FamilyParameterError):
        complexes_realization(2, 3, 2, 3, 1)


def _unit(rows, cols, *cells):
    return tuple(
        tuple(Fraction((i, j) in cells) for j in range(cols)) for i in range(rows)
    )


def test_quiver_families_membership_and_lie_rows():
    # (realization, vertex dimensions, arrow sizes, points that fail exactly
    # one condition: one rank bound exceeded or one zero composition broken)
    cases = [
        (
            determinantal_realization(3, 3, 1)[0],
            (3, 3),
            (9,),
            [(_unit(3, 3, (0, 0), (1, 1)),)],
        ),
        (
            circular_complexes_model(2, 3, 1, 1)[1],
            (2, 3),
            (6, 6),
            [
                (_unit(2, 3, (0, 0), (1, 1)), _unit(3, 2)),  # rk A = 2 > r
                (_unit(2, 3), _unit(3, 2, (0, 0), (1, 1))),  # rk B = 2 > s
                (_unit(2, 3, (0, 0)), _unit(3, 2, (0, 1))),  # AB != 0, BA = 0
                (_unit(2, 3, (0, 1)), _unit(3, 2, (0, 0))),  # BA != 0, AB = 0
            ],
        ),
        (
            complexes_realization(2, 3, 2, 1, 1),
            (2, 3, 2),
            (6, 6),
            [
                (_unit(2, 3, (0, 0), (1, 1)), _unit(3, 2)),  # rk A = 2 > r
                (_unit(2, 3), _unit(3, 2, (0, 0), (1, 1))),  # rk B = 2 > s
                (_unit(2, 3, (0, 0)), _unit(3, 2, (0, 0))),  # AB != 0
            ],
        ),
    ]
    for real, dims, sizes, bad_points in cases:
        assert real.membership(real.base_point)
        zero = tuple(_unit(len(x), len(x[0])) for x in real.base_point)
        assert real.membership(zero)
        for point in bad_points:
            assert not real.membership(point), point
        rows = real.lie_algebra_rows(real.base_point)
        assert len(rows) == sum(d * d for d in dims)
        assert all(len(row) == sum(sizes) for row in rows)


def test_circular_stabilizer_samples():
    _, real = circular_complexes_model(2, 2, 1, 1)
    rng = random.Random(19)
    for _ in range(5):
        g = sample_circular_stabilizer(rng, 2, 2, 1, 1)
        assert stabilizer_check(real, g)
        # breaking A11 = B11 moves the base point; skip the one shift that
        # would make the perturbed matrix singular
        for delta in (1, 2, 3):
            rows = [list(r) for r in g[0]]
            rows[0][0] += delta
            bad = (tuple(tuple(r) for r in rows), g[1])
            try:
                assert not stabilizer_check(real, bad)
                break
            except ZeroDivisionError:
                continue
        else:
            raise AssertionError("no invertible perturbation found")


def test_wonderful_family_models():
    wm = monoid_wonderful(3)
    lat = wm.lattice
    # fundamental-weight pair for the first simple root: (-w_1, w_1)
    chi = lat.character([-1, 0, 0, 0, 1, 0, 0, 0])
    from sphemb.divisor_model import wonderful_section_divisor

    assert wonderful_section_divisor(wm, chi).as_dict() == {"D_1": 1}

    wc = circular_wonderful(2, 2, 1, 1)
    assert [lab for lab, _ in wc.extra_colors] == ["D_r1", "D_r2"]
    chi = wc.lattice.character([0, 1, 0, 0])
    assert wonderful_section_divisor(wc, chi).as_dict() == {"D_r1": 1}


def test_parse_family_spec():
    assert parse_family_spec("monoid:m=3") == ("monoid", {"m": 3})
    assert parse_family_spec("circular:m=2,n=3,r=1,s=1") == (
        "circular",
        {"m": 2, "n": 3, "r": 1, "s": 1},
    )
    assert parse_family_spec("determinantal:3,3,2") == ("determinantal", {"m": 3, "n": 3, "r": 2})
    assert parse_family_spec("complexes:2,3,2,1,1") == (
        "complexes",
        {"l": 2, "m": 3, "n": 2, "r": 1, "s": 1},
    )
    for bad in ["nope:m=1", "monoid", "monoid:m=x", "monoid:k=3", "circular:m=2,n=3", "monoid:1,2"]:
        with pytest.raises(FamilyParameterError):
            parse_family_spec(bad)


def test_build_family_bundles():
    bundle = build_family("monoid:m=2")
    assert bundle.model is not None and bundle.wonderful is not None
    bundle = build_family("complexes:2,3,2,1,1")
    assert bundle.model is None
    bundle = build_family("determinantal:2,3,1")
    assert bundle.model is not None and not bundle.model.provisional


def test_functional_tables_match_ambient_pairings():
    # The constructors assert this internally; spot-check one value here so a
    # regression in the cross-check itself would be caught.
    model, _ = circular_complexes_model(2, 3, 1, 1)
    d_r1 = next(c for c in model.colors if c.label.id == "D_r1")
    chi = model.weight_lattice.basis_character("delta_1")
    assert pair(chi, d_r1.functional) == Fraction(1)


def _random_matrix(rng, n, rational):
    if rational:
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
    return [[Fraction(rng.randint(-999, 999)) for _ in range(n)] for _ in range(n)]


def test_integer_inverse_matches_rational_inverse():
    from sphemb.families import _inv
    from sphemb.lattice import rational_inverse

    rng = random.Random(5)
    checked = 0
    for n in range(1, 6):
        for rational in (False, True):
            for _ in range(40):
                rows = _random_matrix(rng, n, rational)
                try:
                    want = rational_inverse(rows)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        _inv(rows)
                    continue
                got = _inv(tuple(tuple(r) for r in rows))
                assert got == want
                assert all(type(e) is Fraction for r in got for e in r)
                checked += 1
    assert checked > 350
    # plain ints are accepted too, and a zero leading pivot forces a row swap
    swap = ((0, 2, 1), (3, 0, 0), (1, 1, 0))
    assert _inv(swap) == rational_inverse([list(r) for r in swap])
    assert _inv(((Fraction(0), Fraction(1, 2)), (Fraction(-3, 4), Fraction(5)))) == rational_inverse(
        [[0, Fraction(1, 2)], [Fraction(-3, 4), 5]]
    )
    assert _inv(()) == []


def test_integer_inverse_rejects_singular_matrices():
    from sphemb.families import _inv

    singular = [
        ((0,),),
        ((1, 2), (2, 4)),
        ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(1))),
        ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
        ((0, 0, 1), (0, 0, 2), (1, 1, 1)),  # no pivot in the second column
    ]
    for rows in singular:
        with pytest.raises(ZeroDivisionError):
            _inv(rows)
