import dataclasses
import random
from fractions import Fraction

import pytest

from sphemb import families, realization
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
    finalize_determinantal_model,
    parse_family_spec,
    sample_circular_stabilizer,
)
from sphemb.realization import Curve, Minor, Pairing, ScaledMatrix, SemiInvariantSpec
from sphemb.oracle import stabilizer_check
from sphemb.rootdata import TorusLattice, pair
from sphemb.lattice import integer_inverse, rational_inverse, row_determinant
from form_reference import weight_value
from point_reference import divided, scaled
from test_lattice import _dense_lie_rows, _reference_rational_inverse, _reference_rational_rank


def test_monoid_parameter_validation():
    with pytest.raises(FamilyParameterError):
        build_family("monoid:m=0")


def test_monoid_shapes():
    bundle = build_family("monoid:m=3")
    model, real = bundle.model, bundle.realization
    assert model.boundary_ids == ("X_0", "X_1", "X_2", "X_3")
    assert model.color_ids == ("D_1", "D_2")
    model1 = build_family("monoid:m=1").model
    assert model1.boundary_ids == ("X_0", "X_1")
    assert model1.color_ids == ()
    assert class_group(model1).is_trivial


def test_monoid_eps2_relation():
    model = build_family("monoid:m=3").model
    d = principal_divisor(model, model.character("eps_2"))
    assert d.as_dict() == {"X_0": 1, "X_1": 1, "D_2": 1, "D_1": -1}


def test_monoid_redundant_coordinate_aliases():
    # eps_{m+i} = eps_{m+1} + eps_1 - eps_i, so eps_i + eps_{m+i} agree for all i.
    model = build_family("monoid:m=3").model
    total = None
    for i in (1, 2, 3):
        chi = model.character(f"eps_{i}") + model.character(f"eps_{3 + i}")
        if total is None:
            total = chi
        assert chi == total
    with pytest.raises(KeyError):
        model.character("eps_99")


def test_monoid_realization_membership_and_curves():
    real = build_family("monoid:m=3").realization
    assert real.membership(real.base_point)
    rng = random.Random(3)
    for _ in range(5):
        g = real.group_sampler(rng)
        assert real.membership(real.act(g, real.base_point))
    assert {c.boundary: c.label for c in real.curves} == {f"X_{r}": f"lambda_{r}" for r in range(4)}


@pytest.mark.parametrize(
    "spec, form, message",
    [
        # With divisor 0 both sides of the Borel cross-product are 0, so any claimed weight would pass.
        ("monoid:m=3", Pairing(0, 1, 0), "divisor 0 is below 1"),
        ("monoid:m=2", Minor(0, 3), "no 3 x 3 minor of arrow 0's 2 x 2 matrix"),
        ("monoid:m=2", Minor(0, -1), "no -1 x -1 minor"),
        ("monoid:m=2", Minor(5, 1), "no arrow 5"),
        ("monoid:m=2", Pairing(0, 2, 1), "no arrow 2"),
        ("circular:m=2,n=3,r=1,s=1", Pairing(0, 1, 1), r"arrows 0 and 1 have shapes \(2, 3\) and \(3, 2\)"),
        # A Pairing is read only where the arrows' sources, and their targets, are a dual factor pair.
        ("monoid:m=2", Pairing(0, 0, 1), "arrows 0 and 0 do not run between dual factor pairs"),
        ("circular:m=2,n=2,r=1,s=1", Pairing(0, 1, 1), "arrows 0 and 1 do not run between dual factor pairs"),
        # A Minor is read only between generic factors: the monoid's arrow 1 runs between the duals' second factors.
        ("monoid:m=2", Minor(1, 1), "arrow 1 runs at the second factor of a dual pair"),
        # Nor on a loop, where its two sides would read one factor's draw.
        ("loop", Minor(0, 1), "arrow 0 is a loop"),
    ],
)
def test_malformed_forms_fail_construction(spec, form, message):
    # Each form is checked against the realization's arrows when it is built, naming the semi-invariant.
    real, weight = realization_and_weight(spec)
    with pytest.raises(ValueError, match=f"semi-invariant bad: {message}"):
        dataclasses.replace(real, semi_invariants=real.semi_invariants + (SemiInvariantSpec("bad", weight, form),))


def realization_and_weight(spec: str):
    """The realization of a family member, or of ``_loop_realization`` for ``"loop"``, and the zero weight."""
    if spec == "loop":
        return _loop_realization(), TorusLattice(("eps_1",)).combination([])
    bundle = build_family(spec)
    return bundle.realization, bundle.model.weight_lattice.combination([])


def _loop_realization():
    """One GL(2) factor conjugating one 2 x 2 matrix: the arrow (0, 0) is a loop, with one curve through E_11."""
    return realization.MatrixRealization(
        base_point=(scaled(((1, 0), (0, 0))),),
        membership=lambda point: True,
        arrows=((0, 0),),
        borel_lower=(True,),
        expected_orbit_dimension=2,
        stabilizer_sampler=lambda rng: (),
        curves=(Curve("lambda", {(0, 0): 1}, (1,)),),
    )


def test_every_built_in_pairing_runs_between_dual_pairs():
    # check_forms refuses any other Pairing, and no family member declares one:
    # the one Pairing is the monoid's dilation, between (0, 1) and (2, 3).
    # Likewise it refuses a Minor at a dual pair's second factor or on a loop,
    # and none of the 406 declared Minors (292 of them circular) sits on such an arrow.
    specs = [f"monoid:m={m}" for m in range(1, 9)]
    specs += ["circular:m={},n={},r={},s={}".format(*p) for p in admissible_circular_parameters(5, 6)]
    specs += [f"determinantal:m={m},n={n},r={r}" for m in range(2, 6) for n in range(2, 6) for r in range(1, min(m, n))]
    specs += [spec for spec in _INVERSE_MEMBERS if spec.startswith("complexes")]
    pairings, minors = [], []
    for spec in specs:
        real = build_family(spec).realization
        dual, seconds = {frozenset(pair) for pair in real.dual_factors}, {b for _, b in real.dual_factors}
        for f in real.semi_invariants:
            if isinstance(f.form, Pairing):
                ends = [real.arrows[a] for a in f.form.arrows]
                assert all(frozenset(v) in dual for v in zip(*ends)), (spec, f.name)
                pairings.append(spec)
            else:
                s, t = real.arrows[f.form.arrow]
                minors.append((bool(seconds & {s, t}), s == t))
    assert len(specs) == 214 and pairings == specs[:8]
    assert len(minors) == 406 and [sum(column) for column in zip(*minors)] == [0, 0]


def test_curves_are_checked_against_the_factors():
    # A cocharacter entry off every factor's diagonal is refused, as is a
    # second curve with one label, which ``curve`` would never return.
    real = build_family("monoid:m=2").realization
    for lam, entry in (({(7, 0): 1, (0, 9): 2}, r"\(0, 9\)"), ({(7, 0): 1}, r"\(7, 0\)"), ({(1, -1): 1}, r"\(1, -1\)")):
        bad = Curve("lambda_0", lam, (0,), "X_0")
        with pytest.raises(ValueError, match=f"^curve lambda_0's cocharacter names {entry}, no diagonal entry of a factor$"):
            dataclasses.replace(real, curves=(bad,))
    with pytest.raises(ValueError, match="^curve lambda_0 is given twice$"):
        dataclasses.replace(real, curves=real.curves + real.curves[:1])


def test_semi_invariants_are_forms():
    # A plain callable, or no form at all, is refused; evaluate is the form itself.
    real = build_family("monoid:m=2").realization
    weight = real.semi_invariants[0].claimed_weight
    for form in (None, lambda point: Fraction(1), Fraction(1)):
        with pytest.raises(ValueError, match="semi-invariant plain has no Minor or Pairing form"):
            SemiInvariantSpec("plain", weight, form)
    spec = SemiInvariantSpec("one", weight, Minor(0, 0))
    assert spec.evaluate is spec.form and spec.evaluate(real.base_point) == 1


def test_circular_parameter_validation():
    for bad in [(2, 2, 0, 0), (2, 2, 2, 0), (2, 2, 0, 2), (2, 2, 2, 1), (2, 2, -1, 1)]:
        with pytest.raises(FamilyParameterError):
            build_family("circular:m={},n={},r={},s={}".format(*bad))


def test_circular_swap_normalization():
    a = build_family("circular:m=3,n=2,r=1,s=1").model
    b = build_family("circular:m=2,n=3,r=1,s=1").model
    assert a == b


def test_circular_boundary_counts():
    for m, n, r, s in admissible_circular_parameters(5, 5):
        model = build_family(f"circular:m={m},n={n},r={r},s={s}").model
        expected = 2 if (m == n and r + s == m) else 0
        assert len(model.boundaries) == expected, (m, n, r, s)


def test_circular_color_inventory():
    model = build_family("circular:m=3,n=3,r=1,s=1").model
    assert model.color_ids == ("D_r1", "D_r2", "D_s1", "D_s2")
    model = build_family("circular:m=2,n=2,r=1,s=1").model
    assert model.color_ids == ("D_r1", "D_r2")
    assert dict(model.label_aliases) == {"D_s1": "D_r1", "D_s2": "D_r2"}
    model = build_family("circular:m=2,n=3,r=1,s=1").model
    assert model.color_ids == ("D_r1", "D_r2", "D_s2")
    model = build_family("circular:m=4,n=4,r=2,s=2").model
    assert model.color_ids == ("D_1", "E_1", "D_r1", "D_r2")
    model = build_family("circular:m=4,n=5,r=1,s=0").model
    assert model.color_ids == ("D_r1", "D_r2")
    model = build_family("circular:m=4,n=5,r=0,s=2").model
    assert model.color_ids == ("E_1", "D_s1", "D_s2")


def test_circular_merged_label_queries_agree():
    model = build_family("circular:m=3,n=3,r=1,s=2").model
    via_r = model.divisor({"D_r1": 1})
    via_s = model.divisor({"D_s1": 1})
    assert via_r == via_s
    assert class_of(model, via_r) == class_of(model, via_s)


def test_circular_relations_case_i():
    model = build_family("circular:m=4,n=4,r=2,s=2").model
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
    models = [build_family(f"monoid:m={m}").model for m in range(1, 7)]
    models += [build_family("circular:m={},n={},r={},s={}".format(*p)).model for p in admissible_circular_parameters(5, 5)]
    for model in models:
        report = validate_model(model)
        assert report.ok, report.failures


def test_monoid_class_groups_through_rank_six():
    for m in range(1, 7):
        model = build_family(f"monoid:m={m}").model
        pres = class_group(model)
        assert pres.free_rank == m - 1
        assert pres.invariant_factors == ()
        if m > 1:
            assert class_group_generators(model) == tuple(f"D_{i}" for i in range(1, m))


def test_determinantal_parameter_validation():
    for bad in [(2, 2, 0), (2, 2, 2), (3, 2, 2)]:
        with pytest.raises(FamilyParameterError):
            build_family("determinantal:m={},n={},r={}".format(*bad))


def test_determinantal_realization_and_model():
    bundle = build_family("determinantal:m=2,n=2,r=1")
    real, model = bundle.realization, bundle.model
    assert real.membership(real.base_point)
    # The rank <= r - 1 locus has codimension m + n - 2r + 1 = 3, so no boundary.
    assert model.boundaries == ()
    assert validate_model(model).ok
    pres = class_group(model)
    assert pres.free_rank == 1 and not pres.invariant_factors
    coords = class_of(model, canonical_divisor(model))
    assert coords.free == (0,)  # m == n: Gorenstein quadric cone


def test_each_model_boundary_has_one_curve():
    cases = [(build_family(f"monoid:m={m}"), None) for m in range(1, 9)]
    cases += [(build_family("circular:m={},n={},r={},s={}".format(*p)), p[2]) for p in admissible_circular_parameters(5, 5)]
    for bundle, r in cases:
        model, real = bundle.model, bundle.realization
        named = [c.boundary for c in real.curves if c.boundary is not None]
        assert sorted(named) == sorted(model.boundary_ids), model.boundary_ids
        if r is not None and model.boundaries:
            # lambda_r reaches the first circular boundary, mu_r the second
            assert {c.label: c.boundary for c in real.curves} == dict(zip((f"lambda_{r}", f"mu_{r}"), model.boundary_ids))


def _reference_standard_er(rows, cols, r):
    return tuple(tuple(Fraction(int(i == j and i < r)) for j in range(cols)) for i in range(rows))


def test_determinantal_candidate_is_the_curve_limit():
    # The oracle's reference for the closed-form model: on all 91 members with
    # m, n <= 7 the curve's limit is the rank r - 1 idempotent, its orbit has
    # codimension m + n - 2r + 1 >= 3, and the model has no boundary, so the
    # curve, the circular lambda_r at s = 0, names none.
    from sphemb.oracle import limit_signature, orbit_dimension

    members = [(m, n, r) for m in range(2, 8) for n in range(2, 8) for r in range(1, min(m, n))]
    assert len(members) == 91
    for m, n, r in members:
        bundle = build_family(f"determinantal:m={m},n={n},r={r}")
        real, model = bundle.realization, bundle.model
        (curve,) = real.curves
        assert curve.boundary is None
        limit = limit_signature(real, curve.label).limit_point
        assert tuple(map(divided, limit)) == (_reference_standard_er(m, n, r - 1),), (m, n, r)
        codim = orbit_dimension(real) - orbit_dimension(real, point=limit)
        assert codim == m + n - 2 * r + 1 >= 3, (m, n, r)
        assert build_family(f"determinantal:{m},{n},{r}").model.boundaries == ()
        assert finalize_determinantal_model(model, real) is model


def test_finalize_determinantal_model_refuses_a_divisorial_curve():
    # A realization whose boundary curves reach divisors, the monoid's, fails
    # the codimension check that every determinantal model passes unchanged.
    bundle = build_family("monoid:m=2")
    monoid, monoid_real = bundle.model, bundle.realization
    with pytest.raises(ValueError, match="^the limit of lambda_0 lies in a divisor, X_0$"):
        finalize_determinantal_model(monoid, monoid_real)


def test_determinantal_rectangular_canonical_class():
    model = build_family("determinantal:2,4,1").model
    coords = class_of(model, canonical_divisor(model))
    assert coords.generators == ("D_r1",)
    assert coords.free == (4 - 2,)


def test_complexes_realization_checks():
    real = build_family("complexes:l=2,m=3,n=2,r=1,s=1").realization
    # base point satisfies AB = 0 and the rank bounds
    assert real.membership(real.base_point)
    rng = random.Random(17)
    good = real.stabilizer_sampler(rng)
    assert stabilizer_check(real, good)
    # breaking the shared-block condition A11 = B11 moves the base point
    l, a = good[0]
    a_rows = [list(r) for r in a]
    a_rows[0][0] += l
    bad = ((l, a_rows), good[1], good[2])
    assert not stabilizer_check(real, bad)
    with pytest.raises(FamilyParameterError):
        build_family("complexes:l=2,m=3,n=2,r=3,s=1")


def _unit(rows, cols, *cells):
    return ScaledMatrix(1, (rows, cols), [[int((i, j) in cells) for j in range(cols)] for i in range(rows)])


def _unit_inverse(l, rows):
    """(r, R) with R / r the inverse of rows / l, or None if rows is singular."""
    inverse = integer_inverse(rows)
    if inverse is None:
        return None
    d, x = inverse
    return d, [[l * e for e in r] for r in x]


def test_quiver_families_membership_and_lie_rows():
    # (realization, vertex dimensions, arrow sizes, points that fail exactly
    # one condition: one rank bound exceeded or one zero composition broken)
    cases = [
        (
            build_family("determinantal:m=3,n=3,r=1").realization,
            (3, 3),
            (9,),
            [(_unit(3, 3, (0, 0), (1, 1)),)],
        ),
        (
            build_family("circular:m=2,n=3,r=1,s=1").realization,
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
            build_family("complexes:l=2,m=3,n=2,r=1,s=1").realization,
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
        zero = tuple(_unit(*x.shape) for x in real.base_point)
        assert real.membership(zero)
        for point in bad_points:
            assert not real.membership(point), point
        rows = _dense_lie_rows(real, real.base_point)
        assert len(rows) == sum(d * d for d in dims)
        assert all(len(row) == sum(sizes) for row in rows)


def test_circular_stabilizer_samples():
    real = build_family("circular:m=2,n=2,r=1,s=1").realization
    rng = random.Random(19)
    for _ in range(5):
        g = sample_circular_stabilizer(rng, 2, 2, 1, 1)
        assert stabilizer_check(real, g)
        # breaking A11 = B11 moves the base point; skip the one shift that
        # would make the perturbed matrix singular
        for delta in (1, 2, 3):
            l, a = g[0]
            rows = [list(r) for r in a]
            rows[0][0] += delta * l
            if _unit_inverse(l, rows) is None:
                continue
            assert not stabilizer_check(real, ((l, rows), g[1]))
            break
        else:
            raise AssertionError("no invertible perturbation found")


def test_wonderful_family_models():
    wm = build_family("monoid:m=3").wonderful
    lat = wm.lattice
    # fundamental-weight pair for the first simple root: (-w_1, w_1)
    chi = lat.character([-1, 0, 0, 0, 1, 0, 0, 0])
    from sphemb.divisor_model import wonderful_section_divisor

    assert wonderful_section_divisor(wm, chi).as_dict() == {"D_1": 1}

    wc = build_family("circular:m=2,n=2,r=1,s=1").wonderful
    assert [lab for lab, coroots in wc.colors if len(coroots) == 1] == ["D_r1", "D_r2"]
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
    assert bundle.model is not None and bundle.model.boundaries == ()


def test_functional_tables_match_ambient_pairings():
    # The merged D_r1 pulls back eps_r + delta_1 from its one coroot; spot-check
    # its pairing with delta_1 (tests/model_reference.py checks every label).
    model = build_family("circular:m=2,n=3,r=1,s=1").model
    d_r1 = next(c for c in model.colors if c.id == "D_r1")
    chi = model.weight_lattice.basis_character("delta_1")
    assert pair(chi, d_r1.functional) == Fraction(1)


def test_admissible_circular_parameters_match_the_rule():
    expected = [
        (m, n, r, s)
        for m in range(1, 6)
        for n in range(m, 7)
        for r in range(m + 1)
        for s in range(m - r + 1)
        if (r, s) not in {(0, 0), (m, 0), (0, m)}
    ]
    assert admissible_circular_parameters(5, 6) == expected
    for m, n, r, s in [(2, 2, 0, 0), (2, 3, 2, 0), (3, 2, 0, 2), (2, 3, 2, 1), (3, 3, -1, 1)]:
        with pytest.raises(FamilyParameterError):
            build_family(f"circular:m={m},n={n},r={r},s={s}")


def test_wonderful_colours_are_the_model_colours():
    specs = [f"monoid:m={m}" for m in range(1, 7)]
    for m, n, r, s in admissible_circular_parameters(5, 5):
        specs += [f"circular:m={m},n={n},r={r},s={s}", f"circular:m={n},n={m},r={s},s={r}"]
    specs += [
        f"determinantal:m={m},n={n},r={r}" for m in range(1, 6) for n in range(1, 6) for r in range(1, min(m, n))
    ]
    for spec in specs:
        bundle = build_family(spec)
        assert bundle.wonderful.color_ids == bundle.model.color_ids, spec


def _curve_entries(real, label, powers):
    """Assert that the curve's entries are a 1 times t^e at each (i, j) of each arrow's {(i, j): e} in ``powers``."""
    want = tuple(tuple(sorted((i, j, 1, e) for (i, j), e in arrow.items())) for arrow in powers)
    assert tuple(real.monomial_entries(label, a) for a in range(len(real.arrows))) == want, label


def test_curve_points_are_the_cocharacters_applied_to_the_base_point():
    # Every boundary curve's entries against its matrices written out by hand.
    for m in range(1, 6):
        real = build_family(f"monoid:m={m}").realization
        for r in range(m + 1):
            _curve_entries(real, f"lambda_{r}", ({(k, k): int(k >= r) for k in range(m)}, {(k, k): int(k < r) for k in range(m)}))
    for m, n, r, s in admissible_circular_parameters(4, 5):
        real = build_family(f"circular:m={m},n={n},r={r},s={s}").realization
        er = {(i, i): 0 for i in range(r)}
        fs = {(n - s + k, m - s + k): 0 for k in range(s)}
        want = {}
        if r >= 1:
            # At s = 0, B has no coordinate: arrow 0 is the only one.
            want[f"lambda_{r}"] = ({**er, (r - 1, r - 1): 1}, fs)[: 2 if s else 1]
        if s >= 1:
            want[f"mu_{r}"] = (er, {**fs, (r, m - s): 1} if r + s == n else fs)
        assert [c.label for c in real.curves] == list(want), (m, n, r, s)
        for c in real.curves:
            _curve_entries(real, c.label, want[c.label])
    for m, n, r in ((2, 2, 1), (3, 4, 2), (5, 3, 2)):
        real = build_family(f"determinantal:m={m},n={n},r={r}").realization
        (curve,) = real.curves
        assert curve.label == f"lambda_{r}" and curve.cocharacter == (((0, r - 1), 1),)
        _curve_entries(real, curve.label, ({**{(i, i): 0 for i in range(r)}, (r - 1, r - 1): 1},))


def _random_matrix(rng, n, rational):
    if rational:
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
    return [[Fraction(rng.randint(-999, 999)) for _ in range(n)] for _ in range(n)]


def test_integer_inverse_matches_rational_inverse():
    rng = random.Random(5)
    checked = 0
    for n in range(1, 6):
        for rational in (False, True):
            for _ in range(40):
                rows = _random_matrix(rng, n, rational)
                try:
                    want = _reference_rational_inverse(rows)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        rational_inverse(rows)
                    continue
                got = rational_inverse(tuple(tuple(r) for r in rows))
                assert got == want
                assert all(type(e) is Fraction for r in got for e in r)
                checked += 1
    assert checked > 350
    # plain ints are accepted too, and a zero leading pivot forces a row swap
    swap = ((0, 2, 1), (3, 0, 0), (1, 1, 0))
    assert rational_inverse(swap) == _reference_rational_inverse([list(r) for r in swap])
    assert rational_inverse(((Fraction(0), Fraction(1, 2)), (Fraction(-3, 4), Fraction(5)))) == (
        _reference_rational_inverse([[0, Fraction(1, 2)], [Fraction(-3, 4), 5]])
    )
    cyclic = ((0, 1, 0), (0, 0, 1), (1, 0, 0))  # two swaps
    assert rational_inverse(cyclic) == _reference_rational_inverse(cyclic)
    assert rational_inverse(()) == []


def test_integer_inverse_rejects_singular_matrices():
    singular = [
        ((0,),),
        ((1, 2), (2, 4)),
        ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(1))),
        ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
        ((0, 0, 1), (0, 0, 2), (1, 1, 1)),  # no pivot in the second column
    ]
    for rows in singular:
        with pytest.raises(ZeroDivisionError):
            rational_inverse(rows)


# Reference kernels: the oracle's translate, minor and Lie-row computations
# as plain products over Fraction entries.  The integer
# kernels in sphemb.families must agree with them exactly, entry types
# included.


def _reference_apply_pair(g_left, x, g_right_inv):
    from sphemb.lattice import mat_mul

    product = mat_mul(mat_mul([list(r) for r in g_left], [list(r) for r in x]), g_right_inv)
    return tuple(tuple(r) for r in product)


def _reference_det(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _reference_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _units(d, i, j, sign=1):
    return [[Fraction(sign * ((ii, jj) == (i, j))) for jj in range(d)] for ii in range(d)]


def _reference_quiver_lie_rows(dims, arrows, point):
    from sphemb.lattice import mat_mul

    rows = []
    for v, d in enumerate(dims):
        for i in range(d):
            for j in range(d):
                e = _units(d, i, j)
                row = []
                for (s, t), x in zip(arrows, map(divided, point)):
                    if v == s:
                        row += [Fraction(q) for r in mat_mul(e, x) for q in r]
                    elif v == t:
                        row += [-Fraction(q) for r in mat_mul(x, e) for q in r]
                    else:
                        row += [Fraction(0)] * (dims[s] * dims[t])
                rows.append(row)
    return rows


def _reference_monoid_lie_rows(m, point):
    from sphemb.lattice import mat_mul

    x, y = map(divided, point)
    rows = []

    def tangent(a, c, side):
        if side == "left":
            ta, tb = mat_mul(a, [list(r) for r in x]), mat_mul(c, [list(r) for r in y])
        else:
            ta = [[-e for e in row] for row in mat_mul([list(r) for r in x], a)]
            tb = [[-e for e in row] for row in mat_mul([list(r) for r in y], c)]
        return [Fraction(e) for row in ta for e in row] + [Fraction(e) for row in tb for e in row]

    for side in ("left", "right"):
        for i in range(m):
            for j in range(m):
                rows.append(tangent(_units(m, i, j), _units(m, j, i, -1), side))
        identity = [[Fraction(i == j) for j in range(m)] for i in range(m)]
        rows.append(tangent([[Fraction(0)] * m for _ in range(m)], identity, side))
    return rows


def _random_group_matrix(rng, n):
    kind = rng.choice(("integer", "rational", "zero_row", "zero_col"))
    if kind == "rational":
        g = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)] for _ in range(n)]
    else:
        g = [[Fraction(rng.randint(-999, 999)) for _ in range(n)] for _ in range(n)]
    k = rng.randrange(n)
    if kind == "zero_row":
        g[k] = [Fraction(0)] * n
    elif kind == "zero_col":
        for r in g:
            r[k] = Fraction(0)
    return tuple(tuple(r) for r in g)


def _random_entry(rng):
    pick = rng.random()
    if pick < 0.4:
        return 0
    return rng.choice((1, -2, Fraction(3, 4), Fraction(-5, 6)))


def _random_point(rng, rows, cols):
    x = [[_random_entry(rng) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.3:
        x[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.3:
        k = rng.randrange(cols)
        for r in x:
            r[k] = 0
    return tuple(tuple(r) for r in x)


def _same_entries(got, want):
    assert got == want
    assert [[type(e) for e in r] for r in got] == [[type(e) for e in r] for r in want]


def test_apply_pair_matches_reference_products():
    # The translate kernel on integer forms (l, L) of g_left and (r, R) of
    # g_right, L / l = g_left and R / r = g_right.  Forms are scaled up by a
    # random factor, as a carried form need not be reduced.
    from sphemb.realization import _translate
    from sphemb.lattice import scaled_to_integers

    rng = random.Random(11)

    def form(g):
        scale, rows = scaled_to_integers(g)
        k = rng.choice((1, 1, 2, 6))
        return k * scale, [[k * e for e in r] for r in rows]

    def _apply_pair(g_left, x, g_right):
        return divided(_translate(form(g_left), scaled(x, len(g_right)), form(g_right)))

    for _ in range(400):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        x = _random_point(rng, rows, cols)
        g_left, g_right = _random_group_matrix(rng, rows), _random_group_matrix(rng, cols)
        _same_entries(_apply_pair(g_left, x, g_right), _reference_apply_pair(g_left, x, g_right))
    # 1 x 1, and an all-zero point
    half = ((Fraction(1, 2),),)
    for x in (((0,),), ((Fraction(7, 3),),)):
        _same_entries(_apply_pair(half, x, half), _reference_apply_pair(half, x, half))
    g = ((Fraction(2), Fraction(1, 3)), (Fraction(0), Fraction(-1)))
    for x in (((0, 0), (0, 0)), ((0, 0), (1, 0))):
        _same_entries(_apply_pair(g, x, g), _reference_apply_pair(g, x, g))
    # 0 x 2 and 2 x 0 points, the arrows of a complexes member with l or m = 0
    _same_entries(_apply_pair((), (), g), _reference_apply_pair((), (), g))
    _same_entries(_apply_pair(g, ((), ()), ()), _reference_apply_pair(g, ((), ()), ()))


def _minor(m, k, trailing=False) -> Fraction:
    """The top-left, or bottom-right, k x k minor of m, a ``ScaledMatrix`` or rows: ``ScaledMatrix.minor_ratio`` divided once."""
    return Fraction(*(m if isinstance(m, ScaledMatrix) else scaled(m)).minor_ratio(k, trailing))


def test_full_minor_matches_cofactor_expansion():
    # The determinant of a rational square matrix is its full trailing (and
    # leading) minor.
    def check(rows):
        n = len(rows)
        got = _minor(rows, n, True)
        assert got == _reference_det(rows) == _minor(rows, n)
        return got

    rng = random.Random(3)
    entries = (0, 0, 1, -1, Fraction(1, 2), 3)
    for n in range(6):
        for _ in range(60 if n < 5 else 15):
            rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            if n and rng.random() < 0.2:
                rows[0] = [0] * n  # zero first row
            if n > 1 and rng.random() < 0.2:
                rows[-1] = list(rows[0])  # singular: two equal rows
            check(rows)
    assert check([[Fraction(1, 2), 0, 0], [0, Fraction(2, 3), 0], [0, 0, 3]]) == 1
    assert check([]) == 1


def _random_minor_matrix(rng, rows, cols):
    """A rows x cols matrix of integers or of Fractions with mixed
    denominators (picked per matrix), sometimes with all-zero rows."""
    if rng.random() < 0.5:
        entry = lambda: rng.choice((0, rng.randint(-9, 9)))  # noqa: E731
    else:
        entry = lambda: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))  # noqa: E731
    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.choice((0, 0, 1, 2))):
        m[rng.randrange(rows)] = [0] * cols
    return m


def test_minors_match_reference_determinants_of_sliced_blocks():
    # Every leading and trailing minor is read on the matrix as stored, in a
    # random order of k.
    rng = random.Random(29)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_minor_matrix(rng, rows, cols)
        x = scaled(m)
        ks = list(range(1, min(rows, cols) + 1))
        rng.shuffle(ks)
        for k in ks:
            lead = _reference_det([r[:k] for r in m[:k]])
            trail = _reference_det([r[cols - k :] for r in m[rows - k :]])
            assert _minor(x, k) == lead, (m, k)
            assert _minor(x, k, True) == trail, (m, k)


def test_translate_keeps_its_integer_form_and_compares_like_its_rows():
    from sphemb.realization import _translate
    from sphemb.lattice import scaled_to_integers

    rng = random.Random(5)
    for _ in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        x = _random_point(rng, rows, cols)
        g_left, g_right = _random_group_matrix(rng, rows), _random_group_matrix(rng, cols)
        left, right = scaled_to_integers(g_left), scaled_to_integers(g_right)
        moved = _translate(left, scaled(x), right)
        scale, integers = moved.scale, moved.integers
        assert scale == left[0] * scaled(x).scale * right[0]
        assert moved.shape == (rows, cols) and len(integers) == rows and all(len(r) == cols for r in integers)
        eager = divided(moved)
        assert eager == _reference_apply_pair(g_left, x, g_right)
        # == both ways and != on the same matrix stored over another scale,
        # also inside a point, and on its divided rows stored afresh
        doubled = ScaledMatrix(2 * scale, moved.shape, [[2 * c for c in r] for r in integers])
        for other in (scaled(eager), doubled):
            assert moved == other and other == moved and not moved != other and not other != moved
        assert (moved,) == (doubled,) and (doubled,) == (moved,)
        changed = [list(r) for r in eager]
        changed[0][0] += 1
        changed = scaled(changed)
        assert moved != changed and changed != moved and not moved == changed
        # A second translate and the rational minors read the stored form as they are.
        identity = [[int(i == j) for j in range(rows)] for i in range(rows)], [[int(i == j) for j in range(cols)] for i in range(cols)]
        assert divided(_translate((3, [[3 * e for e in r] for r in identity[0]]), moved, (1, identity[1]))) == eager
        for k in range(1, min(rows, cols) + 1):
            assert _minor(moved, k) == _minor(eager, k) == _reference_det([r[:k] for r in eager[:k]])
            assert _minor(moved, k, True) == _minor(eager, k, True)


def test_minor_memos_belong_to_one_matrix():
    # Two matrices with equal shapes each give their own minors, in any
    # order of reading.
    a = scaled([[1, 2, 0], [3, 4, 5], [0, 6, 7]])
    b = scaled([[7, 0, 1], [0, 2, 0], [5, 0, 3]])
    assert [_minor(a, k) for k in (1, 2, 3)] == [1, -2, -44]
    assert [_minor(b, k) for k in (1, 2, 3)] == [7, 14, 32]
    assert [_minor(a, k) for k in (3, 2, 1)] == [-44, -2, 1]
    assert [_minor(b, k, True) for k in (1, 2, 3)] == [3, 6, 32]


def test_stored_zero_coefficients_read_as_zero():
    # A stored entry may be zero, as where terms cancelled, and a matrix may be all zero.
    from sphemb.realization import _translate

    stored = ScaledMatrix(2, (2, 2), [[0, 0], [4, 6]])
    rows = ((0, 0), (2, 3))
    assert divided(stored) == rows
    assert stored == ScaledMatrix(1, (2, 2), [[0, 0], [2, 3]])
    zero = ScaledMatrix(5, (2, 2), [[0, 0], [0, 0]])
    assert divided(zero) == ((0, 0), (0, 0)) and _minor(zero, 1) == _minor(zero, 2, True) == 0
    assert divided(_translate((1, [[1, 0], [0, 1]]), stored, (1, [[1, 0], [0, 1]]))) == rows
    # g x g^-1 with g = [[1, 1], [0, 1]] fixes the identity through cancelling terms.
    fixed = _translate((1, [[1, 1], [0, 1]]), scaled([[1, 0], [0, 1]]), (1, [[1, -1], [0, 1]]))
    assert divided(fixed) == ((1, 0), (0, 1)) and _minor(fixed, 1, True) == 1 and _minor(fixed, 2) == 1


def test_minor_sizes_are_checked():
    # A k x k minor needs 0 <= k <= min(rows, columns); the 2 x 3 matrix has no 3 x 3 block.
    m = [[1, 2, 3], [4, 5, 6]]
    for matrix in (scaled(m), scaled(list(zip(*m)))):
        for k in (-1, 3):
            with pytest.raises(ValueError, match="minor"):
                _minor(matrix, k)
            with pytest.raises(ValueError, match="minor"):
                _minor(matrix, k, True)
        assert _minor(matrix, 0) == _minor(matrix, 0, True) == 1
    assert _minor(m, 2) == _minor(m, 2, True) == -3


_GRID_SPECS = (
    [f"monoid:m={m}" for m in (1, 2, 3, 4)]
    + ["circular:m={},n={},r={},s={}".format(*p) for p in admissible_circular_parameters(3, 3)]
    + [f"determinantal:m={m},n={n},r={r}" for m in (2, 3) for n in (2, 3) for r in range(1, min(m, n))]
    + ["complexes:1,2,2,1,1", "complexes:2,3,2,1,1", "complexes:0,2,2,0,1", "complexes:2,3,2,2,1"]
)


def test_points_are_scaled_matrices_from_construction():
    from sphemb.oracle import limit_signature

    for spec in _GRID_SPECS:
        real = build_family(spec).realization
        for point in [real.base_point] + [limit_signature(real, c.label).limit_point for c in real.curves]:
            for x in point:
                assert isinstance(x, ScaledMatrix), spec


def test_factor_sizes_are_read_off_the_base_point():
    # Each factor's size comes from the shapes of the arrows at it, the
    # samplers and the Lie basis from the sizes.
    for spec in _SAMPLER_SPECS:
        bundle = build_family(spec)
        real, params = bundle.realization, bundle.params
        if bundle.name == "monoid":
            # Two dual pairs (a, b), each with Lie algebra the (A, delta I - A^T).
            want, dimension = (params["m"],) * 4, 2 * (params["m"] ** 2 + 1)
        else:
            # m <= n after the circular swap.
            circular = bundle.name == "circular"
            want = families._circular_parameters(**params)[:2] if circular else tuple(params[k] for k in "lmn" if k in params)
            dimension = sum(n * n for n in want)
        assert real.sizes == want, spec
        assert tuple(len(unit[1]) for unit in real.group_sampler(random.Random(0))) == want, spec
        assert len(real.lie_basis) == dimension, spec
    assert build_family("complexes:l=0,m=2,n=2,r=0,s=1").realization.sizes == (0, 2, 2)
    circular = build_family("circular:m=2,n=3,r=1,s=1").realization
    with pytest.raises(ValueError, match="factor 0 has sizes 2 and 3"):
        dataclasses.replace(circular, arrows=((0, 1), (0, 1)))
    determinantal = build_family("determinantal:m=2,n=3,r=1").realization
    with pytest.raises(ValueError, match="factor 1 is on no arrow"):
        dataclasses.replace(determinantal, arrows=((0, 2),), borel_lower=(True, False, True))


def test_a_base_point_given_as_rows_is_refused():
    # Every point is a ScaledMatrix, which keeps its shape: an arrow given as
    # rows, as tuples or lists, is refused by name at construction, whether
    # the realization is built afresh or copied with dataclasses.replace.
    from sphemb.realization import MatrixRealization

    for spec in _GRID_SPECS + ["complexes:l=0,m=0,n=2,r=0,s=0"]:
        real = build_family(spec).realization
        fields = {f.name: getattr(real, f.name) for f in dataclasses.fields(real) if f.init}
        for a, x in enumerate(real.base_point):
            for rows in (divided(x), [list(r) for r in divided(x)]):
                point = real.base_point[:a] + (rows,) + real.base_point[a + 1 :]
                copied = lambda: dataclasses.replace(real, base_point=point)  # noqa: E731
                built = lambda: MatrixRealization(**{**fields, "base_point": point})  # noqa: E731
                for build in (copied, built):
                    with pytest.raises(ValueError, match=f"^base point arrow {a} is not a ScaledMatrix$"):
                        build()


def test_group_draws_are_the_seeded_stream_drawn_on_every_call():
    # Each draw keeps a generic factor as (A, det A) and a dual pair's second
    # factor as its scalar c; its units are the group sampler's on the stream.
    # Every call draws afresh from Random(seed) and keeps nothing: equal
    # draws, never the same object.
    real = build_family("monoid:m=2").realization
    for trials, seed in ((3, 0), (3, 11), (5, 0)):
        draws = real.group_draws(trials, seed)
        rng = random.Random(seed)
        assert tuple(map(real.element, draws)) == tuple(real.group_sampler(rng) for _ in range(trials))
        for (a, det_a), c, (b, det_b), c2 in draws:
            assert (det_a, det_b) == (row_determinant(a), row_determinant(b)) and det_a and det_b
            assert c in (-3, -2, -1, 1, 2, 3) and c2 in (-3, -2, -1, 1, 2, 3)
        again = real.group_draws(trials, seed)
        assert again == draws and again is not draws
    assert real.group_draws(3, 0) != real.group_draws(3, 11)
    assert real.group_draws(5, 0)[:3] == real.group_draws(3, 0)


def _orbit_points(real, rng):
    yield real.base_point
    yield real.act(real.group_sampler(rng), real.base_point)
    yield tuple(
        scaled([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)], cols)
        for rows, cols in (x.shape for x in real.base_point)
    )


def _scaled_by_arrow(rows, point):
    """Each arrow's block of the ``Fraction`` reference rows times that arrow's scale."""
    scales = []
    for x in point:
        scales += [x.scale] * (x.shape[0] * x.shape[1])
    return [[e * scale for e, scale in zip(row, scales, strict=True)] for row in rows]


def test_quiver_lie_rows_match_unit_matrix_products():
    arrows_of = {"determinantal": ((0, 1),), "circular": ((0, 1), (1, 0)), "complexes": ((0, 1), (1, 2))}
    specs = [f"determinantal:m={m},n={n},r={r}" for m in (2, 3) for n in (2, 3) for r in range(1, min(m, n))]
    specs += [f"circular:m={m},n={n},r={r},s={s}" for m, n, r, s in admissible_circular_parameters(3, 3)]
    # Complexes members with l, m or n = 0 put empty matrices on an arrow.
    specs += [
        f"complexes:l={l},m={m},n={n},r={r},s={s}"
        for l in (0, 1) for m in (0, 1, 2) for n in (0, 1, 2)
        for r in range(l + 1) for s in range(n + 1) if r + s <= m
    ]
    rng = random.Random(8)
    for spec in specs:
        bundle = build_family(spec)
        real = bundle.realization
        arrows = arrows_of[bundle.name]
        dims = tuple(bundle.params[k] for k in "lmn" if k in bundle.params)
        for point in _orbit_points(real, rng):
            got = _dense_lie_rows(real, point)
            assert got == _scaled_by_arrow(_reference_quiver_lie_rows(dims, arrows, point), point), spec
            assert all(type(e) is int for row in got for e in row)


def test_monoid_lie_rows_match_unit_matrix_products():
    rng = random.Random(9)
    for m in (1, 2, 3, 4):
        real = build_family(f"monoid:m={m}").realization
        for point in _orbit_points(real, rng):
            got = _dense_lie_rows(real, point)
            assert got == _scaled_by_arrow(_reference_monoid_lie_rows(m, point), point)
            assert all(type(e) is int for row in got for e in row)


def test_tangent_rows_are_the_sparse_lie_rows_and_rank_like_the_reference():
    # At each member's base point and curve limits: the sparse tangents match
    # the unit-matrix products, store no zero, and rank (sparse_rank,
    # orbit_dimension) like Fraction elimination of the dense reference rows.
    from sphemb.lattice import sparse_rank
    from sphemb.oracle import limit_signature, orbit_dimension

    arrows_of = {"determinantal": ((0, 1),), "circular": ((0, 1), (1, 0)), "complexes": ((0, 1), (1, 2))}
    specs = [f"monoid:m={m}" for m in range(1, 5)]
    specs += [f"determinantal:m={m},n={n},r={r}" for m in (2, 3) for n in (2, 3, 4) for r in range(1, min(m, n))]
    specs += [f"circular:m={m},n={n},r={r},s={s}" for m, n, r, s in admissible_circular_parameters(3, 3)]
    specs += [
        f"complexes:l={l},m={m},n={n},r={r},s={s}"
        for l in (0, 1, 2) for m in (0, 1, 2) for n in (0, 1, 2)
        for r in range(l + 1) for s in range(n + 1) if r + s <= m
    ]
    checked = 0
    for spec in specs:
        bundle = build_family(spec)
        real = bundle.realization
        points = [real.base_point] + [limit_signature(real, c.label).limit_point for c in real.curves]
        for point in points:
            if bundle.name == "monoid":
                reference = _reference_monoid_lie_rows(bundle.params["m"], point)
            else:
                dims = tuple(bundle.params[k] for k in "lmn" if k in bundle.params)
                reference = _reference_quiver_lie_rows(dims, arrows_of[bundle.name], point)
            reference = _scaled_by_arrow(reference, point)
            tangents = real.tangent_rows(point)
            assert all(0 not in row.values() for row in tangents), spec
            assert [{j: e for j, e in enumerate(row) if e} for row in reference] == tangents, spec
            rank = _reference_rational_rank(reference)
            assert sparse_rank(real.tangent_rows(point)) == rank == orbit_dimension(real, point), spec
            checked += 1
    assert checked > 100
    # A Lie element acting on both ends of an arrow cancels where it commutes
    # with X = E_00: the cancelled entry is dropped, not stored as a zero.
    real = build_family("determinantal:m=2,n=2,r=1").realization
    real.lie_basis = ({0: ((0, 0, 1),), 1: ((0, 0, 1),)}, {0: ((0, 1, 1),), 1: ((0, 1, 1),)}, {0: ((0, 0, 2),)})
    assert real.tangent_rows(real.base_point) == [{}, {1: -1}, {0: 2}]
    assert _dense_lie_rows(real, real.base_point) == [[0, 0, 0, 0], [0, -1, 0, 0], [2, 0, 0, 0]]
    assert sparse_rank(real.tangent_rows(real.base_point)) == 2 == orbit_dimension(real)


def test_monoid_wonderful_pairs_are_the_model_coroots():
    # D_i of the wonderful data pairs -f on the first copy of the lattice with
    # f on the second, f the model's colour functional alpha_i^vee.
    for m in range(1, 9):
        bundle = build_family(f"monoid:m={m}")
        model, wm = bundle.model, bundle.wonderful
        assert list(wm.color_ids) == list(model.color_ids)
        for (lab, (left, right)), spec in zip(wm.colors, model.colors):
            f = list(spec.functional.coords)
            assert list(left.coords) == [-c for c in f] + [0] * (m + 1), (m, lab)
            assert list(right.coords) == [0] * (m + 1) + f, (m, lab)


def _reference_monoid_membership(point):
    # A^T B = A B^T = d I over Fraction, the check before it ran on integers.
    a, b = ([list(r) for r in divided(x)] for x in point)
    at_b = [[sum(x * y for x, y in zip(ca, cb)) for cb in zip(*b)] for ca in zip(*a)]
    a_bt = [[sum(x * y for x, y in zip(ra, rb)) for rb in b] for ra in a]
    d = at_b[0][0]
    want = [[d if i == j else 0 for j in range(len(a))] for i in range(len(a))]
    return at_b == want and a_bt == want


def _reference_quiver_membership(point, ranks, zero_paths):
    def product(x, y):
        return [[sum((e * f for e, f in zip(row, col)), Fraction(0)) for col in zip(*y)] for row in x]

    point = tuple(map(divided, point))
    if any(_reference_rational_rank(x) > k for x, k in zip(point, ranks)):
        return False
    return all(e == 0 for i, j in zero_paths for row in product(point[i], point[j]) for e in row)


def _membership_points(real, rng):
    """Orbit points, the same with one entry off by 1/2 or 1, and scaled by rationals."""
    for _ in range(6):
        x = real.act(real.group_sampler(rng), real.base_point)
        yield x
        k = rng.randrange(len(x))
        if all(x[k].shape):
            rows = [list(r) for r in divided(x[k])]
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
            rows[i][j] += rng.choice((1, Fraction(1, 2)))
            yield x[:k] + (scaled(rows),) + x[k + 1 :]
        c = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        yield tuple(scaled([[c * e for e in r] for r in divided(m)], m.shape[1]) for m in x)
        # each arrow matrix scaled by its own rational
        yield tuple(scaled([[Fraction(k + 2, 3) * e for e in r] for r in divided(m)], m.shape[1]) for k, m in enumerate(x))


def test_integer_memberships_match_fraction_memberships():
    rng = random.Random(23)
    verdicts = []
    for m in (1, 2, 3, 4):
        real = build_family(f"monoid:m={m}").realization
        d0 = [[Fraction(0)] * m for _ in range(m)]
        e11, e21 = [list(r) for r in d0], [list(r) for r in d0]
        e11[0][0] = Fraction(1)
        if m > 1:
            e21[1][0] = Fraction(1)
        # (E11, E21): A^T B = 0 but A B^T != 0 when m > 1
        points = [*_membership_points(real, rng), (scaled(e11), scaled(e21))]
        for point in points:
            got = real.membership(point)
            assert got == _reference_monoid_membership(point), (m, point)
            verdicts.append(got)
    # (spec, rank bounds, zero compositions)
    quivers = [
        ("determinantal:m=3,n=4,r=2", (2,), ()),
        ("circular:m=2,n=3,r=1,s=1", (1, 1), ((0, 1), (1, 0))),
        ("circular:m=3,n=3,r=1,s=2", (1, 2), ((0, 1), (1, 0))),
        ("complexes:l=2,m=3,n=2,r=1,s=1", (1, 1), ((0, 1),)),
        ("complexes:l=2,m=3,n=2,r=2,s=1", (2, 1), ((0, 1),)),
    ]
    for spec, ranks, zero_paths in quivers:
        real = build_family(spec).realization
        for point in _membership_points(real, rng):
            got = real.membership(point)
            assert got == _reference_quiver_membership(point, ranks, zero_paths), (spec, point)
            verdicts.append(got)
    assert verdicts.count(True) > 40 and verdicts.count(False) > 20


# A sampled group element is a tuple of units (l, L, r, R), the factor L / l
# with inverse R / r; the seeded draws must stay those of the Fraction-era
# samplers.

_SAMPLER_SPECS = (
    [f"monoid:m={m}" for m in (1, 2, 3, 4)]
    + [f"determinantal:m={m},n={n},r={r}" for m in (2, 3) for n in (2, 3, 4) for r in range(1, min(m, n))]
    + [f"circular:m={m},n={n},r={r},s={s}" for m, n, r, s in admissible_circular_parameters(3, 3)]
    + ["circular:m=3,n=2,r=1,s=1"]
    + [
        f"complexes:l={l},m={m},n={n},r={r},s={s}"
        for l in (0, 1, 2) for m in (0, 1, 2) for n in (0, 1, 2)
        for r in range(min(l, 1) + 1) for s in range(min(n, 1) + 1) if r + s <= m
    ]
)

_SAMPLERS = ("group_sampler", "borel_sampler", "stabilizer_sampler")


def _fracs(rows):
    return tuple(tuple(Fraction(e) for e in r) for r in rows)


def _ref_invertible(rng, n, lo=-4, hi=4):
    # Redraw while the determinant is zero.
    from sphemb.lattice import IntegerMatrix, determinant

    while True:
        m = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if determinant(IntegerMatrix.from_rows(m, cols=n)) != 0:
            return _fracs(m)


def _ref_unit_block(rng, n):
    return _ref_invertible(rng, n) if n else ()


def _ref_triangular(rng, n, lower):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = rng.choice([-3, -2, -1, 1, 2, 3])
        for j in range(n):
            if (j < i) if lower else (j > i):
                m[i][j] = rng.randint(-3, 3)
    return _fracs(m)


def _ref_monoid_element(rng, m, triangular=None):
    # A, then c from rng.choice, then B = c A^-T.
    a = _ref_invertible(rng, m, -999, 999) if triangular is None else _ref_triangular(rng, m, triangular == "lower")
    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    a_inv = _reference_rational_inverse(a)
    return (a, tuple(tuple(c * a_inv[j][i] for j in range(m)) for i in range(m)))


def _ref_block(rng, rows, cols):
    return _fracs([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])


def _ref_block_matrix(blocks, row_sizes, col_sizes):
    rows = []
    for bi, rsize in enumerate(row_sizes):
        for i in range(rsize):
            row = []
            for bj, csize in enumerate(col_sizes):
                blk = blocks[bi][bj]
                row.extend([Fraction(0)] * csize if blk is None else blk[i])
            rows.append(tuple(row))
    return tuple(rows)


def _ref_circular_stabilizer(rng, m, n, r, s):
    s11, s33 = _ref_unit_block(rng, r), _ref_unit_block(rng, s)
    a22, b22 = _ref_unit_block(rng, m - r - s), _ref_unit_block(rng, n - r - s)
    a = _ref_block_matrix(
        [[s11, _ref_block(rng, r, m - r - s), _ref_block(rng, r, s)], [None, a22, _ref_block(rng, m - r - s, s)],
         [None, None, s33]],
        (r, m - r - s, s), (r, m - r - s, s),
    )
    b = _ref_block_matrix(
        [[s11, None, None], [_ref_block(rng, n - r - s, r), b22, None],
         [_ref_block(rng, s, r), _ref_block(rng, s, n - r - s), s33]],
        (r, n - r - s, s), (r, n - r - s, s),
    )
    return (a, b)


def _ref_complexes_stabilizer(rng, l, m, n, r, s):
    a11, c22 = _ref_unit_block(rng, r), _ref_unit_block(rng, s)
    a = _ref_block_matrix([[a11, _ref_block(rng, r, l - r)], [None, _ref_unit_block(rng, l - r)]], (r, l - r), (r, l - r))
    b = _ref_block_matrix(
        [[a11, None, None], [_ref_block(rng, m - r - s, r), _ref_unit_block(rng, m - r - s), None],
         [_ref_block(rng, s, r), _ref_block(rng, s, m - r - s), c22]],
        (r, m - r - s, s), (r, m - r - s, s),
    )
    c = _ref_block_matrix([[_ref_unit_block(rng, n - s), _ref_block(rng, n - s, s)], [None, c22]], (n - s, s), (n - s, s))
    return (a, b, c)


def _reference_sampler(name, params, sampler):
    """The draws a sampler made before group elements carried their inverses."""
    if name == "monoid":
        m = params["m"]
        if sampler == "group_sampler":
            return lambda rng: (*_ref_monoid_element(rng, m), *_ref_monoid_element(rng, m))
        if sampler == "borel_sampler":
            return lambda rng: (*_ref_monoid_element(rng, m, "lower"), *_ref_monoid_element(rng, m, "upper"))
        return lambda rng: 2 * _ref_monoid_element(rng, m)
    dims = tuple(params[k] for k in "lmn" if k in params)
    if name == "circular":
        dims = families._circular_parameters(**params)[:2]  # m <= n after the swap
    if sampler == "group_sampler":
        return lambda rng: tuple(_ref_invertible(rng, d, -999, 999) for d in dims)
    if sampler == "borel_sampler":
        return lambda rng: tuple(_ref_triangular(rng, d, v % 2 == 0) for v, d in enumerate(dims))
    if name == "complexes":
        return lambda rng: _ref_complexes_stabilizer(rng, *(params[k] for k in "lmnrs"))
    m, n, r = params["m"], params["n"], params["r"]
    if name == "circular":
        m, n, r, s = families._circular_parameters(m, n, r, params["s"])
        return lambda rng: _ref_circular_stabilizer(rng, m, n, r, s)
    return lambda rng: _ref_circular_stabilizer(rng, m, n, r, 0)


def test_samplers_consume_the_reference_stream():
    checked = 0
    for spec in _SAMPLER_SPECS:
        bundle = build_family(spec)
        real = bundle.realization
        for sampler in _SAMPLERS:
            reference = _reference_sampler(bundle.name, bundle.params, sampler)
            for seed in range(12):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                g = getattr(real, sampler)(rng)
                assert _factors(g) == reference(ref_rng), (spec, sampler, seed)
                assert rng.getstate() == ref_rng.getstate(), (spec, sampler, seed)
                checked += 1
    assert checked == len(_SAMPLER_SPECS) * len(_SAMPLERS) * 12


def test_rand_nonsingular_rejects_exactly_the_singular_draws(monkeypatch):
    # Small ranges make singular draws common, so the rejection rule shows.
    rejected = 0
    for seed in range(200):
        n, bound = 1 + seed % 3, 1 + seed % 2
        monkeypatch.setattr(realization, "_GENERIC_RANGE", bound)
        rng, ref_rng = random.Random(seed), random.Random(seed)
        m, det = realization._rand_nonsingular(rng, n, realization._GENERIC_RANGE)
        assert _fracs(m) == _ref_invertible(ref_rng, n, -bound, bound)
        assert rng.getstate() == ref_rng.getstate()
        probe = random.Random(seed)
        rejected += [[probe.randint(-bound, bound) for _ in range(n)] for _ in range(n)] != m
        d, x = integer_inverse(m)
        assert det in (d, -d) and [[Fraction(e, d) for e in r] for r in x] == _reference_rational_inverse(m)
    assert rejected > 40


def _factors(g):
    """The factors L / l of a tuple of units or of factors (l, L), as tuples of Fractions."""
    return tuple(tuple(tuple(Fraction(e, l) for e in row) for row in m) for l, m, *_ in g)


def _inverses(g):
    """The inverses R / r of a tuple of units, as lists of Fractions."""
    return [[[Fraction(e, r) for e in row] for row in inv] for _, _, r, inv in g]


def _identity_rows(n):
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def _points(real):
    """The base point and its curves' limits."""
    from sphemb.oracle import limit_signature

    return [real.base_point] + [limit_signature(real, c.label).limit_point for c in real.curves]


def test_sampled_units_carry_their_inverses():
    # R / r times L / l is the identity for every factor of the group and
    # Borel samplers' draws, on integer matrices with l, r > 0.  A stabilizer
    # element carries its nonsingular factors (l, L) alone, l > 0.
    from sphemb.lattice import mat_mul

    for spec in _SAMPLER_SPECS:
        real = build_family(spec).realization
        for seed in range(3):
            for l, m in real.stabilizer_sampler(random.Random(seed)):
                assert l > 0 and all(type(e) is int for row in m for e in row) and row_determinant(m), spec
        for sampler in ("group_sampler", "borel_sampler"):
            for seed in range(3):
                g = getattr(real, sampler)(random.Random(seed))
                assert type(g) is tuple, (spec, sampler)
                for (l, form, r, inverse), factor, inv in zip(g, _factors(g), _inverses(g)):
                    assert l > 0 and r > 0, (spec, sampler)
                    assert all(type(e) is int for m in (form, inverse) for row in m for e in row)
                    assert mat_mul(inv, [list(row) for row in factor]) == _identity_rows(len(factor)), (spec, sampler)


def _bumped_copies(g):
    """Copies of ``g`` with one entry of one factor raised by 1, factor by factor and row-major, each bumped
    factor L / l as (L + l E_ij) / l with its own inverse from ``integer_inverse``; a singular bump gives no copy."""
    for k, (l, m, *_) in enumerate(g):
        for i, row in enumerate(m):
            for j in range(len(row)):
                bumped = [list(r) for r in m]
                bumped[i][j] += l
                inverse = _unit_inverse(l, bumped)
                if inverse is not None:
                    yield g[:k] + ((l, bumped, *inverse),) + g[k + 1 :]


def test_act_on_hand_built_elements_inverts_their_own_factors():
    # A bumped copy of a sampled element is no group element: ``act`` reads
    # each bumped factor's own inverse, never one through identities that
    # hold only for sampled elements (B^-1 = A^T / c).
    for m in (1, 2, 3):
        real = build_family(f"monoid:m={m}").realization
        x = _points(real)[1 + m // 2]
        for seed in range(4):
            g = real.group_sampler(random.Random(seed))
            factors = _factors(g)
            copies = 0
            for bumped in _bumped_copies(g):
                (k,) = [j for j in range(4) if bumped[j] is not g[j]]
                inverse = _inverses(bumped)[k]
                assert inverse == _reference_rational_inverse(_factors(bumped)[k]), (m, seed, k)
                if k in (1, 3):
                    assert inverse != _inverses(g)[k]  # not A^T / c
                f = _factors(bumped)
                want = tuple(
                    _reference_apply_pair(f[j], divided(x[j]), _reference_rational_inverse(f[j + 2])) for j in (0, 1)
                )
                assert tuple(map(divided, real.act(bumped, x))) == want, (m, seed, k)
                copies += 1
            assert copies > 0
            # the sampled element itself against the same reference product
            want = tuple(
                _reference_apply_pair(factors[j], divided(x[j]), _reference_rational_inverse(factors[j + 2])) for j in (0, 1)
            )
            assert tuple(map(divided, real.act(g, x))) == want
    # a bump that makes a factor singular yields no copy: of the eight bumps
    # of (I, [[1, 1], [0, 1]]) only B's (1, 0) entry gives [[1, 1], [1, 1]]
    real = build_family("circular:m=2,n=2,r=1,s=1").realization
    g = (realization._unit([[1, 0], [0, 1]]), realization._unit([[1, 1], [0, 1]]))
    copies = list(_bumped_copies(g))
    assert len(copies) == 7
    assert [[1, 1], [1, 1]] not in [c[1][1] for c in copies]
    assert all(not stabilizer_check(real, c) for c in copies)
    assert real.bump_moves_base_point(g)


def test_negative_control_walks_the_invertible_bumps_in_order():
    # Factor by factor, then row-major; each bump raises one entry of one
    # factor by 1 (the integer matrix by l) and keeps the other factors.
    # [[-1]] + 1 and [[1, 1], [1, 1]] are singular, so those two bumps are
    # skipped: det L + l C_ij(L) = 0 for the (i, j) cofactor C_ij.  The base
    # point is zero, so no bump moves it and every other bump is tested.
    from sphemb.realization import _unit

    real = build_family("complexes:l=1,m=2,n=2,r=0,s=0").realization
    minus_one = (1, [[-1]], 1, [[-1]])
    diag = (3, [[3, 0], [0, 6]], 2, [[2, 0], [0, 1]])  # diag(1, 2) and diag(1, 1/2)
    g = (minus_one, diag, _unit([[1, 1], [0, 1]]))
    before = _factors(g)
    bumps = []

    def record(forward):
        (k,) = [j for j in range(3) if forward[j][1] is not g[j][1]]
        l, after = forward[k]
        (cell,) = [(i, j) for i, row in enumerate(after) for j, e in enumerate(row) if e != g[k][1][i][j]]
        assert l == g[k][0] and after[cell[0]][cell[1]] == g[k][1][cell[0]][cell[1]] + l
        bumps.append((k, cell))
        return True

    real._fixes = record
    assert not real.bump_moves_base_point(g)
    assert bumps == [(1, (0, 0)), (1, (0, 1)), (1, (1, 0)), (1, (1, 1)), (2, (0, 0)), (2, (0, 1)), (2, (1, 1))]
    # the same bumps, in the same order, as the copies that integer_inverse finds invertible
    reference = []
    for copy in _bumped_copies(g):
        (k,) = [j for j in range(3) if copy[j] is not g[j]]
        reference += [(k, (i, j)) for i, row in enumerate(copy[k][1]) for j, e in enumerate(row) if e != g[k][1][i][j]]
    assert bumps == reference
    assert _factors(g) == before  # the element itself is left as it was


# Every member of a small grid of each family, for the swapped-units test.
_INVERSE_MEMBERS = (
    [f"monoid:m={m}" for m in range(1, 5)]
    + [f"determinantal:m={m},n={n},r={r}" for m in (2, 3) for n in (2, 3, 4) for r in range(1, min(m, n))]
    + [f"circular:m={m},n={n},r={r},s={s}" for m, n, r, s in admissible_circular_parameters(3, 3)]
    + [
        f"complexes:l={l},m={m},n={n},r={r},s={s}"
        for l in range(3)
        for m in range(3)
        for n in range(3)
        for r in range(l + 1)
        for s in range(n + 1)
        if r + s <= m
    ]
)


def _inverse_element(g):
    """g^-1, read off the units: the factor L / l with inverse R / r becomes R / r with inverse L / l."""
    return tuple((r, big_r, l, big_l) for l, big_l, r, big_r in g)


@pytest.mark.parametrize("spec", _INVERSE_MEMBERS)
def test_swapped_units_undo_act(spec):
    # The units of a draw (``element``) carry their inverses: g^-1, read off
    # g's units with no elimination, must undo g on any point, stay in the
    # variety and invert back to g itself.
    real = build_family(spec).realization
    for seed in range(8):
        rng = random.Random(seed)
        g, h = real.element(real.group_draw(rng)), real.group_sampler(rng)
        inverse = _inverse_element(g)
        orbit_point = real.act(h, real.base_point)
        for x in (real.base_point, orbit_point):
            assert real.act(inverse, real.act(g, x)) == x, (spec, seed)
            assert real.act(g, real.act(inverse, x)) == x, (spec, seed)
        assert real.membership(real.act(inverse, real.base_point)), (spec, seed)
        assert _inverse_element(inverse) == g


# The weight functions the torus tables replace, on Fraction factor matrices.


def _ref_monoid_weight_value(m):
    def char_value(chi, a, b):
        v = Fraction(1)
        for k in range(m):
            v *= Fraction(a[k][k]) ** chi.coords[k]
        v *= Fraction(b[0][0]) ** chi.coords[m]
        return v

    def weight_value(chi, g):
        a1, b1, a2, b2 = g
        return char_value(chi, a1, b1) / char_value(chi, a2, b2)

    return weight_value


def _ref_circular_weight_value(r, s):
    def weight_value(chi, g):
        g1, g2 = g
        m, n = len(g1), len(g2)
        v = Fraction(1)
        for i in range(r):
            v *= (Fraction(g1[i][i]) / Fraction(g2[i][i])) ** chi.coords[i]
        for j in range(s):
            v *= (Fraction(g2[n - s + j][n - s + j]) / Fraction(g1[m - s + j][m - s + j])) ** chi.coords[r + j]
        return v

    return weight_value


def test_torus_tables_match_the_weight_functions():
    rng = random.Random(29)
    checked = 0
    for spec in _SAMPLER_SPECS:
        bundle = build_family(spec)
        real, name, params = bundle.realization, bundle.name, bundle.params
        if name == "complexes":
            # The complexes weight function raised for every character: no
            # semi-invariant, so nothing reads a weight.
            assert real.torus == () and real.semi_invariants == ()
            continue
        if name == "monoid":
            lattice, reference = bundle.model.weight_lattice, _ref_monoid_weight_value(params["m"])
        elif name == "circular":
            _, _, r, s = families._circular_parameters(**params)
            lattice, reference = bundle.model.weight_lattice, _ref_circular_weight_value(r, s)
        else:
            lattice, reference = bundle.model.weight_lattice, _ref_circular_weight_value(params["r"], 0)
        assert len(real.torus) == lattice.rank, spec
        chars = [lattice.basis_character(lab) for lab in lattice.labels]
        chars += [lattice.character([rng.randint(-3, 3) for _ in range(lattice.rank)]) for _ in range(4)]
        for seed in range(4):
            b = real.borel_sampler(random.Random(seed))
            for chi in chars:
                got = weight_value(real, chi, b)
                assert got == reference(chi, _factors(b)) and type(got) is Fraction, (spec, seed, chi.coords)
                checked += 1
    assert checked > 500


def test_dilation_matches_fraction_sum():
    # d(A, B) = sum a_ij b_ij / m, summed on integer forms and divided once,
    # at the base point, the curves' limits and their translates.
    for m in (1, 2, 3, 4):
        real = build_family(f"monoid:m={m}").realization
        (dilation,) = [f for f in real.semi_invariants if f.name == "d"]
        rng = random.Random(m)
        points = _points(real) + [real.act(real.group_sampler(rng), x) for x in _points(real)]
        for point in points:
            a, b = map(divided, point)
            want = sum((a[i][j] * b[i][j] for i in range(m) for j in range(m)), Fraction(0)) / m
            got = dilation.evaluate(point)
            assert got == want and type(got) is type(want), (m, point)
