"""Acceptance suite: one test per criterion, each printing a pass line.

Every expected value is exact; there are no tolerances anywhere.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import dataclasses
import random
import time

from sphemb.divisor_model import (
    class_group,
    class_group_generators,
    class_of,
    canonical_divisor,
    is_gorenstein,
    is_principal,
    principal_divisor,
    validate_model,
    wonderful_section_divisor,
    WonderfulModel,
)
from sphemb.families import admissible_circular_parameters, build_family
from sphemb.lattice import IntegerMatrix, determinant, smith_normal_form
from sphemb.oracle import orbit_dimension, select_semi_invariants, verify_boundary_valuations
from sphemb.rootdata import TorusLattice


def _passed(num, text):
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_c01_monoid_class_group():
    for m in range(1, 7):
        pres = class_group(build_family(f"monoid:m={m}").model)
        assert pres.free_rank == m - 1, m
        assert pres.invariant_factors == (), m
    _passed(1, "monoid class groups free of rank m-1, no torsion, m=1..6")


def test_c02_monoid_gorenstein():
    for m in range(1, 7):
        assert is_gorenstein(build_family(f"monoid:m={m}").model) == (m == 1), m
    _passed(2, "monoid Gorenstein iff m=1, m=1..6")


def test_c03_monoid_relations_regression():
    for m in range(2, 7):
        model = build_family(f"monoid:m={m}").model

        def expected(i):
            coeffs = {}
            if i == 1:
                coeffs = {"X_0": 1, "D_1": 1}
            elif i < m:
                coeffs = {f"X_{j}": 1 for j in range(i)}
                coeffs[f"D_{i}"] = coeffs.get(f"D_{i}", 0) + 1
                coeffs[f"D_{i - 1}"] = coeffs.get(f"D_{i - 1}", 0) - 1
            elif i == m:
                coeffs = {f"X_{j}": 1 for j in range(m)}
                coeffs[f"D_{m - 1}"] = -1
            else:
                coeffs = {f"X_{j}": 1 for j in range(1, m + 1)}
                coeffs["D_1"] = -1
            return {k: v for k, v in coeffs.items() if v != 0}

        for i in range(1, m + 2):
            d = principal_divisor(model, model.character(f"eps_{i}"))
            assert d.as_dict() == expected(i), (m, i)
    _passed(3, "all four semi-invariant relation families reproduced, m=2..6")


def test_c04_dilation_divisor():
    for m in range(1, 7):
        model = build_family(f"monoid:m={m}").model
        dilation = model.divisor({f"X_{j}": 1 for j in range(m + 1)})
        assert class_of(model, dilation).is_zero, m
        ok, witness = is_principal(model, dilation)
        assert ok, m
        assert witness == model.character("eps_1") + model.character(f"eps_{m + 1}"), m
    _passed(4, "dilation divisor principal with witness eps_1 + eps_{m+1}, m=1..6")


def test_c05_circular_case_i():
    cases = 0
    for m in range(2, 6):
        n = m
        for r in range(1, m):
            s = m - r
            model = build_family(f"circular:m={m},n={n},r={r},s={s}").model
            assert len(model.boundaries) == 2, (m, r)
            pres = class_group(model)
            assert pres.free_rank == 2 and not pres.invariant_factors, (m, r)
            assert class_group_generators(model) == ("D_r1", "D_r2"), (m, r)
            assert class_of(model, canonical_divisor(model)).is_zero, (m, r)
            cases += 1
    assert cases == 4 + 3 + 2 + 1
    _passed(5, f"circular case (i): rank-2 class group on D_r1, D_r2 and trivial K, {cases} cases")


def test_c06_circular_case_ii():
    cases = 0
    for m in range(2, 6):
        for n in range(m + 1, 6):
            for r in range(1, m):
                s = m - r
                model = build_family(f"circular:m={m},n={n},r={r},s={s}").model
                assert len(model.boundaries) == 0, (m, n, r)
                pres = class_group(model)
                assert pres.free_rank == 1 and not pres.invariant_factors, (m, n, r)
                coords = class_of(model, canonical_divisor(model))
                assert coords.generators == ("D_r1",), (m, n, r)
                assert coords.free == (2 * (n - m),), (m, n, r)
                cases += 1
    assert cases > 0
    _passed(6, f"circular case (ii): Cl = Z with [K] = 2(n-m) on D_r1, {cases} cases")


def test_c07_circular_case_iii():
    cases = 0
    for m, n, r, s in admissible_circular_parameters(5, 5):
        if r + s >= m:
            continue
        model = build_family(f"circular:m={m},n={n},r={r},s={s}").model
        expected_gens = tuple(
            lab for lab, present in (("D_r1", r > 0), ("D_s1", s > 0)) if present
        )
        coords = class_of(model, canonical_divisor(model))
        assert coords.generators == expected_gens, (m, n, r, s)
        pres = class_group(model)
        assert pres.free_rank == len(expected_gens) and not pres.invariant_factors, (m, n, r, s)
        assert coords.free == tuple(n - m for _ in expected_gens), (m, n, r, s)
        cases += 1
    assert cases > 0
    _passed(7, f"circular case (iii): [K] = (n-m) on each named generator with omission rules, {cases} cases")


def test_c08_circular_gorenstein_corollary():
    cases = 0
    for m, n, r, s in admissible_circular_parameters(5, 5):
        model = build_family(f"circular:m={m},n={n},r={r},s={s}").model
        assert is_gorenstein(model) == (m == n), (m, n, r, s)
        cases += 1
    _passed(8, f"circular Gorenstein iff m = n over all {cases} admissible parameter sets, m,n <= 5")


def test_c09_dimension_oracle():
    start = time.monotonic()
    cases = 0
    for m, n, r, s in admissible_circular_parameters(4, 4):
        real = build_family(f"circular:m={m},n={n},r={r},s={s}").realization
        assert orbit_dimension(real) == (r + s) * (m + n - (r + s)), (m, n, r, s)
        cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"dimension oracle took {elapsed:.1f}s"
    _passed(9, f"orbit dimension equals (r+s)(m+n-(r+s)) on {cases} cases in {elapsed:.1f}s")


def test_c10_oracle_model_boundary_equivalence():
    start = time.monotonic()
    for m in range(1, 5):
        bundle = build_family(f"monoid:m={m}")
        model, real = bundle.model, bundle.realization
        verified = select_semi_invariants(real, trials=8, seed=0)
        assert [f.name for f in verified] == ["d"] + [f"Delta_{i}" for i in range(1, m + 1)]
        report = verify_boundary_valuations(model, real, verified, trials=8, seed=0)
        assert report.passed, m
        assert report.stable, m

    # negative control: corrupting one valuation is caught at exactly that entry
    bundle = build_family("monoid:m=3")
    model, real = bundle.model, bundle.realization
    doubled = model.weight_lattice.covector([2 * c for c in model.boundaries[1].valuation.coords])
    corrupted = dataclasses.replace(
        model,
        boundaries=(model.boundaries[0], dataclasses.replace(model.boundaries[1], valuation=doubled))
        + model.boundaries[2:],
    )
    report = verify_boundary_valuations(corrupted, real, trials=8, seed=0)
    assert not report.passed
    mismatches = [rec for rec in report.records if not rec.match]
    assert mismatches and all(rec.inputs["boundary"] == "X_1" for rec in mismatches)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"boundary verification took {elapsed:.1f}s"
    _passed(10, f"boundary valuations verified for monoid m<=4 with negative control in {elapsed:.1f}s")


def test_c11_validation_invariant():
    models = [build_family(f"monoid:m={m}").model for m in range(1, 7)]
    models += [build_family("circular:m={},n={},r={},s={}".format(*p)).model for p in admissible_circular_parameters(5, 5)]
    models += [build_family(f"determinantal:{m},{n},{r}").model for m, n, r in [(2, 2, 1), (2, 3, 1), (3, 3, 2)]]
    for model in models:
        report = validate_model(model)
        assert report.ok, report.failures
    _passed(11, f"validate_model passes on all {len(models)} family models (antidominance included)")


def test_c12_property_suites():
    rng = random.Random(12345)

    # Smith normal form on 500 random matrices up to 6x6, entries in [-20, 20].
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = IntegerMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        snf = smith_normal_form(a)
        assert snf.U @ a @ snf.V == snf.D
        assert abs(determinant(snf.U)) == 1
        assert abs(determinant(snf.V)) == 1
        assert snf.D.is_diagonal()
        diag = snf.D.diagonal()
        assert all(d >= 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            assert y == 0 if x == 0 else y % x == 0

    # principal_divisor is a homomorphism on 200 random character pairs.
    models = [
        build_family("monoid:m=2").model,
        build_family("monoid:m=4").model,
        build_family("circular:m=2,n=2,r=1,s=1").model,
        build_family("circular:m=3,n=4,r=2,s=1").model,
    ]
    for k in range(200):
        model = models[k % len(models)]
        chi1 = model.weight_lattice.character(
            [rng.randint(-9, 9) for _ in range(model.weight_lattice.rank)]
        )
        chi2 = model.weight_lattice.character(
            [rng.randint(-9, 9) for _ in range(model.weight_lattice.rank)]
        )
        assert principal_divisor(model, chi1 + chi2) == principal_divisor(model, chi1) + principal_divisor(model, chi2)

    # wonderful_section_divisor is a homomorphism on 200 random Picard pairs.
    lattice = TorusLattice(tuple(f"e{i}" for i in range(1, 7)))

    def cov(*pairs):
        v = [0] * 6
        for idx, c in pairs:
            v[idx] = c
        return lattice.covector(v)

    wonderful = WonderfulModel(
        lattice,
        (
            ("D_1", (cov((0, 1), (1, -1)), cov((3, 1), (4, -1)))),
            ("D_a", (cov((1, 1), (2, -1)),)),
            ("D_b", (cov((4, 1), (5, -1)),)),
        ),
    )
    pic_gens = [
        lattice.character([1, 0, 0, 1, 0, 0]),
        lattice.character([1, 1, 0, 0, 0, 0]),
        lattice.character([0, 0, 0, 1, 1, 0]),
    ]
    for _ in range(200):
        chi1 = lattice.combination([])
        chi2 = lattice.combination([])
        for g in pic_gens:
            chi1 = chi1 + rng.randint(-5, 5) * g
            chi2 = chi2 + rng.randint(-5, 5) * g
        lhs = wonderful_section_divisor(wonderful, chi1 + chi2)
        assert lhs == wonderful_section_divisor(wonderful, chi1) + wonderful_section_divisor(wonderful, chi2)

    # class_of(principal_divisor(chi)) == 0 on 200 random characters.
    for k in range(200):
        model = models[k % len(models)]
        chi = model.weight_lattice.character(
            [rng.randint(-9, 9) for _ in range(model.weight_lattice.rank)]
        )
        assert class_of(model, principal_divisor(model, chi)).is_zero
    _passed(12, "SNF x500, homomorphism x200+200 and principal-class x200 property suites, zero failures")


def test_c13_wonderful_section_divisors():
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
    w11 = lattice.character([1, 0, 0, 0, 0, 0])
    w12 = lattice.character([0, 0, 0, 1, 0, 0])
    w_a = lattice.character([1, 1, 0, 0, 0, 0])
    w_b = lattice.character([0, 0, 0, 1, 1, 0])
    assert wonderful_section_divisor(model, w11 + w12).as_dict() == {"D_1": 1}
    assert wonderful_section_divisor(model, w_a).as_dict() == {"D_a": 1}
    assert wonderful_section_divisor(model, w_b).as_dict() == {"D_b": 1}
    _passed(13, "wonderful section divisors: paired fundamental weights give D_i, unpaired give D_j")
