import dataclasses
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from form_reference import act, curve_point, form_at, form_values, weight_value
from point_reference import divided, scaled
from test_families import realization_and_weight
from valuation_reference import infer_boundary_valuation

from sphemb import oracle, realization
from sphemb.families import build_family
from sphemb.realization import Curve, MatrixRealization, Minor, Pairing, ScaledMatrix, SemiInvariantSpec
from sphemb.laurent import NegativeExponentError
from sphemb.rootdata import TorusLattice
from sphemb.oracle import (
    CheckRecord,
    IdenticallyZeroError,
    SemiInvarianceError,
    TOrderResult,
    VerificationReport,
    limit_signature,
    orbit_dimension,
    select_semi_invariants,
    semiinvariance_check,
    stabilizer_check,
    t_order,
    verification_report,
    verify_boundary_valuations,
)


def _find(semis, name):
    return next(f for f in semis if f.name == name)


def test_t_order_examples():
    bundle = build_family("monoid:m=3")
    model, real = bundle.model, bundle.realization
    d = _find(real.semi_invariants, "d")
    res = t_order(real, d, "lambda_1")
    assert res.order == 1 and res.stable

    # The 0 x 0 minor is the constant 1.
    const = SemiInvariantSpec("one", model.weight_lattice.combination([]), Minor(0, 0))
    assert t_order(real, const, "lambda_2").order == 0

    delta2 = _find(real.semi_invariants, "Delta_2")
    assert t_order(real, delta2, "lambda_0").order == 2

    # A 3 x 3 minor vanishes on every matrix of rank at most 2.
    bundle = build_family("determinantal:m=3,n=3,r=2")
    det_real, det_model = bundle.realization, bundle.model
    zero = SemiInvariantSpec("zero", det_model.weight_lattice.combination([]), Minor(0, 3))
    with pytest.raises(IdenticallyZeroError):
        t_order(det_real, zero, "lambda_2")


def test_monoid_limit_signatures():
    for m in range(1, 6):
        real = build_family(f"monoid:m={m}").realization
        for r in range(m + 1):
            sig = limit_signature(real, f"lambda_{r}")
            assert sig.rank_profile == (r, m - r)
            # the limit is the pair of complementary standard idempotents
            a, b = map(divided, sig.limit_point)
            assert all(a[i][i] == (1 if i < r else 0) for i in range(m))
            assert all(b[i][i] == (0 if i < r else 1) for i in range(m))


def test_determinantal_limit_signature():
    real = build_family("determinantal:m=2,n=2,r=1").realization
    assert real.membership(real.base_point)
    sig = limit_signature(real, "lambda_1")
    assert sig.rank_profile == (0,)  # the scaled idempotent degenerates to zero


def test_circular_limit_signature():
    real = build_family("circular:m=2,n=2,r=1,s=1").realization
    sig = limit_signature(real, "lambda_1")
    assert sig.rank_profile == (0, 1)
    sig = limit_signature(real, "mu_1")
    assert sig.rank_profile == (1, 0)
    # a curve without t degenerates nowhere: limit is the base point
    real23 = build_family("circular:m=2,n=3,r=1,s=1").realization
    sig = limit_signature(real23, "mu_1")
    assert sig.limit_point == real23.base_point
    assert sig.rank_profile == (1, 1)


def _one_arrow(base, *curves):
    """A realization of one arrow between two factors, on a base point given as rows (``scaled``), with the given curves."""
    return MatrixRealization(
        base_point=(scaled(base),),
        membership=lambda pt: True,
        arrows=((0, 1),),
        borel_lower=(True, False),
        expected_orbit_dimension=0,
        stabilizer_sampler=lambda rng: (),
        curves=curves,
    )


def test_limit_negative_powers_rejected():
    # lambda_1(t) = t on the second factor sends x to x t^-1: no limit at t = 0.
    real = _one_arrow(((Fraction(1),),), Curve("pole", {(1, 0): 1}, (0,)))
    with pytest.raises(NegativeExponentError):
        limit_signature(real, "pole")


def test_limit_reads_stored_coefficients():
    # An entry c t^e keeps c at e = 0 and drops at e > 0; any e < 0 has no
    # limit.  The limit keeps the base point's scale: (3, 5/2) over 2.
    base = ((3, 0, 0), (0, Fraction(5, 2), 0))
    real = _one_arrow(
        base,
        Curve("flat", {}, (2,)),
        Curve("half", {(0, 1): 1, (1, 2): 4}, (1,)),
        Curve("gone", {(0, 0): 1, (0, 1): 2, (1, 0): -1}, (0,)),
        Curve("both", {(0, 0): 1, (1, 0): 1}, (2,)),
    )
    sig = limit_signature(real, "flat")
    assert tuple(map(divided, sig.limit_point)) == (base,) and sig.rank_profile == (2,) and sig.limit_point[0].scale == 2
    sig = limit_signature(real, "half")
    assert tuple(map(divided, sig.limit_point)) == (((3, 0, 0), (0, 0, 0)),) and sig.rank_profile == (1,)
    # With every entry's exponent positive the limit is zero.
    sig = limit_signature(real, "gone")
    assert tuple(map(divided, sig.limit_point)) == (((0, 0, 0), (0, 0, 0)),) and sig.rank_profile == (0,)
    # t at row 0 on the left and t^-1 at column 0 on the right meet at (0, 0) as t^(1 - 1) = 1.
    sig = limit_signature(real, "both")
    assert tuple(map(divided, sig.limit_point)) == (base,) and sig.rank_profile == (2,)
    with pytest.raises(NegativeExponentError):
        limit_signature(_one_arrow(base, Curve("c", {(1, 1): 1}, (1,))), "c")


def test_orbit_dimensions():
    assert orbit_dimension(build_family("circular:m=2,n=2,r=1,s=1").realization) == 4
    assert orbit_dimension(build_family("circular:m=3,n=3,r=1,s=1").realization) == 8
    assert orbit_dimension(build_family("determinantal:m=3,n=3,r=2").realization) == 8
    assert orbit_dimension(build_family("monoid:m=2").realization) == 5
    real = build_family("complexes:l=2,m=3,n=2,r=1,s=1").realization
    assert orbit_dimension(real) == real.expected_orbit_dimension == 7
    # The Jacobian rank at the base point is the closed formula
    # r(l + m - r) + s(m + n - s) - rs on every complexes member with
    # l, m, n <= 3, zero dimensions included.
    count = 0
    for l, m, n in itertools.product(range(4), repeat=3):
        for r, s in itertools.product(range(l + 1), range(n + 1)):
            if r + s <= m:
                real = build_family(f"complexes:l={l},m={m},n={n},r={r},s={s}").realization
                assert orbit_dimension(real) == real.expected_orbit_dimension, (l, m, n, r, s)
                count += 1
    assert count == 206


def test_semiinvariance_weights():
    for m in range(1, 6):
        bundle = build_family(f"monoid:m={m}")
        model, real = bundle.model, bundle.realization
        d = _find(real.semi_invariants, "d")
        weight = semiinvariance_check(real, d)
        expected = model.character("eps_1") + model.character(f"eps_{m + 1}")
        assert weight == expected

    bundle = build_family("monoid:m=3")
    model, real = bundle.model, bundle.realization
    delta1 = _find(real.semi_invariants, "Delta_1")
    assert semiinvariance_check(real, delta1, trials=20) == model.character("eps_1")

    const = SemiInvariantSpec("one", model.weight_lattice.combination([]), Minor(0, 0))
    assert semiinvariance_check(real, const) == model.weight_lattice.combination([])


def test_semiinvariance_rejects_wrong_claims():
    bundle = build_family("monoid:m=3")
    model, real = bundle.model, bundle.realization
    # trailing principal minors are not semi-invariant for this Borel choice
    trailing = _find(real.semi_invariants, "Delta_trail_1")
    with pytest.raises(SemiInvarianceError):
        semiinvariance_check(real, trailing)
    # right function, wrong weight
    d = _find(real.semi_invariants, "d")
    wrong = SemiInvariantSpec("d", model.character("eps_1"), d.form)
    with pytest.raises(SemiInvarianceError):
        semiinvariance_check(real, wrong)


def test_select_semi_invariants_keeps_leading_minors():
    real = build_family("monoid:m=3").realization
    names = [f.name for f in select_semi_invariants(real)]
    assert names == ["d", "Delta_1", "Delta_2", "Delta_3"]


def test_verify_boundary_valuations_monoid():
    bundle = build_family("monoid:m=3")
    model, real = bundle.model, bundle.realization
    report = verify_boundary_valuations(model, real)
    assert report.passed and report.stable
    # model value <chi, nu_r> appears in every record
    for rec in report.records:
        assert rec.check == "boundary_valuation"
        assert rec.match


def test_verify_boundary_valuations_negative_control():
    bundle = build_family("monoid:m=3")
    model, real = bundle.model, bundle.realization
    doubled = model.weight_lattice.covector([2 * c for c in model.boundaries[1].valuation.coords])
    corrupted = dataclasses.replace(
        model,
        boundaries=(
            model.boundaries[0],
            dataclasses.replace(model.boundaries[1], valuation=doubled),
        )
        + model.boundaries[2:],
    )
    report = verify_boundary_valuations(corrupted, real)
    assert not report.passed
    bad = [rec for rec in report.records if not rec.match]
    assert bad
    assert all(rec.inputs["boundary"] == "X_1" for rec in bad)
    good = [rec for rec in report.records if rec.inputs["boundary"] != "X_1"]
    assert all(rec.match for rec in good)


def test_reports_are_deterministic():
    bundle = build_family("monoid:m=2")
    model, real = bundle.model, bundle.realization
    a = verify_boundary_valuations(model, real, trials=8, seed=42)
    b = verify_boundary_valuations(model, real, trials=8, seed=42)
    assert a == b
    r1 = verification_report(model, real, trials=4, seed=9)
    r2 = verification_report(model, real, trials=4, seed=9)
    assert r1 == r2


def test_infer_boundary_valuation_matches_model():
    bundle = build_family("monoid:m=3")
    model, real = bundle.model, bundle.realization
    verified = select_semi_invariants(real)
    for spec in model.boundaries:
        (curve,) = [c.label for c in real.curves if c.boundary == spec.id]
        nu = infer_boundary_valuation(real, curve, verified, model.weight_lattice)
        assert nu == spec.valuation


def test_stabilizer_check_examples():
    real = build_family("circular:m=2,n=2,r=1,s=1").realization
    # the identity element: two units (1, I, 1, I)
    identity_rows = [[int(i == j) for j in range(2)] for i in range(2)]
    identity = ((1, identity_rows, 1, identity_rows),) * 2
    assert stabilizer_check(real, identity)
    # I / 2 acting on both vertices fixes the base point, I / 2 on one does not
    halves = (2, identity_rows, 1, [[2 * e for e in r] for r in identity_rows])
    assert stabilizer_check(real, (halves, halves))
    assert not stabilizer_check(real, (halves, identity[1]))
    rng = random.Random(2)
    g = real.stabilizer_sampler(rng)
    assert stabilizer_check(real, g)
    moved = real.group_sampler(rng)
    # a generic element does not fix the base idempotent
    assert not stabilizer_check(real, moved)


def test_verification_report_families():
    bundle = build_family("monoid:m=2")
    model, real = bundle.model, bundle.realization
    report = verification_report(model, real)
    checks = {rec.check for rec in report.records}
    assert {"semi_invariant_weight", "boundary_valuation", "limit_rank_profile", "orbit_dimension"} <= checks
    assert report.passed and report.stable

    creal = build_family("complexes:l=2,m=3,n=2,r=1,s=1").realization
    report = verification_report(None, creal)
    assert report.passed
    assert {"orbit_dimension", "stabilizer_fixes_base_point", "stabilizer_negative_control"} <= {
        rec.check for rec in report.records
    }


# Reference copies of the per-function loops that t_order and
# semiinvariance_check ran before every semi-invariant shared one set of draws,
# each form read off the translate built in sympy (``form_reference``).
def _reference_lowest_terms(real, functions, curve_label, trials, seed):
    # Per function, the lowest term (e, c) of its undivided value on each
    # trial's translate, None where it vanishes: c is the sympy coefficient of
    # t^e times the translate's positive scale.  Each function's loop draws the
    # same elements, so each translate is built once here and every form read
    # off it; a run with fewer trials sees a prefix.
    rng, curve = random.Random(seed), curve_point(real, curve_label)
    forms = [f.form for f in functions]
    per_trial = []
    for _ in range(trials):
        moved = act(real, real.group_sampler(rng), curve)
        terms = []
        for form, value in zip(forms, form_values(forms, moved)):
            if isinstance(form, Minor):
                scale = moved[form.arrow][2] ** form.k
            else:
                scale = moved[form.arrow_a][2] * moved[form.arrow_b][2] * form.divisor
            e = min(value, default=None)
            terms.append(None if e is None else (e, value[e] * scale))
        per_trial.append(terms)
    return [list(terms) for terms in zip(*per_trial)]


def _lowest_terms(real, forms, curve_label, trials, seed):
    """Per form, its lowest term on each seeded translate of the curve: one ``sweep`` of ``group_draws``."""
    (terms,) = real.sweep(forms, (curve_label,), real.group_draws(trials, seed))
    return terms


def _lowest_terms_and_orders(real, functions, curve_label, trials, seed):
    """The package's lowest terms (``_lowest_terms``), checked against the reference's, and the reference's orders."""
    lowest = _reference_lowest_terms(real, functions, curve_label, trials, seed)
    got = _lowest_terms(real, [f.form for f in functions], curve_label, trials, seed)
    assert got == lowest, (curve_label, seed)
    assert all(type(c) is int for terms in got for term in terms if term for c in term)
    return [[None if term is None else term[0] for term in terms] for terms in lowest]


def _reference_t_order(orders):
    finite = [o for o in orders if o is not None]
    if not finite:
        return None
    return TOrderResult(order=min(finite), trials=len(orders), stable=len(set(orders)) == 1 and None not in orders)


def _reference_semiinvariance_failure(real, f, trials, seed):
    """The message the sampled per-function Borel check raised for ``f``, or None if it passed: f(b . x) = chi(b) f(x)
    at seeded Borel elements b and orbit points x, both read in ``Fraction`` arithmetic."""
    rng = random.Random(seed)
    chi = f.claimed_weight
    saw_nonzero = False
    for _ in range(trials):
        b = real.borel_sampler(rng)
        factor = weight_value(real, chi, b)
        for _ in range(2):
            x = real.act(real.group_sampler(rng), real.base_point)
            fx = form_at(f.form, x)
            if fx == 0:
                continue
            saw_nonzero = True
            if form_at(f.form, real.act(b, x)) != factor * fx:
                return f"{f.name} does not rescale by its claimed weight under the Borel action"
    if not saw_nonzero:
        return f"{f.name} vanished at every sampled point"
    return None


def _equivalence_realizations():
    for name in ("monoid:m=2", "monoid:m=3", "determinantal:m=3,n=3,r=2"):
        bundle = build_family(name)
        real, lattice = bundle.realization, bundle.model.weight_lattice
        d = _find(real.semi_invariants, "Delta_1")
        extra = (
            SemiInvariantSpec("wrong_weight", d.claimed_weight + d.claimed_weight, d.form),
            SemiInvariantSpec("one", lattice.combination([]), Minor(0, 0)),
        )
        # On the rank-2 member the 3 x 3 minor vanishes identically; no form vanishes on the monoid's.
        if name.startswith("determinantal"):
            extra += (SemiInvariantSpec("zero", lattice.combination([]), Minor(0, 3)),)
        yield name, dataclasses.replace(real, semi_invariants=real.semi_invariants + extra)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_shared_draws_match_per_function_loops(seed):
    for name, real in _equivalence_realizations():
        candidates = real.semi_invariants
        # The closed-form verdicts are one at every trials; each kept form
        # passes the sampled reference check, and each form it rejects at 8 or
        # 20 trials is rejected.
        selected = select_semi_invariants(real, trials=8, seed=seed)
        for trials in (1, 8, 20):
            assert select_semi_invariants(real, trials=trials, seed=seed) == selected, (name, trials)
        for trials in (8, 20):
            expected = [_reference_semiinvariance_failure(real, f, trials, seed) for f in candidates]
            assert any(expected) and not all(expected), name
            assert selected == tuple(f for f, why in zip(candidates, expected) if why is None), (name, trials)

        # The extra candidates with a wrong weight or a constant value add
        # nothing to orders; the zero function covers the vanishing case.
        functions = tuple(f for f in candidates if f.name not in ("wrong_weight", "one"))
        for curve_label in [c.label for c in real.curves]:
            orders = _lowest_terms_and_orders(real, functions, curve_label, 20, seed)
            for trials in (1, 8, 20):
                want = tuple(_reference_t_order(o[:trials]) for o in orders)
                assert (None in want) == (functions[-1].name == "zero"), (name, curve_label)
                assert t_order(real, functions, curve_label, trials=trials, seed=seed) == want

        # A single function gets the verdict and the message it gets among all.
        for f, why in zip(candidates, oracle._borel_failures(real, candidates, lambda: real.group_draws(1, seed)[0])):
            if why is None:
                assert f in selected and semiinvariance_check(real, f, trials=8, seed=seed) == f.claimed_weight
            else:
                with pytest.raises(SemiInvarianceError) as err:
                    semiinvariance_check(real, f, trials=8, seed=seed)
                assert f not in selected and str(err.value) == why
        for f, result in zip(functions, want):
            if result is None:
                with pytest.raises(IdenticallyZeroError):
                    t_order(real, f, curve_label, trials=20, seed=seed)
            else:
                assert t_order(real, f, curve_label, trials=20, seed=seed) == result


# Planted weight slips: each candidate's weight doubled, or one coordinate
# moved by one, on the candidate's own form.  A slip is missed only when
# every trial's Borel element takes the same value on the slipped and the
# true weight, so the sweep runs against 1 and 8 trials.
_SLIP_MEMBERS = [f"monoid:m={m}" for m in range(1, 5)] + [
    f"determinantal:m={m},n={n},r={r}" for m in (2, 3) for n in (2, 3) for r in range(1, min(m, n))
]


def _slips(real):
    out = []
    for f in real.semi_invariants:
        chi = f.claimed_weight
        moved = [(f"2{f.name}", chi + chi)]
        for j, label in enumerate(chi.lattice.labels):
            for step in (1, -1):
                unit = chi.lattice.character([step * (k == j) for k in range(chi.lattice.rank)])
                moved.append((f"{f.name}{'+' if step > 0 else '-'}{label}", chi + unit))
        out += [SemiInvariantSpec(name, weight, f.form) for name, weight in moved]
    return tuple(out)


@pytest.mark.parametrize("spec", _SLIP_MEMBERS)
def test_planted_weight_slips_are_rejected(spec):
    # Every slip is rejected at one trial, on every seed: a slip of a form
    # with a shape weight is refuted by it, and a slip of a trailing minor by
    # a root element.  The true semi-invariants are kept.
    real = build_family(spec).realization
    originals, slips = real.semi_invariants, _slips(real)
    slipped = dataclasses.replace(real, semi_invariants=originals + slips)
    kept = tuple(f for f in originals if not f.name.startswith("Delta_trail"))
    for seed in range(100):
        assert select_semi_invariants(slipped, trials=1, seed=seed) == kept, seed
    # Each kept form passes the sampled reference check at eight trials.
    assert all(_reference_semiinvariance_failure(real, f, 8, 0) is None for f in kept)


# Every semi-invariant of these members, on every curve, is read by
# Cauchy-Binet; the per-function reference loop builds each translate in
# sympy and reads the form off it.
_FORM_MEMBERS = [f"monoid:m={m}" for m in range(1, 8)] + [
    f"determinantal:m={m},n={n},r={r}" for m in range(2, 6) for n in range(2, 6) for r in range(1, min(m, n))
]


@pytest.mark.parametrize("spec", _FORM_MEMBERS)
def test_form_orders_match_translated_evaluation(spec):
    real = build_family(spec).realization
    functions = real.semi_invariants
    assert functions and all(f.evaluate is f.form for f in functions)
    for seed in (0, 1, 7, 931794):
        for curve_label in [c.label for c in real.curves]:
            orders = _lowest_terms_and_orders(real, functions, curve_label, 8, seed)
            for trials in (1, 3, 8):
                want = tuple(_reference_t_order(o[:trials]) for o in orders)
                assert t_order(real, functions, curve_label, trials=trials, seed=seed) == want, (seed, curve_label, trials)
    # The seed-931794 draw that makes Delta_2 unstable along lambda_2 of
    # monoid m=3 is read alike: a degenerate draw is not a generic one.
    if spec == "monoid:m=3":
        delta_2 = functions[2]
        assert t_order(real, delta_2, "lambda_2", trials=8, seed=931794) == TOrderResult(0, 8, False)


@pytest.mark.parametrize("spec", ["monoid:m=2", "determinantal:m=2,n=2,r=1", "determinantal:m=3,n=3,r=2"])
def test_minor_orders_are_the_symbolic_generic_orders(spec):
    # Each curve X(t) moved to g X(t) h, with g and h independent factors
    # whose entries are sympy symbols: a Minor form's t-order on g X(t) h,
    # the least power of t whose coefficient is a nonzero polynomial in the
    # symbols, is its generic order, and t_order must read it at seed 0 with
    # 8 trials.
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    real = build_family(spec).realization
    checked = 0
    for c in real.curves:
        lam = dict(c.cocharacter)
        for f in real.semi_invariants:
            if not isinstance(f.form, Minor):
                continue
            (s, u), k = real.arrows[f.form.arrow], f.form.k
            x0 = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in r] for r in divided(real.base_point[f.form.arrow])])
            rows, cols = x0.shape
            left, right = sympy.diag(*[t ** lam.get((s, i), 0) for i in range(rows)]), sympy.diag(*[t ** -lam.get((u, j), 0) for j in range(cols)])
            curve = left * x0 * right
            g = sympy.Matrix(rows, rows, lambda i, j: sympy.Symbol(f"g_{i}{j}"))
            h = sympy.Matrix(cols, cols, lambda i, j: sympy.Symbol(f"h_{i}{j}"))
            moved = g * curve * h
            block = moved[rows - k :, cols - k :] if f.form.trailing else moved[:k, :k]
            # Distinct monomials in the symbols never cancel, so the least power of t among the terms is the order.
            minor = sympy.expand(block.det(method="berkowitz"))
            order = min(term.as_coeff_exponent(t)[1] for term in sympy.Add.make_args(minor))
            assert t_order(real, f, c.label, trials=8, seed=0).order == order, (c.label, f.name)
            checked += 1
    assert checked == len(real.curves) * sum(isinstance(f.form, Minor) for f in real.semi_invariants) > 0


def _permuted_realization(base, curves):
    """Two 3 x 3 arrows on four GL(3) factors, the first two generic and their duals c g^-T.

    ``base`` holds each arrow's {(i, j): c}, over scale 2 on the first
    arrow, and ``curves`` maps a label to a cocharacter.  Under
    ``_small_draws`` the generic factors have entries in {-1, 0, 1}.  Such
    small draws often cancel a translate's lowest coefficient, so the orders
    test the whole polynomial, its signs included, and not only the powers of
    t it can hold.  The second arrow runs between the duals of the first's
    ends, so the two arrows can be paired; it runs at the duals' second
    factors, so no Minor is read on it.
    """
    point = tuple(ScaledMatrix(s, (3, 3), [[x.get((i, j), 0) for j in range(3)] for i in range(3)]) for x, s in zip(base, (2, 1)))
    character = TorusLattice(("eps_1",)).combination([])
    forms = [Minor(0, k, trailing) for trailing in (False, True) for k in range(4)] + [Pairing(0, 1, 3)]
    return MatrixRealization(
        base_point=point,
        membership=lambda pt: True,
        arrows=((0, 1), (2, 3)),
        borel_lower=(True, False, False, True),
        dual_factors=((0, 2), (1, 3)),
        expected_orbit_dimension=0,
        stabilizer_sampler=lambda rng: (),
        semi_invariants=tuple(SemiInvariantSpec(repr(form), character, form) for form in forms),
        curves=tuple(Curve(label, lam, (3, 3)) for label, lam in curves.items()),
    )


# A transposition and a 3-cycle, with coefficients of both signs, and three
# cocharacters on them: on "flat" every power of t is 0, so each minor is one
# coefficient sum.  The four factors are distinct, so a cocharacter that
# scales the rows of each arrow gives any exponents on its entries: these
# curves' entries (c, e) are written out in _PERMUTED_ENTRIES.
_PERMUTED_BASE = ({(0, 1): 2, (1, 0): -4, (2, 2): 6}, {(0, 2): 1, (1, 0): -1, (2, 1): 2})
_PERMUTED_CURVES = {
    "flat": {},
    "tied": {(0, 1): 1, (0, 2): 1, (2, 0): 1, (2, 2): 1},
    "spread": {(0, 0): 2, (0, 2): 1, (2, 1): 2},
}
_PERMUTED_ENTRIES = {
    "flat": ({(0, 1): (2, 0), (1, 0): (-4, 0), (2, 2): (6, 0)}, {(0, 2): (1, 0), (1, 0): (-1, 0), (2, 1): (2, 0)}),
    "tied": ({(0, 1): (2, 0), (1, 0): (-4, 1), (2, 2): (6, 1)}, {(0, 2): (1, 1), (1, 0): (-1, 0), (2, 1): (2, 1)}),
    "spread": ({(0, 1): (2, 2), (1, 0): (-4, 0), (2, 2): (6, 1)}, {(0, 2): (1, 0), (1, 0): (-1, 2), (2, 1): (2, 0)}),
}


@pytest.fixture
def _small_draws(monkeypatch):
    """Generic units drawn with entries in {-1, 0, 1}: ``group_draw`` reads ``_GENERIC_RANGE`` at each draw and bounds
    ``_rand_nonsingular`` by it."""
    monkeypatch.setattr(realization, "_GENERIC_RANGE", 1)


def test_form_orders_match_translated_evaluation_on_permuted_curves(_small_draws):
    real = _permuted_realization(_PERMUTED_BASE, _PERMUTED_CURVES)
    for label, arrows in _PERMUTED_ENTRIES.items():
        for arrow, entries in enumerate(arrows):
            want = tuple(sorted((i, j, c, e) for (i, j), (c, e) in entries.items()))
            assert real.monomial_entries(label, arrow) == want, (label, arrow)
    functions = real.semi_invariants
    unstable = 0
    for seed in range(12):
        for curve_label in _PERMUTED_CURVES:
            orders = _lowest_terms_and_orders(real, functions, curve_label, 8, seed)
            for trials in (1, 3, 8):
                want = tuple(_reference_t_order(o[:trials]) for o in orders)
                assert t_order(real, functions, curve_label, trials=trials, seed=seed) == want, (seed, curve_label, trials)
            unstable += sum(1 for o in orders if len(set(o)) > 1)
    # The small draws do hit degenerate translates.
    assert unstable > 0


def test_non_monomial_curve_fails_construction():
    # Cauchy-Binet reads a structured semi-invariant's arrows on each curve
    # as monomial matrices, and a curve is monomial where its base point is;
    # any other base point is refused, naming the arrow.
    second = _PERMUTED_BASE[1]
    for x in ({(0, 0): 2, (1, 0): -4, (2, 2): 6}, {(0, 1): 2, (0, 2): -4, (1, 0): 6}):
        with pytest.raises(ValueError, match="base point is not monomial on arrow 0"):
            _permuted_realization((x, second), _PERMUTED_CURVES)
    # With no curve, no order is read on the base point, which stands.
    _permuted_realization((x, second), {})


@pytest.mark.parametrize(
    "spec, form, curve, message",
    [
        ("monoid:m=3", Minor(0, 4), "lambda_0", "no 4 x 4 minor of arrow 0's 3 x 3 matrix"),
        ("circular:m=2,n=3,r=1,s=1", Pairing(0, 1, 1), "lambda_1", r"arrows 0 and 1 have shapes \(2, 3\) and \(3, 2\)"),
        # Equal shapes, but no dual factor pairs: no Gram table of the draws is scalar.
        ("circular:m=2,n=2,r=1,s=1", Pairing(0, 1, 1), "lambda_1", "arrows 0 and 1 do not run between dual factor pairs"),
        ("monoid:m=2", Pairing(1, 1, 1), "lambda_0", "arrows 1 and 1 do not run between dual factor pairs"),
        # A Minor is read only between generic factors: arrow 1 runs at the duals' second factors.
        ("monoid:m=2", Minor(1, 1), "lambda_0", "arrow 1 runs at the second factor of a dual pair"),
        # Nor on a loop arrow (s = t), whose two sides are one factor's draw.
        ("loop", Minor(0, 1), "lambda", "arrow 0 is a loop"),
    ],
)
def test_malformed_forms_handed_to_the_oracle_are_refused_alike(spec, form, curve, message):
    # A form the realization never saw, handed straight to t_order or to the
    # Borel check, is checked against the arrows as at construction: each
    # refuses it with the same ValueError, before drawing anything.
    real, weight = realization_and_weight(spec)
    real.group_draw = real.group_sampler = real.borel_sampler = None  # any draw would fail
    big = SemiInvariantSpec("big", weight, form)
    errors = set()
    for call in (
        lambda: t_order(real, big, curve),
        lambda: t_order(real, (big,), curve),
        lambda: semiinvariance_check(real, big),
    ):
        with pytest.raises(ValueError, match=f"semi-invariant big: {message}") as err:
            call()
        errors.add((type(err.value), str(err.value)))
    assert len(errors) == 1 and next(iter(errors))[0] is ValueError


def test_t_order_on_no_functions_draws_nothing():
    real = build_family("monoid:m=2").realization
    real.group_draw = real.group_sampler = real.borel_sampler = None  # any draw would fail
    assert t_order(real, (), "lambda_0") == ()
    with pytest.raises(KeyError, match="unknown curve 'nope'"):
        t_order(real, (), "nope")
    # The curve entries taken at construction are read by label, and an unknown one is named.
    with pytest.raises(KeyError, match="unknown curve 'nope'"):
        limit_signature(real, "nope")
    assert select_semi_invariants(dataclasses.replace(real, semi_invariants=())) == ()


def test_trials_below_one_are_rejected():
    bundle = build_family("monoid:m=3")
    model, real = bundle.model, bundle.realization
    d = _find(real.semi_invariants, "d")
    for trials in (0, -3):
        calls = [
            lambda: t_order(real, d, "lambda_0", trials=trials),
            lambda: t_order(real, (d,), "lambda_0", trials=trials),
            lambda: select_semi_invariants(real, trials=trials),
            lambda: semiinvariance_check(real, d, trials=trials),
            lambda: infer_boundary_valuation(
                real, "lambda_0", real.semi_invariants, model.weight_lattice, trials=trials
            ),
            lambda: verify_boundary_valuations(model, real, trials=trials),
            lambda: verification_report(model, real, trials=trials),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="trials must be at least 1"):
                call()


def test_seed_below_zero_is_rejected():
    # Random(-s) seeds as Random(s): a negative seed would alias another one.
    # Each call refuses it before drawing anything.
    bundle = build_family("monoid:m=3")
    model, real = bundle.model, bundle.realization
    d = _find(real.semi_invariants, "d")
    drawn = []
    group_draw = real.group_draw
    real.group_draw = lambda rng, *args: drawn.append(rng) or group_draw(rng, *args)
    for seed in (-1, -931794):
        calls = [
            lambda: t_order(real, d, "lambda_0", seed=seed),
            lambda: t_order(real, (d,), "lambda_0", seed=seed),
            lambda: select_semi_invariants(real, seed=seed),
            lambda: semiinvariance_check(real, d, seed=seed),
            lambda: infer_boundary_valuation(real, "lambda_0", real.semi_invariants, model.weight_lattice, seed=seed),
            lambda: verify_boundary_valuations(model, real, seed=seed),
            lambda: verification_report(model, real, seed=seed),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^seed must be at least 0, got {seed}$"):
                call()
    assert drawn == []
    # The spy sees the draws of a valid seed.
    verify_boundary_valuations(model, real, seed=0)
    assert len(drawn) == 8


def test_verification_report_draw_counts():
    # Each group element is drawn once per trial and public call, whatever the
    # number of semi-invariants and curves, and no Borel element is drawn: d and
    # Delta_1..3 are certified by the Borel's shape, and Delta_trail_1 and
    # Delta_trail_2 are refuted by a root element at g . x0 for the first
    # boundary draw g, whose units (``element``) are the only ones built, and
    # x the one translate ``act`` builds.  The orders are read by Cauchy-Binet
    # off the forward draws.
    def counting():
        bundle = build_family("monoid:m=3")
        model, real = bundle.model, bundle.realization
        counts = {"group_draw": 0, "element": 0, "group_sampler": 0, "borel_sampler": 0, "act": 0}

        def counted(name):
            fn = getattr(real, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        for name in counts:
            setattr(real, name, counted(name))
        return model, real, counts

    trials, none = 8, {"group_draw": 0, "element": 0, "group_sampler": 0, "borel_sampler": 0, "act": 0}
    model, real, counts = counting()
    verified = select_semi_invariants(real, trials=trials, seed=0)
    assert len(verified) == 4 and len(real.semi_invariants) == 6
    # the boundary draws, drawn at once, and the units and translate of the first
    assert counts == {**none, "group_draw": trials, "element": 1, "act": 1}

    for name in counts:
        counts[name] = 0
    verify_boundary_valuations(model, real, verified, trials=trials, seed=0)
    # four boundary curves, all read on one set of trials draws, drawn again:
    # no draw outlives the call that drew it
    assert counts == {**none, "group_draw": trials}
    for name in counts:
        counts[name] = 0
    verify_boundary_valuations(model, real, trials=trials, seed=0)
    # the selection and the orders share the call's draws
    assert counts == {**none, "group_draw": trials, "element": 1, "act": 1}

    # The boundary orders reuse the Borel check's draws, and the stabilizer
    # check and its negative control build no translate.
    model, real, counts = counting()
    report = verification_report(model, real, trials=trials, seed=0)
    assert report.passed and report.stable
    assert counts == {**none, "group_draw": trials, "element": 1, "act": 1}
    # each call draws its own elements, on this seed or another
    verify_boundary_valuations(model, real, verified, trials=trials, seed=1)
    verify_boundary_valuations(model, real, verified, trials=trials, seed=1)
    assert counts["group_draw"] == 3 * trials and counts["element"] == 1
    report = verification_report(model, real, trials=trials, seed=0)
    assert report.passed and report.stable
    assert counts["group_draw"] == 4 * trials and counts["element"] == 2


@pytest.mark.parametrize("spec", ["monoid:m=3", "circular:m=3,n=3,r=1,s=2"])
def test_the_realization_gains_no_state(spec):
    # After construction a realization is data: no oracle call and no sweep
    # changes or adds any of its attributes.
    bundle = build_family(spec)
    model, real = bundle.model, bundle.realization
    before = repr(vars(real))
    labels = [c.label for c in real.curves]
    for seed in (0, 1):
        verification_report(model, real, seed=seed)
        t_order(real, real.semi_invariants, labels[0], seed=seed)
        select_semi_invariants(real, seed=seed)
        verify_boundary_valuations(model, real, seed=seed)
        real.sweep([f.form for f in real.semi_invariants], labels, real.group_draws(3, seed))
        assert repr(vars(real)) == before, seed


def test_seeded_calls_hold_no_memory():
    # A loop of seeds on one realization holds no more than one call does:
    # the draws, the Cauchy-Binet subsets and the draw tables of a call are
    # dropped when it returns.
    bundle = build_family("monoid:m=8")
    model, real = bundle.model, bundle.realization
    verify_boundary_valuations(model, real, trials=8, seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for seed in range(1, 51):
            verify_boundary_valuations(model, real, trials=8, seed=seed)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 5 * 2**20, held


def test_boundary_without_curve_fails_closed():
    bundle = build_family("monoid:m=2")
    model, real = bundle.model, bundle.realization
    cut = dataclasses.replace(real, curves=real.curves[:-1])
    verified = select_semi_invariants(cut)
    report = verify_boundary_valuations(model, cut, verified)
    missing = [rec for rec in report.records if rec.inputs["boundary"] == "X_2"]
    assert [rec.inputs["semi_invariant"] for rec in missing] == [f.name for f in verified]
    for rec in missing:
        assert rec.inputs["curve"] is None and rec.oracle_value is None
        assert not rec.match and rec.trials == 0 and rec.stable
    assert all(rec.match for rec in report.records if rec not in missing)
    assert not report.passed and report.stable
    full = verification_report(model, cut)
    assert not full.passed and full.stable
    assert [rec.to_json_dict() for rec in full.records if rec.inputs.get("boundary") == "X_2"] == [
        rec.to_json_dict() for rec in missing
    ]


def test_report_without_checks_has_not_passed():
    assert VerificationReport(()).passed is False
    assert VerificationReport(()).to_json_dict()["passed"] is False

    def record(match):
        return CheckRecord("orbit_dimension", {}, 1, 1 if match else 2, match, 1, True)

    assert VerificationReport((record(True),)).passed is True
    assert VerificationReport((record(True), record(False))).passed is False
