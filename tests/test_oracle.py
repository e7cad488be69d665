import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from sphemb.families import (
    Curve,
    MatrixRealization,
    SemiInvariantSpec,
    circular_complexes_model,
    complexes_realization,
    determinantal_realization,
    monoid_model,
)
from sphemb.laurent import LaurentPoly, NegativeExponentError
from sphemb.oracle import (
    CheckRecord,
    IdenticallyZeroError,
    SemiInvarianceError,
    TOrderResult,
    VerificationReport,
    infer_boundary_valuation,
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
    model, real = monoid_model(3)
    d = _find(real.semi_invariants, "d")
    res = t_order(real, d, "lambda_1")
    assert res.order == 1 and res.stable

    const = SemiInvariantSpec("one", lambda pt: Fraction(1), model.weight_lattice.combination([]))
    assert t_order(real, const, "lambda_2").order == 0

    delta2 = _find(real.semi_invariants, "Delta_2")
    assert t_order(real, delta2, "lambda_0").order == 2

    zero = SemiInvariantSpec("zero", lambda pt: Fraction(0), model.weight_lattice.combination([]))
    with pytest.raises(IdenticallyZeroError):
        t_order(real, zero, "lambda_0")


def test_t_order_is_a_valuation():
    # Multiplicative on products, invariant under nonzero scaling.
    _, real = monoid_model(3)
    d = _find(real.semi_invariants, "d")
    delta1 = _find(real.semi_invariants, "Delta_1")
    product = SemiInvariantSpec(
        "d*Delta_1", lambda pt: d.evaluate(pt) * delta1.evaluate(pt), d.claimed_weight + delta1.claimed_weight
    )
    scaled = SemiInvariantSpec("7d", lambda pt: 7 * d.evaluate(pt), d.claimed_weight)
    for r in range(4):
        lab = f"lambda_{r}"
        od = t_order(real, d, lab).order
        o1 = t_order(real, delta1, lab).order
        assert t_order(real, product, lab).order == od + o1
        assert t_order(real, scaled, lab).order == od


def test_monoid_limit_signatures():
    for m in range(1, 6):
        _, real = monoid_model(m)
        for r in range(m + 1):
            sig = limit_signature(real, f"lambda_{r}")
            assert sig.rank_profile == (r, m - r)
            # the limit is the pair of complementary standard idempotents
            a, b = sig.limit_point
            assert all(a[i][i] == (1 if i < r else 0) for i in range(m))
            assert all(b[i][i] == (0 if i < r else 1) for i in range(m))


def test_determinantal_limit_signature():
    real, _ = determinantal_realization(2, 2, 1)
    assert real.membership(real.base_point)
    sig = limit_signature(real, "lambda_1")
    assert sig.rank_profile == (0,)  # the scaled idempotent degenerates to zero


def test_circular_limit_signature():
    _, real = circular_complexes_model(2, 2, 1, 1)
    sig = limit_signature(real, "lambda_1")
    assert sig.rank_profile == (0, 1)
    sig = limit_signature(real, "mu_1")
    assert sig.rank_profile == (1, 0)
    # a curve without t degenerates nowhere: limit is the base point
    _, real23 = circular_complexes_model(2, 3, 1, 1)
    sig = limit_signature(real23, "mu_1")
    assert sig.limit_point == real23.base_point
    assert sig.rank_profile == (1, 1)


def test_limit_negative_powers_rejected():
    base = (((Fraction(1),),),)  # one 1x1 matrix
    curve = (((LaurentPoly.t_power(-1),),),)
    real = MatrixRealization(
        base_point=base,
        membership=lambda pt: True,
        arrows=((0, 0),),
        group_sampler=lambda rng: (),
        borel_sampler=lambda rng: (),
        lie_basis=(),
        expected_orbit_dimension=0,
        stabilizer_sampler=lambda rng: (),
        curves=(Curve("pole", curve, (0,)),),
    )
    with pytest.raises(NegativeExponentError):
        limit_signature(real, "pole")


def test_limit_reads_stored_coefficients():
    # A stored layer may be all zero: a t^-1 layer of zeros over the constant
    # 3 has the limit 3, while a nonzero t^-1 coefficient still has none.
    from sphemb.families import ScaledMatrix

    def realization(curve):
        return MatrixRealization(
            base_point=(((Fraction(3),),),),
            membership=lambda pt: True,
            arrows=((0, 0),),
            group_sampler=lambda rng: (),
            borel_sampler=lambda rng: (),
            lie_basis=(),
            expected_orbit_dimension=0,
            stabilizer_sampler=lambda rng: (),
            curves=(Curve("c", (curve,), (1,)),),
        )

    sig = limit_signature(realization(ScaledMatrix(2, (1, 1), {-1: [[0]], 0: [[6]]}, True)), "c")
    assert sig.limit_point == (((3,),),) and sig.rank_profile == (1,)
    # With no t^0 layer the limit is zero.
    sig = limit_signature(realization(ScaledMatrix(2, (1, 1), {1: [[6]]}, True)), "c")
    assert sig.limit_point == (((0,),),) and sig.rank_profile == (0,)
    with pytest.raises(NegativeExponentError):
        limit_signature(realization(ScaledMatrix(2, (1, 1), {-1: [[2]], 0: [[4]]}, True)), "c")


def test_orbit_dimensions():
    assert orbit_dimension(circular_complexes_model(2, 2, 1, 1)[1]) == 4
    assert orbit_dimension(circular_complexes_model(3, 3, 1, 1)[1]) == 8
    assert orbit_dimension(determinantal_realization(3, 3, 2)[0]) == 8
    assert orbit_dimension(monoid_model(2)[1]) == 5
    real = complexes_realization(2, 3, 2, 1, 1)
    assert orbit_dimension(real) == real.expected_orbit_dimension == 7
    # The Jacobian rank at the base point is the closed formula
    # r(l + m - r) + s(m + n - s) - rs on every complexes member with
    # l, m, n <= 3, zero dimensions included.
    count = 0
    for l, m, n in itertools.product(range(4), repeat=3):
        for r, s in itertools.product(range(l + 1), range(n + 1)):
            if r + s <= m:
                real = complexes_realization(l, m, n, r, s)
                assert orbit_dimension(real) == real.expected_orbit_dimension, (l, m, n, r, s)
                count += 1
    assert count == 206


def test_semiinvariance_weights():
    for m in range(1, 6):
        model, real = monoid_model(m)
        d = _find(real.semi_invariants, "d")
        weight = semiinvariance_check(real, d)
        expected = model.character("eps_1") + model.character(f"eps_{m + 1}")
        assert weight == expected

    model, real = monoid_model(3)
    delta1 = _find(real.semi_invariants, "Delta_1")
    assert semiinvariance_check(real, delta1, trials=20) == model.character("eps_1")

    const = SemiInvariantSpec("one", lambda pt: Fraction(1), model.weight_lattice.combination([]))
    assert semiinvariance_check(real, const) == model.weight_lattice.combination([])


def test_semiinvariance_rejects_wrong_claims():
    model, real = monoid_model(3)
    # trailing principal minors are not semi-invariant for this Borel choice
    trailing = _find(real.semi_invariants, "Delta_trail_1")
    with pytest.raises(SemiInvarianceError):
        semiinvariance_check(real, trailing)
    # right function, wrong weight
    d = _find(real.semi_invariants, "d")
    wrong = SemiInvariantSpec("d", d.evaluate, model.character("eps_1"))
    with pytest.raises(SemiInvarianceError):
        semiinvariance_check(real, wrong)


def test_select_semi_invariants_keeps_leading_minors():
    _, real = monoid_model(3)
    names = [f.name for f in select_semi_invariants(real)]
    assert names == ["d", "Delta_1", "Delta_2", "Delta_3"]


def test_verify_boundary_valuations_monoid():
    model, real = monoid_model(3)
    report = verify_boundary_valuations(model, real)
    assert report.passed and report.stable
    # model value <chi, nu_r> appears in every record
    for rec in report.records:
        assert rec.check == "boundary_valuation"
        assert rec.match


def test_verify_boundary_valuations_negative_control():
    model, real = monoid_model(3)
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
    model, real = monoid_model(2)
    a = verify_boundary_valuations(model, real, trials=8, seed=42)
    b = verify_boundary_valuations(model, real, trials=8, seed=42)
    assert a == b
    r1 = verification_report(model, real, trials=4, seed=9)
    r2 = verification_report(model, real, trials=4, seed=9)
    assert r1 == r2


def test_infer_boundary_valuation_matches_model():
    model, real = monoid_model(3)
    verified = select_semi_invariants(real)
    for spec in model.boundaries:
        (curve,) = [c.label for c in real.curves if c.boundary == spec.id]
        nu = infer_boundary_valuation(real, curve, verified, model.weight_lattice)
        assert nu == spec.valuation


def test_stabilizer_check_examples():
    _, real = circular_complexes_model(2, 2, 1, 1)
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
    model, real = monoid_model(2)
    report = verification_report(model, real)
    checks = {rec.check for rec in report.records}
    assert {"semi_invariant_weight", "boundary_valuation", "limit_rank_profile", "orbit_dimension"} <= checks
    assert report.passed and report.stable

    creal = complexes_realization(2, 3, 2, 1, 1)
    report = verification_report(None, creal)
    assert report.passed
    assert {"orbit_dimension", "stabilizer_fixes_base_point", "stabilizer_negative_control"} <= {
        rec.check for rec in report.records
    }


# Reference copies of the per-function loops that t_order and
# semiinvariance_check ran before every semi-invariant shared one set of draws.
def _reference_orders(real, f, curve_label, trials, seed):
    # The loop's per-trial orders; a run with fewer trials sees a prefix.
    curve = real.curve(curve_label)
    rng = random.Random(seed)
    orders = []
    for _ in range(trials):
        g = real.group_sampler(rng)
        value = f.evaluate(real.act(g, curve))
        if not isinstance(value, LaurentPoly):
            value = LaurentPoly.constant(value)
        orders.append(value.order())
    return orders


def _reference_t_order(orders):
    finite = [o for o in orders if o is not None]
    if not finite:
        return None
    return TOrderResult(order=min(finite), trials=len(orders), stable=len(set(orders)) == 1 and None not in orders)


def _reference_semiinvariance_failure(real, f, trials, seed):
    """The message the per-function loop raised for ``f``, or None if it passed."""
    rng = random.Random(seed)
    chi = f.claimed_weight
    saw_nonzero = False
    for _ in range(trials):
        b = real.borel_sampler(rng)
        factor = real.weight_value(chi, b)
        for _ in range(2):
            x = real.act(real.group_sampler(rng), real.base_point)
            fx = f.evaluate(x)
            if fx == 0:
                continue
            saw_nonzero = True
            if f.evaluate(real.act(b, x)) != factor * fx:
                return f"{f.name} does not rescale by its claimed weight under the Borel action"
    if not saw_nonzero:
        return f"{f.name} vanished at every sampled point"
    return None


def _equivalence_realizations():
    for name, (model, real) in (
        ("monoid:2", monoid_model(2)),
        ("monoid:3", monoid_model(3)),
        ("determinantal:3,3,2", determinantal_realization(3, 3, 2)[::-1]),
    ):
        lattice = model.weight_lattice
        d = _find(real.semi_invariants, "Delta_1")
        extra = (
            SemiInvariantSpec("wrong_weight", d.evaluate, d.claimed_weight + d.claimed_weight),
            SemiInvariantSpec("zero", lambda pt: Fraction(0), lattice.combination([])),
            SemiInvariantSpec("one", lambda pt: Fraction(1), lattice.combination([])),
        )
        yield name, dataclasses.replace(real, semi_invariants=real.semi_invariants + extra)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_shared_draws_match_per_function_loops(seed):
    for name, real in _equivalence_realizations():
        candidates = real.semi_invariants
        failures = {}
        for trials in (1, 8, 20):
            expected = failures[trials] = [
                _reference_semiinvariance_failure(real, f, trials, seed) for f in candidates
            ]
            assert any(expected) and not all(expected), name
            selected = select_semi_invariants(real, trials=trials, seed=seed)
            assert selected == tuple(f for f, why in zip(candidates, expected) if why is None), (name, trials)

        # The extra candidates with a wrong weight or a constant value add
        # nothing to orders; the zero function covers the vanishing case.
        functions = tuple(f for f in candidates if f.name not in ("wrong_weight", "one"))
        for curve_label in [c.label for c in real.curves]:
            orders = [_reference_orders(real, f, curve_label, 20, seed) for f in functions]
            for trials in (1, 8, 20):
                want = tuple(_reference_t_order(o[:trials]) for o in orders)
                assert None in want, (name, curve_label)
                assert t_order(real, functions, curve_label, trials=trials, seed=seed) == want

        # A single function keeps its own contract, on the same draws.
        for f, why in zip(candidates, failures[8]):
            if why is None:
                assert semiinvariance_check(real, f, trials=8, seed=seed) == f.claimed_weight
            else:
                with pytest.raises(SemiInvarianceError) as err:
                    semiinvariance_check(real, f, trials=8, seed=seed)
                assert str(err.value) == why
        for f, result in zip(functions, want):
            if result is None:
                with pytest.raises(IdenticallyZeroError):
                    t_order(real, f, curve_label, trials=20, seed=seed)
            else:
                assert t_order(real, f, curve_label, trials=20, seed=seed) == result


def test_t_order_on_no_functions_draws_nothing():
    _, real = monoid_model(2)
    real.group_sampler = real.borel_sampler = None  # any draw would fail
    assert t_order(real, (), "lambda_0") == ()
    assert select_semi_invariants(dataclasses.replace(real, semi_invariants=())) == ()


def test_trials_below_one_are_rejected():
    model, real = monoid_model(3)
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


def test_verification_report_draw_counts():
    # Each translate is drawn once per (curve, trial) and each Borel element
    # and orbit point once per trial, whatever the number of semi-invariants.
    model, real = monoid_model(3)
    counts = {"group_sampler": 0, "borel_sampler": 0, "act": 0}

    def counted(name):
        fn = getattr(real, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    for name in counts:
        setattr(real, name, counted(name))
    trials = 8

    verified = select_semi_invariants(real, trials=trials, seed=0)
    assert len(verified) == 4 and len(real.semi_invariants) == 6
    # one Borel element and two orbit points per trial
    assert counts == {"group_sampler": 2 * trials, "borel_sampler": trials, "act": 4 * trials}

    for name in counts:
        counts[name] = 0
    verify_boundary_valuations(model, real, verified, trials=trials, seed=0)
    # four boundary curves, one translate per trial each, all four from the
    # same trials group draws
    assert counts == {"group_sampler": trials, "borel_sampler": 0, "act": 4 * trials}

    for name in counts:
        counts[name] = 0
    report = verification_report(model, real, trials=trials, seed=0)
    assert report.passed and report.stable
    # the boundary translates reuse the draws above; plus two acts: the
    # stabilizer check and the first perturbed element, which already moves
    # the base point
    assert counts == {"group_sampler": 2 * trials, "borel_sampler": trials, "act": (4 + 4) * trials + 2}
    # another seed draws its own elements once
    verify_boundary_valuations(model, real, verified, trials=trials, seed=1)
    verify_boundary_valuations(model, real, verified, trials=trials, seed=1)
    assert counts["group_sampler"] == 3 * trials


def test_report_without_checks_has_not_passed():
    assert VerificationReport(()).passed is False
    assert VerificationReport(()).to_json_dict()["passed"] is False

    def record(match):
        return CheckRecord("orbit_dimension", {}, 1, 1 if match else 2, match, 1, True)

    assert VerificationReport((record(True),)).passed is True
    assert VerificationReport((record(True), record(False))).passed is False
