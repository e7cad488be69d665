"""Closed-form Borel verdicts against a sampled Borel check.

A realization declares each factor's Borel orientation (``borel_lower``) and
the factor pairs with g_a^T g_b scalar on the group (``dual_factors``).  The
group and Borel samplers are derived from both tables; the oracle reads them
to certify a ``Minor`` or ``Pairing`` form by its shape weight, nonzero at
the base point or at its first translate (``oracle._borel_failures``), and
rejects every other form with no Borel element drawn: by a shape weight that
differs from its claim, by a root element that moves it, or as undecided.  These tests check the tables against the samplers' draws, every
certificate against a sampled reference check, and that every slipped,
vanishing or undeclared form is rejected, with one verdict at every trials
and seed.
"""

from __future__ import annotations

import dataclasses
import random
import re

import pytest

from form_reference import weight_value

from sphemb import oracle
from sphemb.families import admissible_circular_parameters, build_family
from sphemb.realization import MatrixRealization, Minor, SemiInvariantSpec, _monomial_matrix

_GRID = (
    [f"monoid:m={m}" for m in range(1, 6)]
    + [f"determinantal:m={m},n={n},r={r}" for m in range(2, 5) for n in range(2, 5) for r in range(1, min(m, n))]
    + [f"circular:m={m},n={n},r={r},s={s}" for m, n, r, s in admissible_circular_parameters(3, 4)]
    + [
        f"complexes:l={l},m={m},n={n},r={r},s={s}"
        for l in range(3) for m in range(3) for n in range(3)
        for r in range(l + 1) for s in range(n + 1) if r + s <= m
    ]
)


def _triangular(unit, lower: bool) -> bool:
    """Whether both integer matrices of the unit (l, L, r, R) are triangular that way, with nonzero diagonals."""
    _, big_l, _, big_r = unit
    for m in (big_l, big_r):
        for i, row in enumerate(m):
            if not row[i] or any(e for j, e in enumerate(row) if (j > i if lower else j < i)):
                return False
    return True


def _scalar_product(unit_a, unit_b) -> bool:
    """Whether (L_a / l_a)^T (L_b / l_b) is a nonzero scalar matrix, read on the integers of units or factors (l, L)."""
    (_, a), (_, b) = unit_a[:2], unit_b[:2]
    product = [[sum(x * y for x, y in zip(col_a, col_b)) for col_b in zip(*b)] for col_a in zip(*a)]
    c = product[0][0] if product else 1
    return c != 0 and product == [[c * (i == j) for j in range(len(product))] for i in range(len(product))]


@pytest.mark.parametrize("spec", _GRID)
def test_orientation_data_matches_the_samplers(spec):
    real = build_family(spec).realization
    factors = 1 + max(v for arrow in real.arrows for v in arrow)
    assert len(real.borel_lower) == factors, spec
    for seed in range(50):
        b = real.borel_sampler(random.Random(seed))
        assert len(b) == factors
        for unit, lower in zip(b, real.borel_lower):
            assert _triangular(unit, lower), (spec, seed)
        for sampler in (real.group_sampler, real.borel_sampler, real.stabilizer_sampler):
            g = sampler(random.Random(seed))
            for a, c in real.dual_factors:
                assert _scalar_product(g[a], g[c]), (spec, seed, a, c)
    assert bool(real.dual_factors) == spec.startswith("monoid")


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"borel_lower": (True, False)}, "borel_lower has 2 entries for 4 factors"),
        ({"borel_lower": (True,) * 5}, "borel_lower has 5 entries for 4 factors"),
        ({"dual_factors": ((0, 4),)}, r"dual factors \(0, 4\) name a factor with no Borel orientation"),
        ({"dual_factors": ((-1, 1),)}, r"dual factors \(-1, 1\) name a factor with no Borel orientation"),
        ({"borel_lower": ()}, "borel_lower has 0 entries for 4 factors"),
        ({"dual_factors": ((0, 3),)}, r"dual factors \(0, 3\) have the same Borel orientation"),
        ({"dual_factors": ((1, 1),)}, r"dual factors \(1, 1\) have the same Borel orientation"),
        ({"dual_factors": ((1, 0),)}, r"dual factors \(1, 0\) are not two unpaired factors of one size, in factor order"),
        ({"dual_factors": ((0, 1), (1, 3))}, r"dual factors \(1, 3\) are not two unpaired factors"),
    ],
)
def test_malformed_orientation_data_is_refused(changes, message):
    real = build_family("monoid:m=3").realization
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(real, **changes)


def test_malformed_quiver_orientation_is_refused():
    real = build_family("determinantal:m=3,n=3,r=2").realization
    with pytest.raises(ValueError, match="borel_lower has 3 entries for 2 factors"):
        dataclasses.replace(real, borel_lower=(True, False, True))
    with pytest.raises(ValueError, match=r"dual factors \(0, 2\) name a factor"):
        dataclasses.replace(real, dual_factors=((0, 2),))
    # A dual pair's second factor is drawn as c g_a^-T, so both have one size.
    circular = build_family("circular:m=2,n=3,r=1,s=1").realization
    with pytest.raises(ValueError, match=r"dual factors \(0, 1\) are not two unpaired factors of one size"):
        dataclasses.replace(circular, dual_factors=((0, 1),))


def _certified(real):
    failures = oracle._borel_failures(real, real.semi_invariants, lambda: real.group_draws(1, 0)[0])
    return [f for f, why in zip(real.semi_invariants, failures) if why is None]


def _sampled_failures(real, candidates, trials, seed):
    """Per candidate, whether the sampled Borel rescaling check rejects it: f(b . x) = chi(b) f(x) at the i-th Borel
    element b of ``Random(seed)`` and the orbit points x = g . x0 and g^-1 . x0 of the i-th boundary draw g, on
    ``Fraction`` values; a form zero at every sampled point is rejected too."""
    rng, failed, seen = random.Random(seed), [False] * len(candidates), [False] * len(candidates)
    for draw in real.group_draws(trials, seed):
        b, g = real.borel_sampler(rng), real.element(draw)
        for h in (g, tuple((r, big_r, l, big_l) for l, big_l, r, big_r in g)):
            x = real.act(h, real.base_point)
            moved = real.act(b, x)
            for k, f in enumerate(candidates):
                value = f.evaluate(x)
                if value:
                    seen[k] = True
                    failed[k] |= f.evaluate(moved) != weight_value(real, f.claimed_weight, b) * value
    return [a or not b for a, b in zip(failed, seen)]


@pytest.mark.parametrize("spec", _GRID)
def test_every_certificate_passes_the_sampled_check(spec):
    # Every declared semi-invariant but the monoid's trailing minors, which
    # the Borel rejects by design, is certified from the Borel's shape, and
    # passes the sampled check; the trailing minors fail it.
    real = build_family(spec).realization
    certified = _certified(real)
    assert certified == [f for f in real.semi_invariants if not f.name.startswith("Delta_trail")], spec
    for seed in range(20):
        assert _sampled_failures(real, real.semi_invariants, 8, seed) == [f not in certified for f in real.semi_invariants]
        assert oracle.select_semi_invariants(real, trials=8, seed=seed) == tuple(certified), (spec, seed)


def _slips(real):
    out = []
    for f in _certified(real):
        chi = f.claimed_weight
        moved = [chi + chi]
        for j in range(chi.lattice.rank):
            for step in (1, -1):
                moved.append(chi + chi.lattice.character([step * (k == j) for k in range(chi.lattice.rank)]))
        out += [SemiInvariantSpec(f"{f.name}~{n}", weight, f.form) for n, weight in enumerate(moved)]
    return out


def _assert_rejected(real, candidates, messages):
    # Each candidate is rejected with its message, alone and among the
    # realization's own semi-invariants, at every trials and seed.
    assert candidates and all(messages)
    everyone = dataclasses.replace(real, semi_invariants=real.semi_invariants + tuple(candidates))
    for seed in (0, 1, 7):
        for trials in (1, 8):
            assert oracle._borel_failures(real, candidates, lambda: real.group_draws(trials, seed)[0]) == messages
            accepted = oracle.select_semi_invariants(everyone, trials=trials, seed=seed)
            assert not set(candidates) & set(accepted), (seed, trials)
            for f, why in zip(candidates, messages):
                with pytest.raises(oracle.SemiInvarianceError, match=re.escape(why)):
                    oracle.semiinvariance_check(real, f, trials, seed)


@pytest.mark.parametrize("spec", ["monoid:m=2", "monoid:m=3", "determinantal:m=3,n=3,r=2", "determinantal:m=2,n=4,r=1"])
def test_slipped_weights_get_no_certificate(spec):
    # Each slip keeps its form's shape weight, which differs from the claim,
    # and is nonzero at the base point, so it is refuted with no draw.
    real = build_family(spec).realization
    slips = _slips(real)
    _assert_rejected(real, slips, [f"{f.name} does not rescale by its claimed weight under the Borel action" for f in slips])
    # The sampled reference rejects every slip at eight trials too.
    assert all(_sampled_failures(real, slips, 8, 0))


def test_forms_vanishing_at_the_base_point_get_no_certificate():
    # The rank-2 base point with its ones off the leading block: Delta_1 and
    # Delta_2 are zero there, though not on the orbit, so their shape weights
    # are certified at x = g . x0; the 3 x 3 minor vanishes on the whole orbit
    # and is rejected as undecided.
    real = build_family("determinantal:m=3,n=3,r=2").realization
    moved = dataclasses.replace(real, base_point=(_monomial_matrix(3, 3, [(1, 2), (2, 1)]),), curves=())
    weights = {f.name: f.claimed_weight for f in real.semi_invariants}
    zero = SemiInvariantSpec("Delta_3", weights["Delta_1"].lattice.combination([]), Minor(0, 3))
    assert moved.base_point[0].minor_ratio(1)[0] == 0
    assert moved.borel_exponents(Minor(0, 1)) == real.borel_exponents(Minor(0, 1)) == {(0, 0): 1, (1, 0): -1}
    for seed in (0, 1, 7):
        for trials in (1, 8):
            assert oracle.select_semi_invariants(moved, trials=trials, seed=seed) == moved.semi_invariants
    _assert_rejected(moved, [zero], ["Delta_3 is undecided: it vanishes at the base point and at its first translate"])
    # A slipped weight on a form zero at x0 is refuted at x.
    slips = _slips(moved)
    _assert_rejected(moved, slips, [f"{f.name} does not rescale by its claimed weight under the Borel action" for f in slips])
    # The sampled reference keeps Delta_1 and Delta_2 and rejects the 3 x 3 minor and every slip.
    assert _sampled_failures(moved, list(moved.semi_invariants) + [zero], 8, 0) == [False, False, True]
    assert all(_sampled_failures(moved, slips, 8, 0))


def test_a_semi_invariant_with_no_shape_weight_is_undecided():
    # det A, the monoid's trailing m x m minor, is Borel semi-invariant of
    # Delta_m's weight, but a trailing minor of A has no shape weight and no
    # root element moves a determinant: the check fails closed.  A trailing
    # minor of fewer rows is refuted by a root element, the highest first.
    for m in (2, 3, 4):
        real = build_family(f"monoid:m={m}").realization
        weights = {f.name: f.claimed_weight for f in real.semi_invariants}
        det = SemiInvariantSpec("det", weights[f"Delta_{m}"], Minor(0, m, trailing=True))
        assert real.borel_exponents(det.form) is None and not _sampled_failures(real, [det], 8, 0)[0]
        trailing = [f for f in real.semi_invariants if f.name.startswith("Delta_trail")]
        refuted = [f"{f.name} is not Borel semi-invariant: the root element I + E_{m - 1},0 at factor 0 changes it" for f in trailing]
        _assert_rejected(real, [det] + trailing, ["det is undecided: no closed form shows its claimed weight"] + refuted)


def test_closed_form_weights():
    real = build_family("monoid:m=3").realization
    # Leading minors: g_a1's first k diagonal entries over g_a2's.
    assert real.borel_exponents(Minor(0, 2)) == {(0, 0): 1, (0, 1): 1, (2, 0): -1, (2, 1): -1}
    # a1 is lower and a2 upper, so no trailing minor of A is certified; B's
    # arrow has b1 upper and b2 lower, so B's trailing minors are.
    assert real.borel_exponents(Minor(0, 1, trailing=True)) is None
    assert real.borel_exponents(Minor(1, 1)) is None
    assert real.borel_exponents(Minor(1, 2, trailing=True)) == {(1, 1): 1, (1, 2): 1, (3, 1): -1, (3, 2): -1}
    # d: (c1 / c2), the two dual pairs' (0, 0) products.
    (d,) = [f for f in real.semi_invariants if f.name == "d"]
    assert real.borel_exponents(d.form) == {(0, 0): 1, (1, 0): 1, (2, 0): -1, (3, 0): -1}
    assert real.torus_exponents(d.claimed_weight) == real.borel_exponents(d.form)
    circular = build_family("circular:m=3,n=4,r=1,s=2").realization
    # Arrow (1, 0): g2 upper, g1 lower, so its trailing minors are certified.
    assert circular.borel_exponents(Minor(1, 2, trailing=True)) == {(1, 2): 1, (1, 3): 1, (0, 1): -1, (0, 2): -1}
    assert circular.borel_exponents(Minor(1, 1)) is None
    assert isinstance(circular, MatrixRealization) and circular.dual_factors == ()


@pytest.mark.parametrize("spec", ["monoid:m=2", "monoid:m=4", "determinantal:m=2,n=3,r=1", "determinantal:m=3,n=3,r=2"])
def test_semiinvariance_check_gives_one_verdict_at_every_trials_and_seed(spec):
    # Its trials (checked to be at least 1) and seed move no verdict and no
    # message: certified forms, slips, trailing minors and det A alike.
    real = build_family(spec).realization
    weights = {f.name: f.claimed_weight for f in real.semi_invariants}
    square = min(real.shapes[0]) == max(real.shapes[0])
    extra = [SemiInvariantSpec("det", weights["Delta_1"], Minor(0, real.shapes[0][0], trailing=True))] if square else []
    candidates = list(real.semi_invariants) + _slips(real) + extra

    def verdict(f, trials, seed):
        try:
            return oracle.semiinvariance_check(real, f, trials, seed)
        except oracle.SemiInvarianceError as err:
            return str(err)

    for f in candidates:
        verdicts = {verdict(f, trials, seed) for trials in (1, 3, 8, 20) for seed in (0, 1, 7, 931794)}
        assert len(verdicts) == 1, (spec, f.name, verdicts)
