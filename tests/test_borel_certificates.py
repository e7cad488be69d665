"""Closed-form Borel certificates against the sampled Borel check.

A realization declares each factor's Borel orientation (``borel_lower``) and
the factor pairs with g_a^T g_b scalar on the group (``dual_factors``).  The
group and Borel samplers are derived from both tables; the oracle reads them
to certify a ``Minor`` or ``Pairing`` form with no draw (``oracle._certified``)
and samples only what is left.  These tests check the tables against the
samplers' draws, every certificate against the sampled check, and that no
slipped, vanishing or undeclared form gets a certificate.
"""

from __future__ import annotations

import dataclasses
import random
import re

import pytest

from sphemb import oracle
from sphemb.families import (
    MatrixRealization,
    Minor,
    ScaledMatrix,
    SemiInvariantSpec,
    _monomial_matrix,
    admissible_circular_parameters,
    build_family,
)

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
    """Whether (L_a / l_a)^T (L_b / l_b) is a nonzero scalar matrix, read on the integers."""
    (_, a, _, _), (_, b, _, _) = unit_a, unit_b
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
    return [f for f in real.semi_invariants if oracle._certified(real, f)]


@pytest.mark.parametrize("spec", _GRID)
def test_every_certificate_passes_the_sampled_check(spec):
    # Every declared semi-invariant but the monoid's trailing minors, which
    # the Borel rejects by design, is certified from the Borel's shape.
    real = build_family(spec).realization
    certified = _certified(real)
    assert certified == [f for f in real.semi_invariants if not f.name.startswith("Delta_trail")], spec
    for seed in range(20):
        assert oracle._semiinvariance_failures(real, certified, 8, seed) == [None] * len(certified), (spec, seed)
        accepted = oracle.select_semi_invariants(real, trials=8, seed=seed)
        sampled = [f for f in real.semi_invariants if f not in certified]
        kept = [f for f, why in zip(sampled, oracle._semiinvariance_failures(real, sampled, 8, seed)) if why is None]
        assert set(accepted) == set(certified) | set(kept), (spec, seed)


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


def _assert_sampled(real, candidates):
    # No candidate is certified, and each gets the sampled check's verdict,
    # alone and among the realization's own semi-invariants.
    assert candidates and not any(oracle._certified(real, f) for f in candidates)
    everyone = dataclasses.replace(real, semi_invariants=real.semi_invariants + tuple(candidates))
    for seed in (0, 1, 7):
        for trials in (1, 8):
            want = oracle._semiinvariance_failures(real, candidates, trials, seed)
            assert oracle._borel_failures(real, candidates, trials, seed) == want
            accepted = oracle.select_semi_invariants(everyone, trials=trials, seed=seed)
            assert [f in accepted for f in candidates] == [why is None for why in want], (seed, trials)
            for f, why in zip(candidates, want):
                if why is None:
                    assert oracle.semiinvariance_check(real, f, trials, seed) == f.claimed_weight
                else:
                    with pytest.raises(oracle.SemiInvarianceError, match=re.escape(why)):
                        oracle.semiinvariance_check(real, f, trials, seed)


@pytest.mark.parametrize("spec", ["monoid:m=2", "monoid:m=3", "determinantal:m=3,n=3,r=2", "determinantal:m=2,n=4,r=1"])
def test_slipped_weights_get_no_certificate(spec):
    real = build_family(spec).realization
    slips = _slips(real)
    _assert_sampled(real, slips)
    # Eight trials reject every slip.
    assert all(oracle._borel_failures(real, slips, 8, 0))


def test_forms_vanishing_at_the_base_point_get_no_certificate():
    # The rank-2 base point with its ones off the leading block: Delta_1 and
    # Delta_2 are zero there, though not on the orbit, so both are sampled and
    # pass; the 3 x 3 minor vanishes on the whole orbit and is rejected.
    real = build_family("determinantal:m=3,n=3,r=2").realization
    moved = dataclasses.replace(real, base_point=(_monomial_matrix(3, 3, [(1, 2), (2, 1)]),), curves=())
    weights = {f.name: f.claimed_weight for f in real.semi_invariants}
    zero = SemiInvariantSpec("Delta_3", weights["Delta_1"].lattice.combination([]), Minor(0, 3))
    assert ScaledMatrix.of(moved.base_point[0]).minor_ratio(1)[0] == 0
    assert moved.borel_exponents(Minor(0, 1)) == real.borel_exponents(Minor(0, 1)) == {(0, 0): 1, (1, 0): -1}
    _assert_sampled(moved, list(moved.semi_invariants) + [zero])
    assert oracle.select_semi_invariants(moved, trials=8, seed=0) == moved.semi_invariants
    assert oracle._borel_failures(moved, (zero,), 8, 0) == ["Delta_3 vanished at every sampled point"]


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
