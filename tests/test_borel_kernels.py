"""Pins and differential tests for the Borel check's integer kernels.

The pins hash the per-trial values that the seeded `verify` reports reduce
away: every order list one ``sweep`` gives, and per semi-invariant its
Borel verdict with the values the closed-form check reads, f(x0), f(x) at
x = g . x0 for the first draw g, and the root element that refutes it with
f(u . x).  A kernel that is wrong only on some draws changes them even where
a report's verdict does not move.  The samplers' triangular units and
bounded draws are checked against ``integer_inverse`` and ``randint``'s
stream.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import prod

from sphemb import oracle, realization
from sphemb.families import build_family
from sphemb.realization import Minor
from sphemb.lattice import integer_inverse, mat_mul, row_determinant
from point_reference import divided, scaled

# The monoid and determinantal members of the oracle-verify benchmark.
_PIN_MEMBERS = (
    "monoid:m=3",
    "monoid:m=4",
    "determinantal:m=2,n=2,r=1",
    "determinantal:m=2,n=3,r=1",
    "determinantal:m=3,n=2,r=1",
    "determinantal:m=3,n=3,r=1",
    "determinantal:m=3,n=3,r=2",
)
_PIN_RUNS = [(seed, trials) for seed in (0, 1, 931794) for trials in (1, 3, 8)]


def _root_moved(real, point, v, i, j):
    """``point`` moved by the root element I + E_ij at factor v, as the product of Fraction matrices at each arrow."""

    def unit(factor, inverse):
        n = real.sizes[factor]
        u = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
        if factor == v:
            u[i][j] = Fraction(-1 if inverse else 1)
        return u

    moved = []
    for (s, t), x in zip(real.arrows, point):
        rows = mat_mul(mat_mul(unit(s, False), [list(r) for r in divided(x)]), unit(t, True))
        moved.append(scaled(rows))
    return tuple(moved)


def _pinned_values(spec, seed, trials):
    """(orders, borel) for one member: per curve and verified form its order list, and per semi-invariant its
    verdict, f(x0), f(x) at x = g . x0 for the first draw g, and a refuting root with f(u . x), as reduced fractions."""
    real = build_family(spec).realization
    verified = oracle.select_semi_invariants(real, trials=trials, seed=seed)
    forms = tuple(f.form for f in verified)
    draws = real.group_draws(trials, seed)
    swept = real.sweep(forms, [c.label for c in real.curves], draws)
    orders = [(c.label, [[term and term[0] for term in terms] for terms in per_curve]) for c, per_curve in zip(real.curves, swept)]
    failures = oracle._borel_failures(real, real.semi_invariants, lambda: draws[0])
    x = real.act(real.element(draws[0]), real.base_point)
    borel = []
    for f, why in zip(real.semi_invariants, failures):
        root = real.root_move(f.form, x) if isinstance(f.form, Minor) else None
        values = (f.evaluate(real.base_point), f.evaluate(x))
        if root is not None:
            values += (f.evaluate(_root_moved(real, x, *root)),)
            assert values[2] != values[1], (spec, f.name)
        assert (why is None) == (f in verified), (spec, f.name)
        borel.append((f.name, why, root, *values))
    return orders, borel


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def test_per_trial_orders_and_borel_values_are_pinned():
    orders, borel = [], []
    for spec in _PIN_MEMBERS:
        for seed, trials in _PIN_RUNS:
            o, b = _pinned_values(spec, seed, trials)
            orders.append((spec, seed, trials, o))
            borel.append((spec, seed, trials, b))
    assert _digest(orders) == "e57b2be0c8858756f1743493ca5d29244f0f931ff22f30a9e8de7684609fc80c"
    assert _digest(borel) == "0ae7ad2e5be9580d080d64ff3d1bf371cd8a6a77acdb803de2b81954545bf8cb"


def _reference_triangular(rng, n, lower):
    """The triangular draw as the samplers made it with ``randint``: per row its diagonal entry, then the rest."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = rng.choice([-3, -2, -1, 1, 2, 3])
        for j in range(n):
            if (j < i) if lower else (j > i):
                m[i][j] = rng.randint(-3, 3)
    return m


def test_triangular_unit_is_the_integer_inverse_unit():
    # n = 0..6, both orientations: some draws have det M < 0, and some of
    # size 3 or more a diagonal of negative entries only.
    signs, all_negative = set(), set()
    for n in range(7):
        for lower in (True, False):
            for seed in range(12):
                rng, ref = random.Random(seed), random.Random(seed)
                m, det = realization._rand_triangular(rng, n, lower)
                assert m == _reference_triangular(ref, n, lower) and rng.getstate() == ref.getstate()
                assert det == row_determinant(m) and realization._unit(m) == (1, m, *integer_inverse(m)), (n, lower, seed)
                diagonal = [m[i][i] for i in range(n)]
                signs.add(prod(diagonal) > 0)
                if n >= 3 and max(diagonal) < 0:
                    all_negative.add(lower)
    assert signs == {True, False} and all_negative == {True, False}


# Every (lo, hi) a sampler draws from: generic units, the stabilizers' units
# and blocks (the default), a test realization's small units.
_DRAW_RANGES = [(-999, 999), (-4, 4), None, (-1, 1), (-2, 1), (0, 0)]


def test_bounded_draws_follow_the_randint_stream():
    for bounds in _DRAW_RANGES:
        lo, hi = bounds or (-2, 2)
        for rows, cols in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (4, 4)):
            for seed in range(6):
                rng, ref = random.Random(seed), random.Random(seed)
                got = realization._rand_int_matrix(rng, rows, cols, *(bounds or ()))
                assert got == [[ref.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], (bounds, rows, cols)
                assert rng.getstate() == ref.getstate()
