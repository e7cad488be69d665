"""Differential tests of the exact checks that ``verify`` reads without building what it never uses.

* The stabilizer check tests g . x0 = x0 as l_t L_s X = l_s X L_t on the
  forward factors (``fixes_base_point``), and its negative control skips a
  bump (i, j) with det L + l C_ij(L) = 0 and tests the rest the same way
  (``bump_moves_base_point``).  The references build the translate with
  ``act`` and each bumped copy's inverse with ``integer_inverse``, as the
  checks were first defined, and walk the bumps by the inverse's test
  R_ji = -r.
* A curve limit's rank is the count of its kept entries, which lie in
  distinct rows and columns, as a realization with curves has a monomial
  base point; the reference ranks every limit with ``rational_rank``.
* A ``Pairing`` on dual pairs reads two scalars per draw instead of two Gram
  tables; the sympy reference builds the translate, and a realization
  without ``dual_factors`` refuses the ``Pairing``.
* ``verify`` reads every boundary order in one ``sweep`` of the draws: its
  terms are those of one sweep per curve on a fresh realization, in any
  order of curves and forms, each draw table is built
  once per draw and key, and the forms are checked once, as ``t_order``
  checks them.
"""

import dataclasses
import io
import random

import pytest
from test_families import _GRID_SPECS, _INVERSE_MEMBERS, _SAMPLER_SPECS, _bumped_copies, _unit_inverse
from test_forward_kernels import _forms
from point_reference import scaled
from test_oracle import _PERMUTED_BASE, _PERMUTED_CURVES, _lowest_terms, _lowest_terms_and_orders, _one_arrow, _permuted_realization

from sphemb import realization
from sphemb.cli import run
from sphemb.families import build_family
from sphemb.realization import Curve, Minor, Pairing, ScaledMatrix, SemiInvariantSpec, _unit
from sphemb.lattice import rational_rank
from sphemb.oracle import limit_signature, stabilizer_check, t_order, verification_report, verify_boundary_valuations

# Every family grid the other tests use, each member once.
_SPECS = sorted(set(_GRID_SPECS) | set(_SAMPLER_SPECS) | set(_INVERSE_MEMBERS))


def _units(g):
    """The units of a tuple of factors (l, L) or of units, each factor inverted by ``integer_inverse``."""
    return tuple((l, m, *_unit_inverse(l, m)) for l, m, *_ in g)


def _act_fixes(real, g):
    """The check as first defined: the translate g . x0, built by ``act``, compared with x0."""
    return real.act(_units(g), real.base_point) == real.base_point


def _act_negative_control(real, g):
    """Whether some invertible bumped copy, inverted by ``integer_inverse``, moves x0 by ``act``."""
    return any(not _act_fixes(real, c) for c in _bumped_copies(_units(g)))


def _singular_bump_unit(n):
    """A unit with a singular bump: I + E_01, whose (1, 0) bump is [[1, 1], [1, 1]] at n = 2, or [[-1]] at n = 1."""
    if n == 1:
        return _unit([[-1]])
    return _unit([[int(i == j or (i, j) == (0, 1)) for j in range(n)] for i in range(n)])


def _elements(real, seed):
    """The sampled stabilizer element, also with each factor's unit over another scale, planted non-stabilizer
    elements and an element with singular bumps."""
    rng = random.Random(seed)
    stab, g = real.stabilizer_sampler(rng), real.group_sampler(rng)
    yield "stabilizer", stab
    # factor k as (k + 2) L / ((k + 2) l): the same element, its scales differing between factors
    yield "rescaled stabilizer", tuple(((k + 2) * l, [[(k + 2) * e for e in row] for row in m]) for k, (l, m) in enumerate(stab))
    yield "group", g
    for k in range(len(stab)):
        yield f"stabilizer with factor {k} from a group draw", stab[:k] + (g[k],) + stab[k + 1 :]
    yield "singular bumps", tuple(_singular_bump_unit(n) for n in real.sizes)


def _zero_base(real):
    """``real`` on the zero point of its arrows' shapes, which every element fixes."""
    zero = tuple(ScaledMatrix(1, x.shape, [[0] * x.shape[1] for _ in range(x.shape[0])]) for x in real.base_point)
    return dataclasses.replace(real, base_point=zero)


@pytest.mark.parametrize("spec", _SPECS)
def test_stabilizer_checks_match_the_act_reference(spec):
    real = build_family(spec).realization
    for target in (real, _zero_base(real)):
        for seed in (0, 1, 7):
            for name, g in _elements(target, seed):
                fixed = _act_fixes(target, g)
                assert target.fixes_base_point(g) == stabilizer_check(target, g) == fixed, (spec, seed, name)
                assert target.bump_moves_base_point(g) == _act_negative_control(target, g), (spec, seed, name)
                if target is not real:
                    assert fixed and not target.bump_moves_base_point(g), (spec, seed, name)
                elif name.endswith("stabilizer"):
                    assert fixed, (spec, seed, name)


def test_the_planted_elements_reach_every_branch():
    # Over the grid, the references see elements that move x0 and elements
    # that fix it, bumps skipped as singular, and negative controls that hold
    # and that fail (a zero base point or a factor whose bumps all fix x0).
    seen = {"moved": 0, "fixed": 0, "singular": 0, "control": 0, "no control": 0}
    for spec in _SPECS:
        real = build_family(spec).realization
        for name, g in _elements(real, 0):
            seen["fixed" if _act_fixes(real, g) else "moved"] += 1
            seen["control" if real.bump_moves_base_point(g) else "no control"] += 1
            bumps = sum(len(unit[1]) ** 2 for unit in g)
            seen["singular"] += bumps - sum(1 for _ in _bumped_copies(_units(g)))
    assert all(seen.values()), seen


def test_negative_control_on_the_singular_bump_example():
    # Of the eight bumps of (I, [[1, 1], [0, 1]]) only B's (1, 0) entry is
    # singular; the other seven move the base idempotent of circular 2,2,1,1.
    real = build_family("circular:m=2,n=2,r=1,s=1").realization
    g = (_unit([[1, 0], [0, 1]]), _unit([[1, 1], [0, 1]]))
    tested = []
    fixes = real._fixes
    real._fixes = lambda forward: tested.append(forward) or fixes(forward)
    assert real.bump_moves_base_point(g) and _act_negative_control(real, g)
    assert len(tested) == 1  # the first bump already moves the base point
    assert len(list(_bumped_copies(g))) == 7


def test_verification_report_builds_no_translate_off_the_borel_check():
    # With act made to raise, every member whose Borel check samples nothing
    # still verifies: the stabilizer check and its negative control use none.
    for spec in ("circular:m=3,n=3,r=1,s=2", "determinantal:m=3,n=3,r=2", "complexes:l=2,m=3,n=2,r=1,s=1"):
        bundle = build_family(spec)
        real = bundle.realization

        def refuse(*args):
            raise AssertionError("a translate was built")

        real.act = refuse
        report = verification_report(bundle.model, real)
        assert report.passed, spec
        assert "stabilizer_negative_control" in [rec.check for rec in report.records], spec


@pytest.mark.parametrize("spec", _SPECS)
def test_limit_ranks_count_the_kept_entries(spec):
    real = build_family(spec).realization
    for c in real.curves:
        sig = limit_signature(real, c.label)
        assert sig.rank_profile == tuple(rational_rank(x.integers) for x in sig.limit_point), (spec, c.label)


def test_a_non_monomial_limit_is_refused_at_construction():
    # Limits and orders read every arrow on each curve as a monomial matrix,
    # so a realization with curves refuses a base point with two nonzero
    # entries in one row or column at any arrow, whether its own forms read
    # the arrow or not; with no curve the base point stands.  The circular
    # member declares no form, so none of its own forms reads arrow 0.
    base = ((1, 1, 0), (2, 2, 0), (0, 0, 3))
    curves = {"flat": {}, "cut": {(0, 2): 1}, "row": {(0, 1): 1}, "single": {(0, 0): 1, (0, 1): 1}}
    for label, lam in curves.items():
        with pytest.raises(ValueError, match="^base point is not monomial on arrow 0$"):
            _one_arrow(base, Curve(label, lam, ()))
    assert _one_arrow(base).curves == ()
    real = build_family("circular:m=2,n=2,r=1,s=1").realization
    assert real.curves and not real.semi_invariants
    point = (scaled([[1, 0], [1, 0]]), scaled([[0, 0], [-1, 1]]))
    with pytest.raises(ValueError, match="^base point is not monomial on arrow 0$"):
        dataclasses.replace(real, base_point=point)
    assert dataclasses.replace(real, base_point=point, curves=()).base_point == point


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_dual_pairing_reads_two_scalars(m, monkeypatch):
    # The monoid's dilation d pairs arrows whose sources and targets are dual
    # pairs: each draw gives p = c d_a and q = sign(c') d_b, read off the draw
    # with no draw table at all, and the lowest terms match the sympy
    # reference.  Without dual_factors no Gram table is scalar, and the same
    # Pairing is refused when the realization is built.
    real = build_family(f"monoid:m={m}").realization
    (d,) = [f for f in real.semi_invariants if isinstance(f.form, Pairing)]
    tables = []
    draw_table = realization._draw_table

    def recording(draw, key):
        table = draw_table(draw, key)
        tables.append((key, len(table)))
        return table

    monkeypatch.setattr(realization, "_draw_table", recording)
    for seed in (0, 1, 7):
        tables.clear()
        for c in real.curves:
            _lowest_terms_and_orders(real, (d,), c.label, 4, seed)
        assert tables == [], (m, seed)
    with pytest.raises(ValueError, match="^semi-invariant d: arrows 0 and 1 do not run between dual factor pairs$"):
        dataclasses.replace(real, dual_factors=())


def _reference_bumps(g):
    """The bumps (k, i, j) that the negative control tests, in its order, a singular one skipped by the test on the
    inverse R / r of L / l from ``integer_inverse``: det(L / l + E_ij) = det(L / l) (1 + R_ji / r) vanishes iff
    R_ji = -r."""
    out = []
    for k, (l, m, *_) in enumerate(g):
        inverse = _unit_inverse(l, m)
        for i, row in enumerate(m):
            for j in range(len(row)):
                if inverse is None or inverse[1][j][i] != -inverse[0]:
                    out.append((k, i, j))
    return out


@pytest.mark.parametrize("spec", _SPECS)
def test_cofactor_bumps_walk_the_inverse_reference(spec):
    # With every bump made to fix x0, the negative control walks every bump it
    # does not skip: the cofactor test det L + l C_ij(L) = 0 skips exactly the
    # bumps the inverse's R_ji = -r test skipped, on sampled stabilizer and
    # group elements, their rescaled copies, elements with singular bumps and
    # zero base points.
    real = build_family(spec).realization
    singular = (_unit([[1, 0], [0, 1]]), _unit([[1, 1], [0, 1]]))
    for target in (real, _zero_base(real)):
        for seed in (0, 1, 7):
            for name, g in _elements(target, seed):
                walked = []

                def record(forward, g=g, walked=walked):
                    (k,) = [v for v in range(len(g)) if forward[v][1] is not g[v][1]]
                    (cell,) = [(i, j) for i, row in enumerate(forward[k][1]) for j, e in enumerate(row) if e != g[k][1][i][j]]
                    walked.append((k, *cell))
                    return True

                target._fixes = record
                assert not target.bump_moves_base_point(g)
                del target._fixes
                assert walked == _reference_bumps(g), (spec, seed, name)
    # I and [[1, 1], [0, 1]]: only B's (1, 0) bump, to [[1, 1], [1, 1]], is singular.
    assert _reference_bumps(singular) == [(0, i, j) for i in (0, 1) for j in (0, 1)] + [(1, 0, 0), (1, 0, 1), (1, 1, 1)]


# One arrow between two factors with three entries, a row and a column left
# empty, and curves that give its entries tied, spread and negative powers.
_ONE_ARROW_BASE = ((0, 2, 0, 0), (-3, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 5))
_ONE_ARROW_CURVES = {"flat": {}, "tied": {(0, 0): 1, (0, 1): 1}, "spread": {(0, 1): 3, (0, 3): -1, (1, 3): 2}}


def _sweep_realizations():
    """Fresh realizations to sweep, each with the forms read on it: monoid m <= 6, the one-arrow realization and the
    permuted two-arrow one, with every leading and trailing minor and its own forms."""
    for m in range(1, 7):
        real = build_family(f"monoid:m={m}").realization
        yield f"monoid:m={m}", real, _forms(real)
    curves = (Curve(label, lam, ()) for label, lam in _ONE_ARROW_CURVES.items())
    yield "one arrow", _one_arrow(_ONE_ARROW_BASE, *curves), [Minor(0, k, t) for t in (False, True) for k in range(5)]
    real = _permuted_realization(_PERMUTED_BASE, _PERMUTED_CURVES)
    yield "permuted", real, [f.form for f in real.semi_invariants]


@pytest.mark.parametrize("reverse_curves", [False, True])
@pytest.mark.parametrize("reverse_forms", [False, True])
def test_the_sweep_reads_what_one_curve_reads(reverse_curves, reverse_forms):
    # Each curve's terms in one sweep over all curves are those one sweep
    # gives on that curve alone, on another realization of the same data.
    fresh = {name: real for name, real, _ in _sweep_realizations()}
    for name, real, forms in _sweep_realizations():
        forms = forms[::-1] if reverse_forms else forms
        labels = [c.label for c in real.curves][:: -1 if reverse_curves else 1]
        for seed in (0, 1, 7, 931794):
            for trials in (1, 3, 8):
                swept = real.sweep(forms, labels, real.group_draws(trials, seed))
                assert len(swept) == len(labels), name
                for label, terms in zip(labels, swept):
                    assert terms == _lowest_terms(fresh[name], forms, label, trials, seed), (name, label, seed, trials)
        assert real.sweep([], labels, real.group_draws(3, 0)) == [[] for _ in labels]


@pytest.mark.parametrize("spec", ["monoid:m=2", "monoid:m=3", "monoid:m=4", "monoid:m=6"])
def test_verify_builds_each_draw_table_once(spec, monkeypatch):
    # Every boundary curve of a verify (m + 1 on the monoid, the only family
    # whose model has boundaries) reads the draw tables of one sweep: each
    # (draw, key) table is built once, however many curves read it.
    built = []
    draw_table = realization._draw_table

    def recording(draw, key):
        built.append((id(draw), key))
        return draw_table(draw, key)

    monkeypatch.setattr(realization, "_draw_table", recording)
    for seed in ("0", "7"):
        built.clear()
        assert run(["verify", "--family", spec, "--seed", seed], stdout=io.StringIO()) == 0
        assert built and len(set(built)) == len(built), (spec, seed)


def test_a_malformed_form_raises_once_through_the_sweep():
    # verify_boundary_valuations checks the forms once, as t_order does, and
    # raises t_order's ValueError; with no boundary curve it reads no order
    # and raises nothing.
    bundle = build_family("monoid:m=3")
    model, real = bundle.model, bundle.realization
    weight = model.weight_lattice.combination([])
    for form, message in ((Minor(5, 1), "no arrow 5"), (Minor(0, 4), "no 4 x 4 minor of arrow 0's 3 x 3 matrix")):
        bad = SemiInvariantSpec("bad", weight, form)
        with pytest.raises(ValueError, match=f"^semi-invariant bad: {message}$"):
            t_order(real, bad, "lambda_0")
        checked = []
        check = real.check_forms
        real.check_forms = lambda functions: checked.append(functions) or check(functions)
        with pytest.raises(ValueError, match=f"^semi-invariant bad: {message}$"):
            verify_boundary_valuations(model, real, (bad,))
        del real.check_forms
        assert len(checked) == 1
    bare = dataclasses.replace(real, curves=())
    bare.check_forms = lambda functions: pytest.fail("forms checked with no curve to read them on")
    report = verify_boundary_valuations(model, bare, (bad,))
    assert report.records and all(rec.inputs["curve"] is None and rec.trials == 0 for rec in report.records)
