"""Differential tests of the forward-only Cauchy-Binet kernel against the inverse-based reference.

``MatrixRealization.sweep`` reads each draw forward only: a generic
factor as its matrix A and det A, a dual pair's second factor as its scalar
c, and the minors of an inverse d A^-1 through Jacobi's identity.
``draw_reference`` reads the same seeded elements as units, each generic
factor inverted by ``integer_inverse``, as the kernel first did.  Both must
give the same lowest term, power and integer coefficient, for every leading
and trailing minor of every arrow and the realization's own forms, on every
family grid the other tests use.  Planted mutants of the forward kernel must fail the comparison, and
``verify`` must invert only where a translate is built.
"""

import io

import draw_reference
import pytest
from test_borel_certificates import _GRID
from test_borel_kernels import _PIN_MEMBERS
from test_families import _GRID_SPECS, _INVERSE_MEMBERS, _SAMPLER_SPECS
from test_oracle import _FORM_MEMBERS, _SLIP_MEMBERS, _lowest_terms

from sphemb import divisor_model, lattice, realization
from sphemb.cli import run
from sphemb.families import build_family
from sphemb.realization import MatrixRealization, Minor, Pairing

_SEEDS = (0, 1, 7, 931794)
_TRIALS = 4
_SPECS = sorted(
    spec
    for spec in set(_GRID) | set(_PIN_MEMBERS) | set(_GRID_SPECS) | set(_INVERSE_MEMBERS) | set(_SAMPLER_SPECS)
    | set(_FORM_MEMBERS) | set(_SLIP_MEMBERS)
    if not spec.startswith("complexes")  # no curve to read orders along
)


def _forms(real):
    """Every leading and trailing minor of every arrow between generic factors and the realization's own forms."""
    seconds = {b for _, b in real.dual_factors}
    forms = [Minor(a, k, trailing) for a, (rows, cols) in enumerate(real.shapes) if not seconds & set(real.arrows[a])
             for trailing in (False, True) for k in range(min(rows, cols) + 1)]
    return forms + [f.form for f in real.semi_invariants]


def _mismatches(specs, seeds=_SEEDS):
    """The (spec, curve, seed) whose lowest terms differ from the reference's, on fresh realizations."""
    out = []
    for spec in specs:
        real = build_family(spec).realization
        forms = _forms(real)
        for seed in seeds:
            for c in real.curves:
                got = _lowest_terms(real, forms, c.label, _TRIALS, seed)
                assert all(type(x) is int for terms in got for term in terms if term for x in term)
                if got != draw_reference.lowest_terms(real, forms, c.label, _TRIALS, seed):
                    out.append((spec, c.label, seed))
    return out


@pytest.mark.parametrize("spec", _SPECS)
def test_lowest_terms_match_the_inverse_reference(spec):
    assert _mismatches([spec]) == []


def test_the_grid_reaches_every_branch_of_the_forward_kernel(monkeypatch):
    # Minors between generic factors (every family), a Pairing between dual
    # pairs (the monoid's dilation), curves on every member kept.
    reals = [build_family(spec).realization for spec in _SPECS]
    assert all(real.curves for real in reals)
    assert {bool(real.dual_factors) for real in reals} == {True, False}
    assert {spec.partition(":")[0] for spec in _SPECS} == {"monoid", "circular", "determinantal"}
    # Jacobi sides read both off a factor's table of minors and off one
    # determinant per complement; the dilation and the 0 x 0 minors read no table.
    plans, plan = [], MatrixRealization._plan
    monkeypatch.setattr(MatrixRealization, "_plan", lambda *args: plans.append(plan(*args)) or plans[-1])
    for real in reals:
        real.sweep(_forms(real), (), ())
    kinds = {key and key[0] for p in plans for key in p[:2]}
    assert kinds == {"minors", "complements", None}


@pytest.mark.parametrize("spec", ["determinantal:m=3,n=14,r=1", "determinantal:m=3,n=16,r=2", "circular:m=2,n=16,r=1,s=1"])
def test_a_wide_factor_is_read_on_the_complements_its_terms_name(spec, monkeypatch):
    # The 14- or 16-wide factor is read through Jacobi on the curve's few
    # complements, one determinant each, never as a table of its minors on
    # all 2^n column subsets: no draw table holds more than 2^m entries, m
    # the narrow factor's size.
    real = build_family(spec).realization
    forms = _forms(real)
    sizes, draw_table = [], realization._draw_table

    def recording(draw, key):
        table = draw_table(draw, key)
        sizes.append(len(table))
        return table

    monkeypatch.setattr(realization, "_draw_table", recording)
    for c in real.curves:
        assert _lowest_terms(real, forms, c.label, _TRIALS, 0) == draw_reference.lowest_terms(real, forms, c.label, _TRIALS, 0)
    assert sizes and max(sizes) <= 2 ** min(real.sizes)


_MUTANT_SPECS = ["monoid:m=2", "monoid:m=3", "determinantal:m=3,n=3,r=2"]


def _no_jacobi_sign(original):
    # (-1)^(sum J) dropped from each subset: the complement keys J^c are kept, the sign is not.
    def mutant(entries, k, full):
        def unsigned(jc, c):
            return -c if sum(j for j in range(full.bit_length()) if (jc ^ full) >> j & 1) % 2 else c

        return [(i, jc, unsigned(jc, c), chosen) for i, jc, c, chosen in original(entries, k, full)]

    return mutant


def _full_power(original):
    # d^k in place of d^(k - 1) in every per-(form, draw) multiplier of a Jacobi read of a generic factor.
    def mutant(draw, sign, scalars):
        return original(draw, sign, tuple((v, f if f == e + 1 and isinstance(draw[v], tuple) else e, f) for v, e, f in scalars))

    return mutant


def _unreversed_trailing_rows(original):
    # A trailing minor read on the rows a leading one reads.
    def mutant(self, form, subsets):
        left, right, *rest = original(self, form, subsets)
        if isinstance(form, Minor) and form.trailing and form.k:
            left, right = ((kind, v, not top, cols) for kind, v, top, cols in (left, right))
        return (left, right, *rest)

    return mutant


def _pairing_without_c(original):
    # p = d_a: the scalar c of the source pair's second factor dropped.
    def mutant(self, form, subsets):
        plan = original(self, form, subsets)
        if isinstance(form, Pairing):
            plan = (*plan[:3], plan[3][1:], plan[4])
        return plan

    return mutant


@pytest.mark.parametrize(
    "owner, name, mutate",
    [
        (realization, "_minor_subsets", _no_jacobi_sign),
        (realization, "_scalars", _full_power),
        (MatrixRealization, "_plan", _unreversed_trailing_rows),
        (MatrixRealization, "_plan", _pairing_without_c),
    ],
)
def test_planted_mutants_fail_the_comparison(owner, name, mutate, monkeypatch):
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    assert _mismatches(_MUTANT_SPECS, seeds=(0,))
    monkeypatch.undo()
    assert _mismatches(_MUTANT_SPECS, seeds=(0,)) == []


# Per verify: the monoid inverts its stabilizer's dual factor once and the
# two generic factors of the first group draw, whose units build the point
# that the root test moves; no other member inverts anything.
_INVERSES = {
    "monoid:m=2": 3,
    "monoid:m=3": 3,
    "monoid:m=4": 3,
    "circular:m=2,n=3,r=1,s=1": 0,
    "circular:m=3,n=3,r=1,s=2": 0,
    "determinantal:m=3,n=3,r=2": 0,
    "determinantal:m=4,n=5,r=3": 0,
    "complexes:l=1,m=2,n=2,r=1,s=1": 0,
    "complexes:l=2,m=3,n=2,r=1,s=1": 0,
}


@pytest.mark.parametrize("spec", sorted(_INVERSES))
def test_verify_inverts_only_where_a_translate_is_built(spec, monkeypatch):
    calls = []
    inverse = lattice.integer_inverse
    for module in (lattice, realization, divisor_model):
        if hasattr(module, "integer_inverse"):
            monkeypatch.setattr(module, "integer_inverse", lambda rows: calls.append(len(rows)) or inverse(rows))
    for seed in ("0", "7"):
        calls.clear()
        assert run(["verify", "--family", spec, "--seed", seed], stdout=io.StringIO()) == 0
        assert len(calls) == _INVERSES[spec], (spec, seed, calls)
