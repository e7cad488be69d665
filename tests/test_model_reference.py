"""The monoid, circular and determinantal models against a hand-written reference.

The models' functionals are derived from the torus, cocharacter and coroot
tables in ``sphemb.families``, and their canonical coefficients from the
coroot tables by Brion's formula; ``model_reference`` writes the functionals
out as formulas and the coefficients by the paper's rule.  A slip planted in
any table must make the comparison fail, naming its label.  Brion's formula
holds for colours of type b, so every coroot table behind the model grid is
also checked to list no simple coroot twice and to give a paired colour the
same coefficient from each of its coroots.
"""

import dataclasses
import hashlib
import io
import re

import pytest
from model_reference import first_disagreement, model_grid

from sphemb import families
from sphemb.cli import run
from sphemb.divisor_model import BoundarySpec, ColorSpec
from sphemb.families import build_family, parse_family_spec


def test_model_grid_dumps_are_pinned():
    # sha256 of the concatenated `model --family X --dump` lines over the grid:
    # circular members merged on one side only (3,4,2,1) and boundaries at
    # m = n >= 4 are reached by no other pinned digest.
    specs = model_grid()
    assert len(specs) == 953
    digest = hashlib.sha256()
    for spec in specs:
        out = io.StringIO()
        assert run(["model", "--family", spec, "--dump"], stdout=out) == 0, spec
        digest.update(out.getvalue().encode())
    assert digest.hexdigest() == "95cb2c38a35359403a3e926148e6a36ff56bd2bd462f87fbdd6b6019521c3796"


def _disagreement(spec: str) -> str | None:
    bundle = build_family(spec)
    return first_disagreement(bundle.model, bundle.name, bundle.params)


def test_every_grid_model_matches_the_reference():
    for spec in model_grid():
        assert _disagreement(spec) is None, spec


def _patch_table(monkeypatch, name, corrupt):
    """Replace ``families.<name>`` by the same table passed through ``corrupt``."""
    original = getattr(families, name)
    monkeypatch.setattr(families, name, lambda *args: corrupt(original(*args)))


def _shift_d_r2(table):
    # D_r2 pairs with one right-hand coroot; shift both of its entries.
    (coroot,) = table["D_r2"]
    return {**table, "D_r2": ({k: c + 1 for k, c in coroot.items()},)}


@pytest.mark.parametrize("spec", ["circular:m=2,n=3,r=1,s=1", "circular:m=3,n=3,r=1,s=2", "determinantal:m=3,n=2,r=1"])
def test_shifted_circular_coroot_is_named(monkeypatch, spec):
    assert _disagreement(spec) is None
    _patch_table(monkeypatch, "_circular_coroots", _shift_d_r2)
    assert _disagreement(spec) == "D_r2"


def test_colours_out_of_order_are_named(monkeypatch):
    _patch_table(monkeypatch, "_circular_coroots", lambda table: dict(reversed(table.items())))
    assert _disagreement("circular:m=4,n=4,r=2,s=2") == "D_1"


def test_second_coroot_slip_fails_construction(monkeypatch):
    # The right-hand coroot of a paired colour, negated: the one check left at construction.
    def negate_second(table):
        left, right = table["E_1"]
        return {**table, "E_1": (left, {k: -c for k, c in right.items()})}

    _patch_table(monkeypatch, "_circular_coroots", negate_second)
    with pytest.raises(ValueError, match=re.escape("E_1")):
        build_family("circular:m=4,n=4,r=2,s=2")


@pytest.mark.parametrize("m", [3, 4])
def test_monoid_coroot_slip_is_named(monkeypatch, m):
    # alpha_2^vee pairs -1 with eps_{m+1} as alpha_1^vee does.
    def corrupted(table):
        return {**table, "D_2": {**table["D_2"], m: -1}}

    _patch_table(monkeypatch, "_monoid_coroots", corrupted)
    assert _disagreement(f"monoid:m={m}") == "D_2"


@pytest.mark.parametrize(
    "table, spec, curve, key, label",
    [
        ("_monoid_cocharacters", "monoid:m=3", "lambda_1", (0, 1), "X_1"),
        ("_monoid_cocharacters", "monoid:m=3", "lambda_3", (1, 0), "X_3"),
        ("_circular_cocharacters", "circular:m=3,n=3,r=2,s=1", "lambda_2", (0, 1), "X_{1,1}"),
        ("_circular_cocharacters", "circular:m=3,n=3,r=2,s=1", "mu_2", (1, 2), "X_{2,0}"),
    ],
)
def test_shifted_cocharacter_exponent_is_named(monkeypatch, table, spec, curve, key, label):
    # The curves and the boundary valuations read one cocharacter table.
    def shifted(out):
        return {**out, curve: {**out[curve], key: out[curve].get(key, 0) + 1}}

    before = dict(build_family(spec).realization.curve(curve).cocharacter).get(key, 0)
    _patch_table(monkeypatch, table, shifted)
    assert _disagreement(spec) == label
    assert dict(build_family(spec).realization.curve(curve).cocharacter)[key] == before + 1


@pytest.mark.parametrize(
    "table, spec, swap, label",
    [
        # eps_1 and eps_2 trade torus entries.
        ("_monoid_torus", "monoid:m=3", lambda t: (t[1], t[0], *t[2:]), "X_1"),
        # delta_1 reads g1's diagonal entry over g2's: the merged D_r1 pairs -1 with it.
        ("_circular_torus", "circular:m=3,n=3,r=2,s=1", lambda t: (*t[:-1], t[-1][::-1]), "D_r1"),
    ],
    ids=["monoid", "circular"],
)
def test_swapped_torus_entry_is_named(monkeypatch, table, spec, swap, label):
    _patch_table(monkeypatch, table, swap)
    assert _disagreement(spec) == label


def _corrupting(cls, label):
    """A stand-in for ``cls`` that adds 1 to the first coordinate of the functional at ``label``."""

    def make(lab, functional, *args, **kwargs):
        if lab == label:
            first, *rest = functional.coords
            functional = functional.lattice.covector([first + 1, *rest])
        return cls(lab, functional, *args, **kwargs)

    return make


@pytest.mark.parametrize(
    "cls, label, spec",
    [
        (ColorSpec, "D_1", "monoid:m=3"),
        (ColorSpec, "D_2", "monoid:m=3"),
        (ColorSpec, "D_r1", "circular:m=2,n=3,r=1,s=1"),
        (ColorSpec, "E_1", "circular:m=4,n=4,r=2,s=2"),
        (ColorSpec, "D_r2", "determinantal:m=2,n=4,r=1"),
        (BoundarySpec, "X_2", "monoid:m=3"),
        (BoundarySpec, "X_3", "monoid:m=3"),
        (BoundarySpec, "X_{1,0}", "circular:m=2,n=2,r=1,s=1"),
    ],
)
def test_corrupted_functional_is_named(monkeypatch, cls, label, spec):
    monkeypatch.setattr(families, cls.__name__, _corrupting(cls, label))
    assert _disagreement(spec) == label


@pytest.mark.parametrize("spec", ["monoid:m=3", "circular:m=2,n=2,r=1,s=1"])
def test_extra_boundary_is_named(spec):
    # A model with one boundary more than its family has: the extra boundary
    # copies the last one's valuation under a new label.
    bundle = build_family(spec)
    model, name, params = bundle.model, bundle.name, bundle.params
    extra = dataclasses.replace(model.boundaries[-1], id="X_extra")
    enlarged = dataclasses.replace(model, boundaries=model.boundaries + (extra,))
    assert first_disagreement(model, name, params) is None
    assert first_disagreement(enlarged, name, params) == "X_extra"


@pytest.mark.parametrize("label, spec", [("D_1", "monoid:m=3"), ("D_r1", "circular:m=3,n=4,r=2,s=1"), ("D_s2", "circular:m=3,n=4,r=2,s=1")])
def test_shifted_canonical_coefficient_is_named(monkeypatch, label, spec):
    # The reference's coefficients are the paper's rule, not a copy of the derived ones.
    original = families._canonical_coefficients

    def shifted(*args):
        coefficients = original(*args)
        return {**coefficients, label: coefficients[label] - 1}

    monkeypatch.setattr(families, "_canonical_coefficients", shifted)
    assert _disagreement(spec) == label


def coroot_table(spec: str):
    """The coroot table of ``spec``'s model, one tuple of coroots per colour, and its GL factors' last coordinates."""
    name, params = parse_family_spec(spec)
    if name == "monoid":
        m = params["m"]
        return {label: (coroot,) for label, coroot in families._monoid_coroots(m).items()}, (m - 1, m)
    if name == "circular":
        m, n, r, s = families._circular_parameters(**params)
    else:
        m, n, r, s = params["m"], params["n"], params["r"], 0
    return families._circular_coroots(m, n, r, s), (m - 1, m + n - 1)


def type_b_faults(table, ends) -> list[str]:
    """Why Brion's rule for colours of type b may not give ``table``'s coefficients: a simple coroot, named by its
    lower coordinate, that two colours list (a colour of type a), or a colour's coroot that gives another
    coefficient than its first."""
    faults, owner = [], {}
    for label, coroots in table.items():
        for coroot in coroots:
            if owner.setdefault(min(coroot), label) != label:
                faults.append(f"{owner[min(coroot)]} and {label} list the coroot at {min(coroot)}")
    coefficients = families._canonical_coefficients(table, ends)
    for label, coroots in table.items():
        for coroot in coroots[1:]:
            # The same coroots with this one first: the same cuts, read at this coroot.
            if families._canonical_coefficients({**table, label: (coroot, *coroots)}, ends)[label] != coefficients[label]:
                faults.append(f"{label}'s coroot at {min(coroot)} gives another coefficient")
    return faults


def test_every_grid_coroot_table_is_of_type_b():
    tables = [coroot_table(spec) for spec in model_grid()]
    assert len(tables) == 953 and sum(len(coroots) == 2 for table, _ in tables for coroots in table.values()) > 0
    assert [(spec, faults) for spec, faults in zip(model_grid(), (type_b_faults(*t) for t in tables)) if faults] == []


def test_type_b_guard_flags_planted_tables():
    # D_s1 lists D_r1's coroot: a simple root moving two colours.
    table, ends = coroot_table("circular:m=3,n=4,r=1,s=1")
    assert type_b_faults(table, ends) == []
    assert type_b_faults({**table, "D_s1": table["D_r1"]}, ends) == ["D_r1 and D_s1 list the coroot at 0"]
    # D_1's right-hand coroot moved into a block of size 3 while its left one sits between blocks of size 1.
    table, ends = coroot_table("determinantal:m=3,n=5,r=2")
    assert type_b_faults(table, ends) == []
    moved = {**table, "D_1": (table["D_1"][0], {6: 1, 7: -1})}
    assert type_b_faults(moved, ends) == ["D_1's coroot at 6 gives another coefficient"]
