"""The monoid, circular and determinantal models against a hand-written reference.

The models' functionals are derived from the torus, cocharacter and coroot
tables in ``sphemb.families``; ``model_reference`` writes them out as formulas.
A slip planted in any table must make the comparison fail, naming its label.
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
from sphemb.families import build_family


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
            functional = functional + functional.lattice.covector([1] + [0] * (functional.lattice.rank - 1))
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
