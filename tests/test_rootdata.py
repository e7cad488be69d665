import dataclasses
import random
from fractions import Fraction

import pytest

from sphemb.families import build_family
from sphemb.rootdata import (
    Character,
    Covector,
    LatticeMismatchError,
    SimpleRootSet,
    TorusLattice,
    is_antidominant,
    pair,
    scaled_pairings,
)


def _gl3_data():
    # eps_1, eps_2, eps_3 with alpha_i = eps_i - eps_{i+1} and coroot e_i - e_{i+1}.
    lattice = TorusLattice(("eps_1", "eps_2", "eps_3"))
    roots = []
    for i in (1, 2):
        vec = [0, 0, 0]
        vec[i - 1] = 1
        vec[i] = -1
        roots.append((f"alpha_{i}", lattice.character(vec), lattice.covector(vec)))
    return lattice, SimpleRootSet(tuple(roots))


def test_pair_examples():
    lattice, roots = _gl3_data()
    _, alpha_1, alpha_1_v = roots.roots[0]
    assert pair(alpha_1, alpha_1_v) == 2
    assert pair(lattice.basis_character("eps_1"), alpha_1_v) == 1
    assert pair(lattice.basis_character("eps_3"), alpha_1_v) == 0


def test_pair_lattice_mismatch():
    lattice, roots = _gl3_data()
    other = TorusLattice(("a", "b"))
    with pytest.raises(LatticeMismatchError):
        pair(other.character([1, 0]), roots.roots[0][2])


def test_pair_bilinear():
    lattice, roots = _gl3_data()
    rng = random.Random(5)
    for _ in range(50):
        chi1 = lattice.character([rng.randint(-9, 9) for _ in range(3)])
        chi2 = lattice.character([rng.randint(-9, 9) for _ in range(3)])
        f1 = lattice.covector([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)])
        f2 = lattice.covector([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)])
        assert pair(chi1 + chi2, f1) == pair(chi1, f1) + pair(chi2, f1)
        f12 = lattice.covector([a + b for a, b in zip(f1.coords, f2.coords)])
        assert pair(chi1, f12) == pair(chi1, f1) + pair(chi1, f2)


def test_pair_matches_fraction_sum():
    # Mixed denominators, zero coordinates on both sides, and rank 0.
    rng = random.Random(17)
    for rank in range(6):
        lattice = TorusLattice(tuple(f"x_{i}" for i in range(rank)))
        for _ in range(40):
            coords = [Fraction(rng.choice((0, 0, rng.randint(-9, 9))), rng.choice((1, 2, 3, 4, 6, 7)))
                      for _ in range(rank)]
            chi = lattice.character([rng.choice((0, rng.randint(-9, 9))) for _ in range(rank)])
            got = pair(chi, lattice.covector(coords))
            assert type(got) is Fraction
            assert got == sum((c * x for c, x in zip(chi.coords, coords)), Fraction(0))
    empty = TorusLattice(())
    assert pair(empty.combination([]), empty.covector([])) == 0
    with pytest.raises(LatticeMismatchError):
        pair(TorusLattice(("y_0", "y_1")).character([1, 1]), TorusLattice(("x_0", "x_1")).covector([1, 1]))


def test_covector_integer_form_keeps_equality_hash_repr():
    lattice = TorusLattice(("x", "y"))
    a = lattice.covector([1, 2])
    b = lattice.covector([Fraction(2, 2), Fraction(4, 2)])
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "scale" not in repr(a) and "numerators" not in repr(a)
    f = lattice.covector(["1/2", "-2/3"])
    assert (f.scale, f.numerators) == (6, (3, -4))
    assert f.coords == (Fraction(1, 2), Fraction(-2, 3))
    assert f != lattice.covector([Fraction(1, 2), Fraction(2, 3)])
    assert (TorusLattice(()).covector([]).scale, TorusLattice(()).covector([]).numerators) == (1, ())


def test_integer_covector_builds_no_fraction_until_coords_is_read(monkeypatch):
    import sphemb.rootdata as rootdata

    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(rootdata, "Fraction", CountingFraction)
    lattice = TorusLattice(("x", "y", "z"))
    f = lattice.covector([1, -2, 0])
    g = Covector(lattice, (1, -2, 0))
    # Construction, equality, hash and the integer pairings build no Fraction.
    assert (f.scale, f.numerators) == (1, (1, -2, 0)) and "coords" not in vars(f)
    assert f == g and hash(f) == hash(g) and f != lattice.covector([1, -2, 1])
    assert scaled_pairings(lattice.character([3, 1, 5]), (f, g)) == [1, 1]
    assert built == []
    # The first read of coords builds them, once.
    assert f.coords == (Fraction(1), Fraction(-2), Fraction(0)) and len(built) == 3
    assert f.coords is f.coords and len(built) == 3


def test_integer_coordinates_match_fraction_and_string_coordinates(monkeypatch):
    rng = random.Random(23)
    for rank in range(6):
        lattice = TorusLattice(tuple(f"e_{i}" for i in range(rank)))
        for _ in range(30):
            ints = [rng.randint(-12, 12) for _ in range(rank)]
            f = Covector(lattice, ints)
            assert f.scale == 1 and f.numerators == tuple(ints)
            assert all(type(c) is int for c in f.numerators)
            for same in (
                [Fraction(c) for c in ints],
                [Fraction(2 * c, 2) for c in ints],
                [str(c) for c in ints],
                [f"{c}/1" for c in ints],
                [f"{3 * c}/3" for c in ints],
                [c == 1 if c in (0, 1) else c for c in ints],
            ):
                g = Covector(lattice, same)
                assert (g.scale, g.numerators) == (f.scale, f.numerators), same
                assert g == f and hash(g) == hash(f) and repr(g) == repr(f), same
            if rank:
                # One non-integer coordinate takes the lcm path, as an all-Fraction covector does.
                mixed = ints[:-1] + [Fraction(ints[-1], 7)]
                g = Covector(lattice, mixed)
                assert g == Covector(lattice, [Fraction(c) for c in mixed]) == Covector(lattice, [str(c) for c in mixed])
                assert g.scale in (1, 7)

    import sphemb.rootdata as rootdata

    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(rootdata, "Fraction", CountingFraction)
    lattice = TorusLattice(("x", "y", "z"))
    # Integer text, "n" or "n/1", is read with int: no Fraction is built.
    assert lattice.covector(["1/1", "-2", "0/1"]) == lattice.covector([1, -2, 0]) and built == []
    assert lattice.covector(["1/2", "-2", "0/1"]).scale == 2 and built == [(1, 2)]


def test_combination_is_the_character_sum():
    lattice = TorusLattice(("x", "y", "z"))
    a, b = lattice.character([1, -2, 0]), lattice.character([0, 3, 5])
    assert lattice.combination([(2, a), (0, b), (-1, b)]) == 2 * a - b
    assert lattice.combination([]) == lattice.character([0, 0, 0])
    with pytest.raises(LatticeMismatchError):
        lattice.combination([(1, TorusLattice(("u", "v", "w")).character([1, 0, 0]))])


def test_coroot_normalization_enforced():
    lattice = TorusLattice(("x", "y"))
    root = lattice.character([1, -1])
    bad = lattice.covector([1, 0])
    with pytest.raises(ValueError):
        SimpleRootSet((("alpha", root, bad),))


def test_antidominant_examples():
    lattice, roots = _gl3_data()
    assert is_antidominant(lattice.covector([0, 0, 0]), roots)
    assert not is_antidominant(lattice.covector([1, 0, 0]), roots)
    v = lattice.covector([0, 1, 1])
    assert [pair(alpha, v) for _, alpha, _ in roots.roots] == [-1, 0]
    assert is_antidominant(v, roots)


def test_monoid_lambda1_image_is_antidominant():
    model = build_family("monoid:m=3").model
    # lambda_1 image: 0,1,1 on eps_1..eps_3 and 1 on eps_4.
    v = model.weight_lattice.covector([0, 1, 1, 1])
    assert is_antidominant(v, model.simple_roots)
    alphas = [alpha for _, alpha, _ in model.simple_roots.roots]
    assert pair(alphas[0], v) == -1
    assert pair(alphas[1], v) == 0


def test_antidominance_both_signs_forces_orthogonality():
    lattice, roots = _gl3_data()
    rng = random.Random(9)
    hits = 0
    for _ in range(300):
        v = lattice.covector([rng.randint(-2, 2) for _ in range(3)])
        neg = lattice.covector([-c for c in v.coords])
        if is_antidominant(v, roots) and is_antidominant(neg, roots):
            hits += 1
            assert all(pair(alpha, v) == 0 for _, alpha, _ in roots.roots)
    assert hits > 0


def test_character_arithmetic_and_validation():
    lattice = TorusLattice(("x", "y"))
    a = lattice.character([1, 2])
    b = lattice.character([3, -1])
    assert (a + b).coords == (4, 1)
    assert (a - b).coords == (-2, 3)
    assert (-a).coords == (-1, -2)
    assert (3 * a).coords == (3, 6)
    with pytest.raises(ValueError):
        Character(lattice, (1,))
    with pytest.raises(ValueError):
        Covector(lattice, (Fraction(1),))
    with pytest.raises(ValueError):
        TorusLattice(("x", "x"))


def test_index_reads_one_position_table_per_lattice():
    lattice = TorusLattice(("x", "y", "z"))
    assert "_positions" not in vars(lattice)
    assert [lattice.index(lab) for lab in ("z", "x", "y")] == [2, 0, 1]
    assert lattice.basis_character("y").coords == (0, 1, 0)
    # Not a field: equality, hash and repr do not read it.
    fresh = TorusLattice(("x", "y", "z"))
    assert fresh == lattice and hash(fresh) == hash(lattice) and repr(fresh) == repr(lattice)
    assert "_positions" not in vars(fresh)
    # An unknown label, hashable or not, raises the KeyError it raised before.
    for label in ("w", ["x"], None, 0):
        with pytest.raises(KeyError) as caught:
            lattice.index(label)
        assert caught.value.args == (f"unknown basis label {label!r}",)
    with pytest.raises(KeyError, match="unknown basis label 'w'"):
        lattice.basis_character("w")
    # A copy with other labels reads its own positions.
    other = dataclasses.replace(lattice, labels=("z", "w"))
    assert other.index("w") == 1 and other.index("z") == 0 and lattice.index("z") == 2
    with pytest.raises(KeyError):
        other.index("x")
