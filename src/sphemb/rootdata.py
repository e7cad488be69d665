"""Character and cocharacter lattices, simple roots, and coroot pairings.

Characters are integer vectors against a labelled lattice basis; covectors
act on them by exact rational dot product, computed as one integer dot
product against the covector's numerators over their common denominator.
Family constructors derive each model's functionals once, from their torus,
cocharacter and coroot tables, and store them composed, so no sign juggling
happens at computation time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .lattice import scaled_to_integers


class LatticeMismatchError(ValueError):
    """Two operands live on different lattices."""


@dataclass(frozen=True)
class TorusLattice:
    """A free abelian group with one distinct label per basis element.

    The rank is the number of labels.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be distinct")

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown basis label {label!r}") from None

    def character(self, coords: Iterable[int]) -> "Character":
        return Character(self, tuple(int(c) for c in coords))

    def basis_character(self, label: str) -> "Character":
        i = self.index(label)
        return Character(self, tuple(1 if k == i else 0 for k in range(self.rank)))

    def covector(self, coords: Iterable) -> "Covector":
        return Covector(self, tuple(coords))

    def combination(self, terms: Iterable[tuple[int, "Character"]]) -> "Character":
        """The character sum of k * chi over the ``(k, chi)`` terms, in one integer pass."""
        coords = [0] * self.rank
        for k, chi in terms:
            if chi.lattice != self:
                raise LatticeMismatchError("characters on different lattices")
            if k:
                coords = [a + k * c for a, c in zip(coords, chi.coords)]
        return Character(self, tuple(coords))


@dataclass(frozen=True)
class Character:
    """Element of a TorusLattice, written in its basis."""

    lattice: TorusLattice
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.lattice.rank:
            raise ValueError("coordinate length does not match lattice rank")

    def _check(self, other: "Character"):
        if self.lattice != other.lattice:
            raise LatticeMismatchError("characters on different lattices")

    def __add__(self, other: "Character") -> "Character":
        self._check(other)
        return Character(self.lattice, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Character") -> "Character":
        self._check(other)
        return Character(self.lattice, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Character":
        return Character(self.lattice, tuple(-a for a in self.coords))

    def __mul__(self, k: int) -> "Character":
        return Character(self.lattice, tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational(c):
    """``c`` as an int or a ``Fraction``: ``int`` reads a string that is exactly ASCII "n" or "p/q"."""
    match = _RATIONAL_TEXT.fullmatch(c) if type(c) is str else None
    if match is None:
        return c if type(c) is int else Fraction(c)
    p, q = int(match[1]), int(match[2] or 1)
    return p if q == 1 else Fraction(p, q)


@dataclass(frozen=True, init=False, repr=False)
class Covector:
    """Rational linear functional on a TorusLattice (acts by dot product).

    It is stored in its integer form, which decides equality and hash:
    ``scale``, the lcm of the denominators of ``coords``, and ``numerators``,
    the integers ``scale * coords``.  All-int coordinates, and strings that
    are exactly ASCII "n" or "n/1", are the numerators over scale 1, with no
    ``Fraction`` and no lcm; ``coords`` is built, as ``Fraction``s, when read.
    """

    lattice: TorusLattice
    scale: int
    numerators: tuple[int, ...]

    def __init__(self, lattice: TorusLattice, coords: Iterable):
        coords = tuple(coords)
        if len(coords) != lattice.rank:
            raise ValueError("coordinate length does not match lattice rank")
        if not all(type(c) is int for c in coords):
            coords = tuple(map(_rational, coords))
        scale, (numerators,) = (1, (coords,)) if all(type(c) is int for c in coords) else scaled_to_integers((coords,))
        self.__dict__.update(lattice=lattice, scale=scale, numerators=tuple(numerators))

    @cached_property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.scale) for c in self.numerators)

    def __repr__(self):
        return f"Covector(lattice={self.lattice!r}, coords={self.coords!r})"


def scaled_pairings(chi: Character, covectors: Iterable[Covector]) -> list[int]:
    """The integers ``f.scale * <chi, f>``, one per covector f.

    One pass over the nonzero coordinates of ``chi`` against each covector's
    ``numerators``; no ``Fraction`` is built.
    """
    lattice = chi.lattice
    support = [(i, c) for i, c in enumerate(chi.coords) if c]
    out = []
    for f in covectors:
        if f.lattice is not lattice and f.lattice != lattice:
            raise LatticeMismatchError("character and covector on different lattices")
        numerators = f.numerators
        out.append(sum(c * numerators[i] for i, c in support))
    return out


def pair(chi: Character, f: Covector) -> Fraction:
    """Exact pairing <chi, f>; integral whenever f is integral on the lattice."""
    return Fraction(scaled_pairings(chi, (f,))[0], f.scale)


@dataclass(frozen=True)
class SimpleRootSet:
    """Simple roots, one ``(label, root, coroot)`` record each, <alpha, alpha^v> = 2."""

    roots: tuple[tuple[str, Character, Covector], ...]

    def __post_init__(self):
        for _, alpha, alpha_v in self.roots:
            if scaled_pairings(alpha, (alpha_v,))[0] != 2 * alpha_v.scale:
                raise ValueError("coroot normalization <alpha, alpha^v> = 2 violated")

    def __len__(self):
        return len(self.roots)


def antidominant_flags(covectors: Sequence[Covector], roots: SimpleRootSet) -> list[bool]:
    """``is_antidominant`` of each covector, from one ``scaled_pairings`` pass per simple root."""
    rows = [scaled_pairings(alpha, covectors) for _, alpha, _ in roots.roots]
    return [all(row[i] <= 0 for row in rows) for i in range(len(covectors))]


def is_antidominant(v: Covector, roots: SimpleRootSet) -> bool:
    """True iff <alpha, v> <= 0 for every simple root alpha, read off the sign of the scaled pairing (v.scale > 0)."""
    return antidominant_flags((v,), roots)[0]
