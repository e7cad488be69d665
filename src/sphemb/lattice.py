"""Exact integer and rational linear algebra.

Integer matrices with arbitrary-precision entries, Smith normal form with
unimodular transforms, cokernel presentations of finitely generated abelian
groups, and integer linear-system solving.  One fraction-free (Bareiss)
elimination, ``_bareiss``, gives the determinant (``row_determinant`` on
rows, ``determinant`` on an ``IntegerMatrix``) and, as Gauss-Jordan, the
scaled inverse of an integer matrix.  Ranks, rational and integer, come
from one sparse fraction-free echelon (``sparse_rank``) that touches only
nonzero entries.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable integer matrix, row-major; each entry type is checked once, and ``TypeError`` names the first non-int."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")
        if not all(issubclass(t, int) for t in set(map(type, self.entries))):
            raise TypeError(f"non-integer entry {next(e for e in self.entries if not isinstance(e, int))!r}")

    @classmethod
    def from_rows(cls, row_data: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        row_data = [list(r) for r in row_data]
        if row_data:
            width = len(row_data[0])
            if any(len(r) != width for r in row_data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
        else:
            width = 0 if cols is None else cols
        flat = tuple(int(e) for r in row_data for e in r)
        return cls(len(row_data), width, flat)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(
            self.cols,
            self.rows,
            tuple(e for j in range(self.cols) for e in self.entries[j :: self.cols]),
        )

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.entry(k, j) for k in range(self.cols)))
        return IntegerMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(sum(a * b for a, b in zip(self.row(i), vec)) for i in range(self.rows))

    def apply_transpose(self, vec: Sequence[int]) -> tuple[int, ...]:
        """M^T vec, reading only the rows of M where ``vec`` is nonzero."""
        if len(vec) != self.rows:
            raise ValueError("dimension mismatch in transposed matrix-vector product")
        out = [0] * self.cols
        for i, x in enumerate(vec):
            if x:
                out = [a + x * b for a, b in zip(out, self.row(i))]
        return tuple(out)

    def is_diagonal(self) -> bool:
        return all(self.entry(i, j) == 0 for i in range(self.rows) for j in range(self.cols) if i != j)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entry(i, i) for i in range(min(self.rows, self.cols)))

    def __repr__(self):
        return f"IntegerMatrix({self.to_rows()!r})"


def _bareiss(m: list[list[int]], ncols: int, jordan: bool = False) -> tuple[int, int, int]:
    """Fraction-free (Bareiss 1968) elimination of the integer rows ``m``, in place.

    Each of the first ``ncols`` columns takes as pivot its first nonzero entry
    at or below the current row, swapped up.  Every row below it, and with
    ``jordan`` every row above it too, becomes (p row - a pivot_row) / prev,
    with p the pivot, a the row's entry in the pivot column and prev the
    previous pivot.  Each entry is then a minor of the input, so every
    division is exact.  Returns (rank, row swaps, last pivot).  A square
    nonsingular input ends with last pivot (-1)^swaps det; with ``jordan``
    its pivot columns end as that pivot times the identity.
    """
    nrows = len(m)
    rank = swaps = 0
    prev = 1
    for col in range(ncols):
        if rank == nrows:
            break
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            swaps += 1
        pivot_row = m[rank]
        p = pivot_row[col]
        for i in range(0 if jordan else rank + 1, nrows):
            if i != rank:
                a = m[i][col]
                m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], pivot_row)]
        prev = p
        rank += 1
    return rank, swaps, prev


def scaled_to_integers(rows) -> tuple[int, list[list[int]]]:
    """(L, L M) for a matrix M of ``Fraction``/int entries, L the lcm of its denominators."""
    scale = lcm(*(e.denominator for r in rows for e in r))
    return scale, [[e.numerator * (scale // e.denominator) for e in r] for r in rows]


def determinant(a: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    return row_determinant(a.to_rows())


def row_determinant(rows) -> int:
    """det of a square integer matrix given as its rows, by one ``_bareiss`` pass; the rows are not changed.

    ``_bareiss`` swaps and replaces rows but never writes into one, so only
    the list of rows is copied.
    """
    m = list(rows)
    rank, swaps, last = _bareiss(m, len(m))
    if rank < len(m):
        return 0
    return -last if swaps % 2 else last


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D a divisibility-chain diagonal."""

    U: IntegerMatrix
    V: IntegerMatrix
    D: IntegerMatrix


@dataclass(frozen=True)
class AbelianGroupPresentation:
    """A finitely generated abelian group: Z^free_rank (+) sum of Z/f_i."""

    free_rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for f in self.invariant_factors:
            if f < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{f}" for f in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


def sparse_addmul(dst: dict[int, int], src: dict[int, int], q: int) -> None:
    """dst += q * src for sparse vectors ``{index: value}`` and q != 0; zeros are dropped."""
    for k, x in src.items():
        y = dst.get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def smith_normal_form(a: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form with transforms, U @ A @ V == D.

    Pivoting always picks the nonzero entry of smallest absolute value in the
    remaining submatrix (first such in row-major order), which bounds entry
    growth and makes the output deterministic.  The pivot's column is cleared
    by row operations, then its row by column operations, each in ascending
    order; a pivot that does not divide the rest of the block takes in the
    first row that it fails on.  Diagonal entries come out nonnegative with
    d_i | d_{i+1}.

    D and U are held as sparse rows ``{column: value}`` and V as sparse
    columns ``{row: value}``, so every operation and every scan reads only
    nonzero entries.  Once step t is done, row t and column t of D are zero
    off the diagonal, so rows t.. hold nothing left of column t.
    """
    m, n = a.rows, a.cols
    entries = a.entries
    d = [{j: e for j, e in enumerate(entries[i * n : (i + 1) * n]) if e} for i in range(m)]
    u = [{i: 1} for i in range(m)]
    v = [{j: 1} for j in range(n)]

    for t in range(min(m, n)):
        while True:
            best = None
            best_abs = 0
            for i in range(t, m):
                row = d[i]
                if row:
                    low = min(map(abs, row.values()))
                    if best is None or low < best_abs:
                        best, best_abs = i, low
                        if low == 1:
                            break
            if best is None:
                break
            row = d[best]
            j0 = min(j for j, e in row.items() if abs(e) == best_abs)
            if best != t:
                d[t], d[best] = row, d[t]
                u[t], u[best] = u[best], u[t]
            if j0 != t:
                for i in range(t, m):
                    row = d[i]
                    x, y = row.pop(t, 0), row.pop(j0, 0)
                    if y:
                        row[t] = y
                    if x:
                        row[j0] = x
                v[t], v[j0] = v[j0], v[t]
            pivot_row = d[t]
            p = pivot_row[t]
            # Rows that still hold column t once it is reduced, the pivot's first.
            column = [t]
            for i in range(t + 1, m):
                row = d[i]
                e = row.get(t)
                if e:
                    q = -(e // p)
                    sparse_addmul(row, pivot_row, q)
                    sparse_addmul(u[i], u[t], q)
                    if t in row:
                        column.append(i)
            for j in sorted(j for j in pivot_row if j > t):
                q = -(pivot_row[j] // p)
                for i in column:
                    row = d[i]
                    y = row.get(j, 0) + q * row[t]
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                sparse_addmul(v[j], v[t], q)
            if len(column) > 1 or len(pivot_row) > 1:
                # A remainder is left in column t or row t: pick a smaller pivot.
                continue
            if p in (1, -1):
                # A unit divides every entry: no offender to look for.
                break
            offender = next((i for i in range(t + 1, m) if any(e % p for e in d[i].values())), None)
            if offender is None:
                break
            # Fold the offending row into row t; the next pass shrinks the pivot.
            sparse_addmul(pivot_row, d[offender], 1)
            sparse_addmul(u[t], u[offender], 1)
    for t in range(min(m, n)):
        if d[t].get(t, 0) < 0:
            d[t][t] = -d[t][t]
            u[t] = {k: -x for k, x in u[t].items()}
    return SmithDecomposition(U=_dense(u, m), V=_dense(v, n, columns=True), D=_dense(d, n))


def _dense(vectors: list[dict[int, int]], size: int, columns: bool = False) -> IntegerMatrix:
    """The integer matrix with the given sparse rows, or with ``columns`` sparse columns, of ``size`` entries."""
    count = len(vectors)
    rows, cols = (size, count) if columns else (count, size)
    flat = [0] * (rows * cols)
    for i, vector in enumerate(vectors):
        for k, x in vector.items():
            flat[k * cols + i if columns else i * cols + k] = x
    return IntegerMatrix(rows, cols, tuple(flat))


def cokernel(a: IntegerMatrix) -> AbelianGroupPresentation:
    """Presentation of Z^cols modulo the row span of ``a``.

    Rows of ``a`` are relations, columns index generators.
    """
    diag = smith_normal_form(a).D.diagonal()
    rank = sum(1 for e in diag if e != 0)
    factors = tuple(e for e in diag if e > 1)
    return AbelianGroupPresentation(free_rank=a.cols - rank, invariant_factors=factors)


def solve_integer(a: IntegerMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """Some integer solution x of A x = b, or None when none exists.

    Existence is decided exactly via the Smith normal form: with U A V = D
    the system becomes D y = U b, solvable iff each d_i divides (U b)_i and
    the coordinates of U b beyond the diagonal vanish.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    snf = smith_normal_form(a)
    c = snf.U.apply(tuple(int(x) for x in b))
    k = min(a.rows, a.cols)
    y = [0] * a.cols
    for i in range(a.rows):
        di = snf.D.entry(i, i) if i < k else 0
        if di != 0:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
        elif c[i] != 0:
            return None
    return snf.V.apply(y)


# ---------------------------------------------------------------------------
# Rational (and generic ring) matrix helpers.


def mat_mul(a, b):
    """Product of two matrices given as sequences of rows; entries need + and *."""
    if not a:
        return []
    inner = len(a[0])
    if inner != len(b):
        raise ValueError("dimension mismatch in matrix product")
    bc = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(bc)] for i in range(len(a))]


def rational_rank(rows) -> int:
    """Rank of the matrix M with Fraction/int rows ``rows``: ``sparse_rank`` of L M, L the lcm of the denominators."""
    scale = lcm(*(e.denominator for r in rows for e in r if e))
    return sparse_rank({j: e.numerator * (scale // e.denominator) for j, e in enumerate(r) if e} for r in rows)


def sparse_rank(rows) -> int:
    """Rank of the integer rows ``rows``, ``{column: int}`` dicts with no zero stored, by one sparse echelon.

    Fraction-free, a row is reduced against the pivot of its leading column, row = p row - a pivot (p, a the two
    leading entries over their gcd), then divided by its content gcd, until it vanishes or pivots a new column.
    The given dicts may be changed.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            p, a = pivot[lead], row[lead]
            g = gcd(p, a)
            if p != g:
                p //= g
                row = {j: p * x for j, x in row.items()}
            sparse_addmul(row, pivot, -(a // g))
            g = gcd(*row.values())
            if g > 1:
                row = {j: x // g for j, x in row.items()}
    return len(pivots)


def integer_inverse(rows) -> tuple[int, list[list[int]]] | None:
    """(d, X) with M^-1 = X / d and d > 0 for a square integer matrix M; None if singular.

    One fraction-free Gauss-Jordan elimination takes [M | I] to
    [p I | p M^-1], p the last pivot, so d = |p| = |det M| and X = d M^-1,
    the adjugate up to sign.
    """
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    rank, _, d = _bareiss(m, n, jordan=True)
    if rank < n:
        return None
    if d < 0:
        return -d, [[-x for x in r[n:]] for r in m]
    return d, [r[n:] for r in m]


def rational_inverse(rows):
    """Inverse of a square matrix with Fraction/int entries; ``ZeroDivisionError`` if singular.

    With L the lcm of the denominators, M^-1 = L (L M)^-1, and
    ``integer_inverse`` gives (L M)^-1 = X / d; each entry is divided once.
    """
    scale, scaled = scaled_to_integers(rows)
    inverse = integer_inverse(scaled)
    if inverse is None:
        raise ZeroDivisionError("matrix is singular")
    d, x = inverse
    return [[Fraction(scale * e, d) for e in r] for r in x]

