"""Dense reference implementations of the Smith normal form and the generator choice.

These are the row-major dense versions that ``sphemb.lattice.smith_normal_form``
and ``sphemb.divisor_model._choose_basis`` replaced with sparse ones.  They are
kept verbatim, so that the tests can check the sparse versions give
byte-identical U, V and D, and the same picks and the same T.
"""

from math import gcd
from typing import Sequence

from sphemb.lattice import IntegerMatrix, SmithDecomposition


def dense_smith_normal_form(a: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form with transforms, U @ A @ V == D.

    Pivoting always picks the nonzero entry of smallest absolute value in the
    remaining submatrix (first such in row-major order), which bounds entry
    growth and makes the output deterministic.  Diagonal entries come out
    nonnegative with d_i | d_{i+1}.
    """
    m, n = a.rows, a.cols
    d = a.to_rows()
    u = IntegerMatrix.identity(m).to_rows()
    v = IntegerMatrix.identity(n).to_rows()

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def row_addmul(i, j, q):
        # row_i += q * row_j
        di, dj = d[i], d[j]
        for k in range(n):
            di[k] += q * dj[k]
        ui, uj = u[i], u[j]
        for k in range(m):
            ui[k] += q * uj[k]

    def col_addmul(i, j, q):
        # col_i += q * col_j
        for r in d:
            r[i] += q * r[j]
        for r in v:
            r[i] += q * r[j]

    for t in range(min(m, n)):
        while True:
            best = None
            best_abs = None
            for i in range(t, m):
                row = d[i]
                for j in range(t, n):
                    e = row[j]
                    if e != 0 and (best is None or abs(e) < best_abs):
                        best = (i, j)
                        best_abs = abs(e)
            if best is None:
                break
            i0, j0 = best
            if i0 != t:
                row_swap(t, i0)
            if j0 != t:
                col_swap(t, j0)
            p = d[t][t]
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    row_addmul(i, t, -(d[i][t] // p))
                    if d[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    col_addmul(j, t, -(d[t][j] // p))
                    if d[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, m):
                if any(d[i][j] % p != 0 for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            # Fold the offending row into row t; the next pass shrinks the pivot.
            row_addmul(t, offender, 1)
    for t in range(min(m, n)):
        if d[t][t] < 0:
            for k in range(n):
                d[t][k] = -d[t][k]
            for k in range(m):
                u[t][k] = -u[t][k]
    return SmithDecomposition(
        U=IntegerMatrix.from_rows(u, cols=m),
        V=IntegerMatrix.from_rows(v, cols=n),
        D=IntegerMatrix.from_rows(d, cols=n),
    )


def dense_choose_basis(vectors: Sequence[Sequence[int]], f: int) -> tuple[list[int], list[list[int]]]:
    """Greedily pick, in order, the vectors that extend the picked ones to part of a basis of Z^f.

    One column reduction: the columns T of a unimodular f x f matrix keep
    picked · T = [I | 0].  A vector v extends the k picked ones iff
    gcd((v · T)[k:]) = 1; it is then taken, and column operations on T bring
    v · T to e_k, the columns k.. by Euclid's algorithm and the columns
    before k by subtracting multiples of column k, which the picked rows
    read as 0.  Returns the picked indices and the columns of T: once f
    vectors are picked, T is the inverse of the matrix with them as rows.
    """
    cols = [[int(i == j) for i in range(f)] for j in range(f)]
    picked: list[int] = []
    for index, v in enumerate(vectors):
        k = len(picked)
        if k == f:
            break
        w = {j: sum(a * b for a, b in zip(v, cols[j]) if a) for j in range(k, f)}
        if gcd(*w.values()) != 1:
            continue
        live = [j for j in w if w[j]]
        while len(live) > 1:
            p = min(live, key=lambda j: abs(w[j]))
            for j in live:
                if j != p:
                    q = w[j] // w[p]
                    w[j] -= q * w[p]
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[p])]
            live = [j for j in live if w[j]]
        (p,) = live
        if w[p] < 0:
            cols[p] = [-a for a in cols[p]]
        cols[k], cols[p] = cols[p], cols[k]
        for j in range(k):
            c = sum(a * b for a, b in zip(v, cols[j]) if a)
            if c:
                cols[j] = [a - c * b for a, b in zip(cols[j], cols[k])]
        picked.append(index)
    return picked, cols
