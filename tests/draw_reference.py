"""The inverse-based Cauchy-Binet kernel, kept as a reference for ``MatrixRealization.lowest_terms``.

Each seeded group element is drawn as units by ``group_sampler`` on
``Random(seed)``, every generic factor inverted by ``integer_inverse``.  At
an arrow (s, t) the translate is L X R for the unit L of g_s and the inverse
R of g_t, so its minor on the rows and columns K is
sum_I det L[K, I] det X[I, J] det R[J, K]: the minors of L's first rows and
of R's first columns are expanded along their last row (``first_row_minors``),
read from the last one back for a trailing minor, which turns both by one
sign.  A ``Pairing`` of arrows a, b, which realizations take only on dual
factor pairs, reads the (0, 0) entries of the Gram tables P = L_a^T L_b and
Q = R_a R_b^T, which are scalar there.  Nothing here reads the package's
forward draws, Jacobi tables or per-draw scalars.
"""

import random
from itertools import combinations
from math import prod
from operator import mul

from sphemb.realization import Minor


def minor_terms(entries, k):
    """Per power e of t, ascending, the (I, J, c) with det X[I, J] = c t^e over the k-subsets I of X's nonzero rows,
    as tuples: J sorted, and c carrying the sign of the permutation that sorts I's columns."""
    groups = {}
    for chosen in combinations(entries, k):
        rows, cols, coefficients, powers = zip(*chosen) if chosen else ((),) * 4
        inversions = sum(a > b for n, a in enumerate(cols) for b in cols[n + 1 :])
        coefficient = -prod(coefficients) if inversions % 2 else prod(coefficients)
        groups.setdefault(sum(powers), []).append((rows, tuple(sorted(cols)), coefficient))
    return sorted(groups.items())


def pairing_terms(x_entries, y_entries):
    """Per power of t, ascending, the one term ((0, 0), (0, 0), s) of two monomial matrices' entries on dual pairs,
    for the sum s of x y over their entries at one position, powers with s = 0 left out."""
    sums = {}
    for a, b, x, f in x_entries:
        for c, d, y, g in y_entries:
            if (a, b) == (c, d):
                sums[f + g] = sums.get(f + g, 0) + x * y
    return [(e, [((0, 0), (0, 0), s)]) for e, s in sorted(sums.items()) if s]


def first_row_minors(rows, support, depth):
    """det of ``rows``' first k rows on the columns I, for every subset I of ``support`` with k = len(I) <= depth,
    keyed by I in ``support``'s order; each is expanded along its last row from the minors one size smaller."""
    minors = {(): 1}
    for k in range(depth):
        row = rows[k]
        for cols in combinations(support, k + 1):
            total = 0
            for pos, j in enumerate(cols):
                if row[j]:
                    term = row[j] * minors[cols[:pos] + cols[pos + 1 :]]
                    total += -term if (k + pos) % 2 else term
            minors[cols] = total
    return minors


def draw_table(g, key):
    """One table for the units g, named by ``key``: ("rows", f, turn, support, depth) for the minors of L's first
    rows, ("columns", ...) for R's first columns, read from the last one back when ``turn`` is -1, and
    ("gram_columns", f, h) or ("gram_rows", f, h) for the (0, 0) entry of L_f^T L_h or R_f R_h^T."""
    kind, *args = key
    if kind == "rows":
        f, turn, support, depth = args
        return first_row_minors(g[f][1][::turn], support, depth)
    if kind == "columns":
        f, turn, support, depth = args
        return first_row_minors(list(zip(*g[f][3]))[::turn], support, depth)
    f, h = args
    a, b = (list(zip(*g[f][1])), list(zip(*g[h][1]))) if kind == "gram_columns" else (g[f][3], g[h][3])
    return {(0, 0): sum(map(mul, a[0], b[0]))}


def lowest_terms(real, forms, curve_label, trials, seed, kernel=draw_table):
    """Per form, its lowest term (e, c) on each seeded translate, ``None`` where it vanishes, read off the units of
    ``group_sampler`` with the tables ``kernel`` gives."""
    rng = random.Random(seed)
    units = [real.group_sampler(rng) for _ in range(trials)]
    plans = []
    for form in forms:
        if isinstance(form, Minor):
            x = real.monomial_entries(curve_label, form.arrow)
            rows, cols = tuple(e[0] for e in x), tuple(sorted(e[1] for e in x))
            (s, t), depth, turn = real.arrows[form.arrow], min(form.k, len(x)), -1 if form.trailing else 1
            plans.append((("rows", s, turn, rows, depth), ("columns", t, turn, cols, depth), minor_terms(x, form.k)))
        else:
            x, y = (real.monomial_entries(curve_label, a) for a in form.arrows)
            (sa, ta), (sb, tb) = (real.arrows[a] for a in form.arrows)
            plans.append((("gram_columns", sa, sb), ("gram_rows", ta, tb), pairing_terms(x, y)))
    lowest = [[] for _ in forms]
    for g in units:
        for (left_key, right_key, groups), form_terms in zip(plans, lowest):
            left, right, term = kernel(g, left_key), kernel(g, right_key), None
            for e, terms in groups:
                coefficient = sum(left[i] * c * right[j] for i, j, c in terms)
                if coefficient:
                    term = (e, coefficient)
                    break
            form_terms.append(term)
    return lowest
