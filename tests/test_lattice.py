import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from sphemb.lattice import (
    AbelianGroupPresentation,
    IntegerMatrix,
    cokernel,
    determinant,
    integer_inverse,
    rational_inverse,
    rational_rank,
    smith_normal_form,
    solve_integer,
    sparse_rank,
)


def _check_decomposition(a):
    snf = smith_normal_form(a)
    assert snf.U @ a @ snf.V == snf.D
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    assert snf.D.is_diagonal()
    diag = snf.D.diagonal()
    assert all(d >= 0 for d in diag)
    for x, y in zip(diag, diag[1:]):
        if x != 0:
            assert y % x == 0
        else:
            assert y == 0
    return snf


def test_snf_identity():
    a = IntegerMatrix.identity(2)
    snf = _check_decomposition(a)
    assert snf.D == a
    assert snf.U == IntegerMatrix.identity(2)
    assert snf.V == IntegerMatrix.identity(2)


def test_snf_2x2_derived():
    # d1 = gcd of all entries = 2, and d1*d2 = |det| = |2*8 - 4*6| = 8, so d2 = 4.
    a = IntegerMatrix.from_rows([[2, 4], [6, 8]])
    entries_gcd = math.gcd(2, math.gcd(4, math.gcd(6, 8)))
    assert entries_gcd == 2
    assert abs(determinant(a)) == 8
    snf = _check_decomposition(a)
    assert snf.D.diagonal() == (2, 4)


def test_snf_zero_matrix():
    a = IntegerMatrix.zeros(3, 3)
    snf = _check_decomposition(a)
    assert snf.D == a
    assert sparse_rank({j: x for j, x in enumerate(r) if x} for r in a.to_rows()) == 0


def test_snf_empty_dimensions():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        a = IntegerMatrix.zeros(rows, cols)
        snf = _check_decomposition(a)
        assert snf.D.rows == rows and snf.D.cols == cols
        assert cokernel(a).free_rank == cols


def test_apply_transpose_matches_transpose_apply():
    rng = random.Random(29)
    for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1), (4, 5), (6, 2)]:
        for _ in range(10):
            a = IntegerMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols=cols
            )
            vectors = [[0] * rows, [rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(rows)]]
            for v in vectors:
                assert a.apply_transpose(v) == a.transpose().apply(v)
    assert IntegerMatrix.zeros(0, 3).apply_transpose([]) == (0, 0, 0)
    assert IntegerMatrix.zeros(3, 0).apply_transpose([1, 2, 3]) == ()
    with pytest.raises(ValueError):
        IntegerMatrix.zeros(2, 3).apply_transpose([1, 2, 3])


def test_cokernel_trivial_and_torsion():
    assert cokernel(IntegerMatrix.identity(2)).is_trivial
    assert cokernel(IntegerMatrix.from_rows([[2]])) == AbelianGroupPresentation(0, (2,))


def test_cokernel_monoid_relation_matrix():
    # Relation matrix of the m=3 dilation monoid over generators
    # X_0, X_1, X_2, X_3, D_1, D_2; rows are the divisors of the four
    # basis characters.
    rows = [
        [1, 0, 0, 0, 1, 0],
        [1, 1, 0, 0, -1, 1],
        [1, 1, 1, 0, 0, -1],
        [0, 1, 1, 1, -1, 0],
    ]
    pres = cokernel(IntegerMatrix.from_rows(rows))
    assert pres.free_rank == 2
    assert pres.invariant_factors == ()


def test_presentation_validation():
    with pytest.raises(ValueError):
        AbelianGroupPresentation(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroupPresentation(0, (4, 2))
    with pytest.raises(ValueError):
        AbelianGroupPresentation(-1, ())


def test_solve_integer_examples():
    ident = IntegerMatrix.identity(3)
    assert solve_integer(ident, [5, -2, 7]) == (5, -2, 7)
    two = IntegerMatrix.from_rows([[2]])
    assert solve_integer(two, [3]) is None
    assert solve_integer(two, [4]) == (2,)
    with pytest.raises(ValueError):
        solve_integer(two, [1, 2])


def test_solve_integer_random_roundtrip():
    rng = random.Random(7)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = IntegerMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        )
        x = [rng.randint(-5, 5) for _ in range(cols)]
        b = a.apply(x)
        sol = solve_integer(a, b)
        assert sol is not None
        assert a.apply(sol) == b


def test_solve_integer_none_has_no_solution_bruteforce():
    rng = random.Random(11)
    checked = 0
    while checked < 20:
        a = IntegerMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        )
        b = (rng.randint(-4, 4), rng.randint(-4, 4))
        if solve_integer(a, b) is not None:
            continue
        for x0 in range(-30, 31):
            for x1 in range(-30, 31):
                assert a.apply((x0, x1)) != b
        checked += 1


def _minor_gcd(a, k):
    # gcd of all k x k minors: an independent route to d_1 ... d_k.
    best = 0
    for rows in combinations(range(a.rows), k):
        for cols in combinations(range(a.cols), k):
            sub = IntegerMatrix.from_rows([[a.entry(i, j) for j in cols] for i in rows])
            best = math.gcd(best, determinant(sub))
    return best


def test_invariant_factors_match_minor_gcds():
    rng = random.Random(23)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = IntegerMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        diag = smith_normal_form(a).D.diagonal()
        product = 1
        for k in range(1, min(rows, cols) + 1):
            product *= diag[k - 1]
            assert product == _minor_gcd(a, k)


def _random_unimodular(rng, n):
    # Product of elementary row operations applied to the identity.
    m = IntegerMatrix.identity(n).to_rows()
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += q * m[j][k]
    return IntegerMatrix.from_rows(m)


def test_invariant_factors_stable_under_unimodular_transforms():
    rng = random.Random(31)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = IntegerMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        left = _random_unimodular(rng, rows)
        right = _random_unimodular(rng, cols)
        assert smith_normal_form(a).D.diagonal() == smith_normal_form(left @ a @ right).D.diagonal()

        perm_rows = list(range(rows))
        perm_cols = list(range(cols))
        rng.shuffle(perm_rows)
        rng.shuffle(perm_cols)
        permuted = IntegerMatrix.from_rows(
            [[a.entry(i, j) for j in perm_cols] for i in perm_rows], cols=cols
        )
        assert smith_normal_form(a).D.diagonal() == smith_normal_form(permuted).D.diagonal()


def test_cokernel_ignores_duplicated_relation_rows():
    rng = random.Random(37)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        dup = data + [list(data[rng.randrange(rows)])]
        assert cokernel(IntegerMatrix.from_rows(data)) == cokernel(IntegerMatrix.from_rows(dup))


def test_snf_determinism():
    a = IntegerMatrix.from_rows([[6, 4, 2], [10, 4, 8]])
    assert smith_normal_form(a) == smith_normal_form(a)


def test_rational_helpers():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([]) == 0
    inv = rational_inverse([[2, 0], [1, 1]])
    assert inv == [[Fraction(1, 2), Fraction(0)], [Fraction(-1, 2), Fraction(1)]]
    with pytest.raises(ZeroDivisionError):
        rational_inverse([[1, 2], [2, 4]])


def _reference_rational_inverse(rows):
    # Gauss-Jordan elimination over Fraction, the inverse kernel before the
    # fraction-free one.
    n = len(rows)
    m = [[Fraction(e) for e in r] + [Fraction(i == j) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [e * inv for e in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [e - f * p for e, p in zip(m[i], m[col])]
    return [r[n:] for r in m]


def test_integer_inverse_matches_fraction_elimination():
    rng = random.Random(23)
    cases = [[], [[0]], [[-7]], [[0, 1], [1, 0]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[1, 2], [2, 4]],
             [[0, 0, 1], [0, 0, 2], [1, 1, 1]], [[2, 1], [1, 1]], [[-3, 0], [0, 5]]]
    for _ in range(300):
        n = rng.randint(1, 5)
        cases.append([[rng.choice((0, rng.randint(-9, 9), rng.randint(-999, 999))) for _ in range(n)] for _ in range(n)])
    singular = 0
    for rows in cases:
        got = integer_inverse(rows)
        try:
            want = _reference_rational_inverse(rows)
        except ZeroDivisionError:
            assert got is None, rows
            singular += 1
            continue
        d, x = got
        assert type(d) is int and d > 0, rows
        assert all(type(e) is int for r in x for e in r)
        assert [[Fraction(e, d) for e in r] for r in x] == want, rows
        # d is |det M|, so M X = d I with X the adjugate up to sign
        n = len(rows)
        assert d == abs(_cofactor_determinant(rows))
        assert [[sum(rows[i][k] * x[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == [
            [d * (i == j) for j in range(n)] for i in range(n)
        ]
    assert singular >= 3
    assert integer_inverse([]) == (1, [])
    assert integer_inverse([[0, 1], [1, 0]]) == (1, [[0, 1], [1, 0]])
    assert integer_inverse([[-2]]) == (2, [[-1]])


@pytest.mark.parametrize("bad", [Fraction(1), 1.0, "1", None])
@pytest.mark.parametrize("position", [0, 4, 8])
def test_integer_matrix_names_the_first_non_integer_entry(bad, position):
    entries = list(range(1, 10))
    entries[position] = bad
    with pytest.raises(TypeError) as caught:
        IntegerMatrix(3, 3, tuple(entries))
    assert str(caught.value) == f"non-integer entry {bad!r}"
    # A later offender, of another type or of the same type, is not the one named.
    for later in (None, 2.5, "2"):
        if position < 8:
            entries[8] = later
            with pytest.raises(TypeError) as caught:
                IntegerMatrix(3, 3, tuple(entries))
            assert str(caught.value) == f"non-integer entry {bad!r}"


def test_integer_matrix_accepts_bool_and_int_subclass_entries():
    class Small(int):
        pass

    m = IntegerMatrix(2, 2, (True, False, Small(3), 4))
    assert m.entries == (1, 0, 3, 4) and m.row(0) == (True, False)
    assert IntegerMatrix.from_rows([[True, 2]]).entries == (1, 2)
    assert IntegerMatrix(0, 3, ()).entries == ()


def _reference_rational_rank(rows) -> int:
    # Gauss-Jordan elimination over Fraction, the rank kernel before the
    # fraction-free one.
    m = [[Fraction(e) for e in r] for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [e * inv for e in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [e - f * p for e, p in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def _random_rational_matrix(rng, rows, cols, rank):
    """A rows x cols matrix of rank at most ``rank``, a product through ``rank`` columns, with denominators."""
    if not rank:
        return [[0] * cols for _ in range(rows)]
    u = [[Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 7))) for _ in range(rank)] for _ in range(rows)]
    v = [[Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 5))) for _ in range(cols)] for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*v)] for row in u]


def test_rational_rank_matches_fraction_elimination():
    rng = random.Random(17)
    seen = set()
    for _ in range(600):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.randint(0, min(rows, cols) + 1)
        m = _random_rational_matrix(rng, rows, cols, rank)
        if rng.random() < 0.3:
            # a sparse matrix of small entries, like the Lie-algebra rows
            m = [[rng.choice((0, 0, 0, 1, -1, Fraction(1, 2))) for _ in range(cols)] for _ in range(rows)]
        got = rational_rank(m)
        assert got == _reference_rational_rank(m), m
        seen.add((rows > cols, rows < cols, got < min(rows, cols)))
    # tall, wide and square, each at full rank and rank-deficient
    assert seen >= {(True, False, True), (True, False, False), (False, True, True), (False, True, False),
                    (False, False, True), (False, False, False)}
    for m in ([], [[]], [[], []], [[0, 0], [0, 0]], [[Fraction(1, 3)]], [[Fraction(2, 3), Fraction(1, 6)], [4, 1]],
              [[0, Fraction(1, 2), 1], [0, 1, 2], [0, 0, Fraction(5, 7)]], [[1, 2, 3]], [[1], [2], [Fraction(-1, 2)]]):
        assert rational_rank(m) == _reference_rational_rank(m), m
    assert rational_rank([[Fraction(2, 3), Fraction(1, 6)], [4, 1]]) == 1
    assert rational_rank([[0, Fraction(1, 2), 1], [0, 1, 2], [0, 0, Fraction(5, 7)]]) == 2


def _dense_lie_rows(real, point) -> list[list[int]]:
    """``real.tangent_rows(point)`` as dense integer rows: the arrows' entries numbered row-major, arrow by arrow."""
    width = sum(math.prod(x.shape) for x in point)
    return [[row.get(col, 0) for col in range(width)] for row in real.tangent_rows(point)]


def _oracle_lie_rows():
    """(spec, point, rows): the Lie rows the oracle ranks, at each grid member's base point and curve limits."""
    from sphemb.families import admissible_circular_parameters, build_family
    from sphemb.oracle import limit_signature

    specs = [f"monoid:m={m}" for m in range(1, 5)]
    specs += [f"circular:m={m},n={n},r={r},s={s}" for m, n, r, s in admissible_circular_parameters(5, 7)]
    specs += [f"determinantal:m={m},n={n},r={r}" for m in range(2, 6) for n in range(2, 6) for r in range(1, min(m, n))]
    specs += [
        f"complexes:l=1,m={m},n={n},r={r},s={s}"
        for m in range(3) for n in range(3) for r in range(2) for s in range(n + 1) if r + s <= m
    ]
    for spec in specs:
        real = build_family(spec).realization
        yield spec, "base", _dense_lie_rows(real, real.base_point)
        for c in real.curves:
            yield spec, c.label, _dense_lie_rows(real, limit_signature(real, c.label).limit_point)


def test_rational_rank_on_the_oracle_lie_rows():
    # The shapes orbit_dimension sends: mostly zero integer rows, up to 74 x 70
    # at circular:5,7,2,2, where the random cases above stop at 7 x 7.
    shapes = set()
    members = set()
    for spec, point, rows in _oracle_lie_rows():
        assert rational_rank(rows) == _reference_rational_rank(rows), (spec, point)
        shapes.add((len(rows), len(rows[0])))
        members.add(spec.partition(":")[0])
    assert members == {"monoid", "circular", "determinantal", "complexes"}
    assert (74, 70) in shapes


def _cofactor_determinant(rows) -> int:
    # Laplace expansion along the first row: no pivots, no swaps, no division.
    if not rows:
        return 1
    return sum(
        (-1) ** j * e * _cofactor_determinant([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, e in enumerate(rows[0])
        if e
    )


def test_determinant_matches_cofactor_expansion():
    cases = [
        [],
        [[0]],
        [[-7]],
        [[0, 1], [1, 0]],  # zero leading pivot, one swap
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],  # two swaps
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],  # one swap, at the first column only
        [[0, 2, 1], [3, 0, 0], [1, 1, 0]],
        [[0, 0], [0, 1]],  # no pivot in the first column
        [[0, 2], [0, 3]],
        [[1, 2], [2, 4]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[0, 0, 1], [0, 0, 2], [1, 1, 1]],  # no pivot in the second column
        [[2, 1, 1, 3], [4, 2, 5, 1], [6, 3, 1, 2], [8, 5, 2, 7]],  # zero pivot after the first step
    ]
    rng = random.Random(41)
    for _ in range(300):
        # sparse n x n matrices, and products through k <= n columns (singular when k < n)
        n, k = rng.randint(1, 5), rng.randint(0, 5)
        if k >= n:
            cases.append([[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)])
            continue
        u = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        v = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        cases.append([[sum(u[i][t] * v[t][j] for t in range(k)) for j in range(n)] for i in range(n)])
    values = set()
    for rows in cases:
        want = _cofactor_determinant(rows)
        assert determinant(IntegerMatrix.from_rows(rows, cols=len(rows))) == want, rows
        values.add((want > 0) - (want < 0))
    assert values == {-1, 0, 1}
    assert determinant(IntegerMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert determinant(IntegerMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) == 1
    with pytest.raises(ValueError):
        determinant(IntegerMatrix.zeros(2, 3))

