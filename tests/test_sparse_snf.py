"""The sparse Smith normal form and generator choice against their dense references.

``snf_reference`` keeps the dense row-major versions verbatim.  The sparse
ones must give byte-identical U, V and D, the same picks and the same T, on
random matrices and on every family relation matrix up to a size.
"""

import hashlib
import inspect
import json
import sys

from snf_reference import dense_smith_normal_form
from sphemb.divisor_model import _relation_matrix, class_group_data
from sphemb.families import admissible_circular_parameters, build_family
from sphemb.lattice import IntegerMatrix, determinant, smith_normal_form


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is a test-only dependency
    given = None


def _check_snf(a: IntegerMatrix):
    """U, V and D are those of the dense reference, and U A V = D with U and V unimodular."""
    snf = smith_normal_form(a)
    assert repr(snf) == repr(dense_smith_normal_form(a))
    assert snf.U @ a @ snf.V == snf.D
    assert abs(determinant(snf.U)) == abs(determinant(snf.V)) == 1


def _lines_of(func, texts: dict[str, str]) -> dict[int, str]:
    """The line number in ``func``'s file of each text of ``texts``, mapped to its name."""
    lines, start = inspect.getsourcelines(func)
    out = {}
    for name, text in texts.items():
        (offset,) = [k for k, line in enumerate(lines) if text in line]
        out[start + offset] = name
    return out


# Lines of the sparse SNF that only some inputs reach.
_PATH_LINES = _lines_of(smith_normal_form, {
    "divisibility scan": "offender = next(",
    "offender fold": "sparse_addmul(pivot_row, d[offender], 1)",
    "sign flip": "u[t] = {k: -x",
})


def _paths_reached(run) -> set[str]:
    """The paths of ``_PATH_LINES`` that one call of ``run()`` takes inside ``smith_normal_form``."""
    code = smith_normal_form.__code__
    reached = set()

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in _PATH_LINES:
            reached.add(_PATH_LINES[frame.f_lineno])
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return reached


def test_snf_paths_on_small_examples():
    cases = {
        # 2 does not divide 3: the row of 3 is folded into the pivot row.
        "offender fold": [[2, 0], [0, 3]],
        "sign flip": [[-2]],
        # A pivot of 2 that divides the rest of the block.
        "divisibility scan": [[2, 4], [6, 8]],
    }
    for path, rows in cases.items():
        a = IntegerMatrix.from_rows(rows)
        assert path in _paths_reached(lambda: smith_normal_form(a))
        _check_snf(a)
    assert smith_normal_form(IntegerMatrix.from_rows([[-2]])).U == IntegerMatrix.from_rows([[-1]])


if given is not None:

    @st.composite
    def _matrices(draw):
        """Matrices up to 8 x 8, 0 x n and n x 0 included, with entries in -9..9 at any density.

        A drawn share of the entries is zero, and up to two whole rows and
        two whole columns are zeroed on top of that.
        """
        rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
        zeros = draw(st.integers(0, 10))
        cells = st.tuples(st.integers(-9, 9), st.integers(1, 10))
        m = [[e if k > zeros else 0 for e, k in draw(st.lists(cells, min_size=cols, max_size=cols))]
             for _ in range(rows)]
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)) if rows else ():
            m[i] = [0] * cols
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)) if cols else ():
            for r in m:
                r[j] = 0
        return IntegerMatrix.from_rows(m, cols=cols)

    def test_sparse_snf_matches_the_dense_reference():
        reached = set()

        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @given(_matrices())
        def check(a):
            reached.update(_paths_reached(lambda: smith_normal_form(a)))
            _check_snf(a)

        check()
        # The drawn matrices reach every path that only some inputs take.
        assert reached == set(_PATH_LINES.values())


# ---------------------------------------------------------------------------
# Every family relation matrix up to a size.


def _family_models():
    for m in range(1, 41):
        yield f"monoid:m={m}", build_family(f"monoid:m={m}").model
    for p in admissible_circular_parameters(5, 7):
        yield f"circular:{p}", build_family("circular:m={},n={},r={},s={}".format(*p)).model
    for m in range(1, 6):
        for n in range(1, 6):
            for r in range(1, min(m, n)):
                spec = f"determinantal:m={m},n={n},r={r}"
                yield spec, build_family(spec).model


# sha256 of the generators and the generator-matrix inverses of every model
# of ``_family_models``, as the dense SNF and generator choice gave them.
_GENERATORS_DIGEST = "555b4e11142aefd553d257598cd57c93d1caf098e71cbad7ec351b730a2895ff"


def test_family_relation_matrices_match_the_dense_reference():
    record = []
    for name, model in _family_models():
        rel = _relation_matrix(model)
        assert repr(smith_normal_form(rel)) == repr(dense_smith_normal_form(rel))
        data = class_group_data(model)
        record.append([name, data.generators, data._gen_inverse])
    text = json.dumps(record, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == _GENERATORS_DIGEST
