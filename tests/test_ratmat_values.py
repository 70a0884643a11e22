"""The value rule of `ratmat` against sympy.

An exact entry is an `int` when it is integral and a `Fraction` only when it
is not.  Hypothesis draws matrices mixing ints, proper fractions and
`Fraction`s with denominator 1, with pivots that are rarely one, so that
division, cancellation and normalization all occur.  Every kernel must agree
with sympy, and no result may hold a `float` or a `Fraction` with
denominator 1.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from resolvedk.ratmat import (  # noqa: E402
    QuotientSpace,
    RationalMatrix,
    nullspace_basis,
    rref,
    solve,
)

ENTRIES = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
)
SHAPES = st.integers(0, 5)


@st.composite
def matrices(draw, nrows=SHAPES, ncols=SHAPES):
    m, n = draw(nrows), draw(ncols)
    rows = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=m, max_size=m))
    return RationalMatrix(rows, ncols=n)


def _exact(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _stored_exactly(mat: RationalMatrix) -> bool:
    return all(_exact(x) for _, _, x in mat.entries())


def _sym(mat):
    return sympy.Matrix(mat.nrows, mat.ncols, [
        sympy.Rational(x.numerator, x.denominator) for row in mat.to_lists() for x in row
    ])


def _sym_vec(vec):
    return sympy.Matrix(len(vec), 1, [sympy.Rational(x.numerator, x.denominator) for x in vec])


def _back(sym_mat):
    return [[Fraction(int(x.p), int(x.q)) for x in sym_mat.row(i)] for i in range(sym_mat.rows)]


SETTINGS = settings(max_examples=80, deadline=None)


@SETTINGS
@given(st.data())
def test_products_sums_and_scalings_match_sympy(data):
    a = data.draw(matrices())
    b = data.draw(matrices(nrows=st.just(a.ncols)))
    c = data.draw(matrices(nrows=st.just(a.nrows), ncols=st.just(a.ncols)))
    s = data.draw(ENTRIES)
    vec = data.draw(st.lists(ENTRIES, min_size=a.ncols, max_size=a.ncols))
    assert _stored_exactly(a)
    for got, want in [
        (a @ b, _sym(a) * _sym(b)),
        (a + c, _sym(a) + _sym(c)),
        (a - c, _sym(a) - _sym(c)),
        (a * s, _sym(a) * sympy.Rational(s.numerator, s.denominator)),
    ]:
        assert got.to_lists() == _back(want)
        assert _stored_exactly(got)
    applied = a.apply(vec)
    assert list(applied) == [row[0] for row in _back(_sym(a) * _sym_vec(vec))]
    assert all(map(_exact, applied))
    assert all(map(_exact, a.row(0) if a.nrows else ()))
    assert all(_exact(x) for col in a.columns() for x in col)


@SETTINGS
@given(matrices())
def test_rref_and_nullspace_match_sympy(mat):
    red, pivots = rref(mat)
    sym_red, sym_pivots = _sym(mat).rref()
    assert red.to_lists() == _back(sym_red)
    assert pivots == tuple(sym_pivots)
    null = nullspace_basis(mat)
    assert null.columns() == tuple(tuple(row[0] for row in _back(v)) for v in _sym(mat).nullspace())
    assert _stored_exactly(red) and _stored_exactly(null)


@SETTINGS
@given(st.data())
def test_solve_matches_sympy(data):
    mat = data.draw(matrices())
    m, n = mat.shape
    batch = []
    for x in data.draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), max_size=3)):
        batch.append(mat.apply(x))
    batch += data.draw(st.lists(st.lists(ENTRIES, min_size=m, max_size=m), max_size=3))
    _, pivots = rref(mat)
    for b, x in zip(batch, solve(mat, batch)):
        sym_b = _sym_vec(b)
        consistent = _sym(mat).row_join(sym_b).rank() == _sym(mat).rank()
        assert (x is not None) == consistent
        if x is None:
            continue
        assert all(map(_exact, x))
        assert _sym(mat) * _sym_vec(x) == sym_b
        assert all(x[j] == 0 for j in range(n) if j not in pivots)


@SETTINGS
@given(st.data())
def test_quotient_space_matches_sympy(data):
    mat = data.draw(matrices(nrows=st.integers(1, 5)))
    n = mat.nrows
    # span: independent columns; sub: a basis of the span of some combinations
    span = mat.submatrix(range(n), rref(mat)[1])
    combos = data.draw(matrices(nrows=st.just(span.ncols)))
    image = span @ combos
    sub = image.submatrix(range(n), rref(image)[1])
    q = QuotientSpace(sub, span)
    assert q.dim == _sym(span).rank() - _sym(sub).rank()
    assert _stored_exactly(q.representatives)
    basis = _sym(sub).row_join(_sym(q.representatives))
    coeffs = data.draw(st.lists(ENTRIES, min_size=span.ncols, max_size=span.ncols))
    vecs = [span.apply(coeffs)] + list(span.columns())
    for v, got in zip(vecs, q.coords(RationalMatrix.from_columns(vecs)).columns()):
        assert all(map(_exact, got))
        sol, params = basis.gauss_jordan_solve(_sym_vec(v))
        assert params.shape[0] == 0
        assert list(got) == [row[0] for row in _back(sol[sub.ncols:, :])]
