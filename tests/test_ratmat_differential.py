"""Differential tests: the exact kernels of `ratmat` against sympy.

Inputs are seeded random sparse matrices (5-50% nonzeros, shapes up to
12x12, zero-row and zero-column shapes included), the regime the assembly
produces, and seeded integer matrices of 20x30 and 40x60 with three
nonzeros per row from {-2, -1, 1, 2, 3}, where the pivot rule's tie-breaks
and fill-in show.  Results must not depend on the order of the rows.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from resolvedk.ratmat import (  # noqa: E402
    QuotientSpace,
    RationalMatrix,
    nullspace_basis,
    rank,
    rref,
    solve,
)

SEEDS = range(40)


def _entry(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))


def _sparse(rng, m, n, density=None):
    density = rng.uniform(0.05, 0.5) if density is None else density
    return RationalMatrix(
        [[_entry(rng) if rng.random() < density else Fraction(0) for _ in range(n)] for _ in range(m)],
        ncols=n,
    )


def _shape(rng):
    return 0 if rng.random() < 0.1 else rng.randint(1, 12)


def _sym(mat):
    return sympy.Matrix(mat.nrows, mat.ncols, [
        sympy.Rational(x.numerator, x.denominator) for row in mat.to_lists() for x in row
    ])


def _vec(rng, n, density=0.5):
    return tuple(_entry(rng) if rng.random() < density else Fraction(0) for _ in range(n))


def _back(sym_mat):
    return [[Fraction(int(x.p), int(x.q)) for x in sym_mat.row(i)] for i in range(sym_mat.rows)]


def _column_basis(mat):
    _, pivots = rref(mat)
    return [mat.column(j) for j in pivots]


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_and_apply_match_sympy(seed):
    rng = random.Random(seed)
    m, k, n = _shape(rng), _shape(rng), _shape(rng)
    a, b = _sparse(rng, m, k), _sparse(rng, k, n)
    prod = a @ b
    assert prod.shape == (m, n)
    assert prod.to_lists() == _back(_sym(a) * _sym(b))
    vec = _vec(rng, k)
    want = _sym(a) * sympy.Matrix(k, 1, [sympy.Rational(x.numerator, x.denominator) for x in vec])
    assert list(a.apply(vec)) == [row[0] for row in _back(want)]


@pytest.mark.parametrize("seed", SEEDS)
def test_rref_rank_and_nullspace_match_sympy(seed):
    rng = random.Random(seed)
    mat = _sparse(rng, _shape(rng), _shape(rng))
    red, pivots = rref(mat)
    sym_red, sym_pivots = _sym(mat).rref()
    assert red.to_lists() == _back(sym_red)
    assert pivots == tuple(sym_pivots)
    assert rank(mat) == _sym(mat).rank()
    null = nullspace_basis(mat).columns()
    assert len(null) == len(_sym(mat).nullspace()) == mat.ncols - rank(mat)
    for v in null:
        assert not any(mat.apply(v))
    if null:
        assert rank(RationalMatrix(null)) == len(null)


@pytest.mark.parametrize("seed", SEEDS)
def test_inverse_matches_sympy(seed):
    # over the zero subspace of a square matrix, quotient coordinates are the inverse
    rng = random.Random(seed)
    n = rng.randint(0, 12)
    # a dense diagonal keeps most draws invertible; the rest must be refused
    mat = _sparse(rng, n, n) + RationalMatrix(
        [[_entry(rng) if i == j and rng.random() < 0.9 else Fraction(0) for j in range(n)]
         for i in range(n)], ncols=n,
    )
    if _sym(mat).det() == 0:
        with pytest.raises(ValueError):
            QuotientSpace(RationalMatrix.zeros(n, 0), mat)
        return
    q = QuotientSpace(RationalMatrix.zeros(n, 0), mat)
    assert q.representatives == mat
    inv = q.coords(RationalMatrix.identity(n))
    assert inv.to_lists() == _back(_sym(mat).inv())


@pytest.mark.parametrize("seed", SEEDS)
def test_quotient_space_matches_sympy(seed):
    rng = random.Random(seed)
    n = _shape(rng)
    # Z: independent columns; B: a basis of the span of sparse combinations of them
    z = _sparse(rng, n, rng.randint(0, n), rng.uniform(0.2, 0.5))
    z = RationalMatrix.from_columns(_column_basis(z), nrows=n)
    combos = _sparse(rng, z.ncols, rng.randint(0, z.ncols), rng.uniform(0.2, 0.5))
    b = RationalMatrix.from_columns(_column_basis(z @ combos), nrows=n)
    q = QuotientSpace(b, z)
    assert q.dim == _sym(z).rank() - _sym(b).rank() == q.representatives.ncols
    assert q.coords(b).is_zero()
    assert q.coords(q.representatives) == RationalMatrix.identity(q.dim)
    u, v = (z.apply(_vec(rng, z.ncols)) for _ in range(2))
    s = _entry(rng)
    cu, cv, cw = q.coords(
        RationalMatrix.from_columns([u, v, tuple(x + s * y for x, y in zip(u, v))], nrows=n)
    ).columns()
    assert cw == tuple(x + s * y for x, y in zip(cu, cv))
    if z.ncols < n:
        outside = next(e for e in RationalMatrix.identity(n).columns()
                       if _sym(z).row_join(sympy.Matrix(n, 1, list(e))).rank() > z.ncols)
        with pytest.raises(ValueError):
            q.coords(RationalMatrix.from_columns([outside]))


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_solve_matches_sympy_and_single_columns(seed):
    rng = random.Random(seed)
    m, n = _shape(rng), _shape(rng)
    mat = _sparse(rng, m, n)
    sym_mat = _sym(mat)
    batch = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            batch.append(mat.apply(_vec(rng, n)))  # consistent by construction
        else:
            batch.append(_vec(rng, m))
    got = solve(mat, batch)
    assert len(got) == len(batch)
    for b, x in zip(batch, got):
        sym_b = sympy.Matrix(m, 1, [sympy.Rational(y.numerator, y.denominator) for y in b])
        consistent = sym_mat.row_join(sym_b).rank() == sym_mat.rank()
        assert (x is not None) == consistent
        if x is not None:
            assert mat.apply(x) == b
        assert solve(mat, [b]) == [x]


SPARSE_SEEDS = range(6)
SPARSE_SHAPES = [(20, 30), (40, 60)]


def _sparse_ints(rng, m, n):
    """An m x n integer matrix with three nonzeros per row from {-2, -1, 1, 2, 3}."""
    rows = [[0] * n for _ in range(m)]
    for row in rows:
        for j in rng.sample(range(n), 3):
            row[j] = rng.choice((-2, -1, 1, 2, 3))
    return RationalMatrix(rows, ncols=n)


def _deficient(rng, m, n):
    """m sparse rows followed by m // 2 sparse combinations of them."""
    wide = _sparse_ints(rng, m, n)
    return RationalMatrix(wide.to_lists() + (_sparse_ints(rng, m // 2, m) @ wide).to_lists(), ncols=n)


def _sub_and_span(rng, m, n):
    """A basis of a span of m sparse vectors in Q^n, and of a subspace of it."""
    z = RationalMatrix.from_columns(_column_basis(_sparse_ints(rng, m, n).transpose()), nrows=n)
    combos = _sparse_ints(rng, m // 2, z.ncols).transpose()
    return RationalMatrix.from_columns(_column_basis(z @ combos), nrows=n), z


@pytest.mark.parametrize("shape", SPARSE_SHAPES, ids=["20x30", "40x60"])
@pytest.mark.parametrize("seed", SPARSE_SEEDS)
def test_sparse_elimination_matches_sympy(seed, shape):
    rng = random.Random(seed)
    wide = _sparse_ints(rng, *shape)
    for mat in (wide, wide.transpose(), _deficient(rng, *shape)):
        red, pivots = rref(mat)
        sym_red, sym_pivots = _sym(mat).rref()
        assert red.to_lists() == _back(sym_red)
        assert pivots == tuple(sym_pivots)
        assert rank(mat) == len(sym_pivots)
        null = nullspace_basis(mat).columns()
        assert null == tuple(tuple(v) for v in _sym(mat).nullspace())


@pytest.mark.parametrize("shape", SPARSE_SHAPES, ids=["20x30", "40x60"])
@pytest.mark.parametrize("seed", SPARSE_SEEDS)
def test_sparse_quotient_space_matches_sympy(seed, shape):
    rng = random.Random(seed)
    m, n = shape
    b, z = _sub_and_span(rng, m, n)
    q = QuotientSpace(b, z)
    assert q.dim == len(_sym(z).rref()[1]) - len(_sym(b).rref()[1]) == q.representatives.ncols
    assert q.coords(b).is_zero()
    assert q.coords(q.representatives) == RationalMatrix.identity(q.dim)
    # coordinates in the basis [b | representatives], solved by sympy
    basis = _sym(b).row_join(_sym(q.representatives))
    vecs = [z.apply(_vec(rng, z.ncols)) for _ in range(3)]
    for v, got in zip(vecs, q.coords(RationalMatrix.from_columns(vecs)).columns()):
        sol, params = basis.gauss_jordan_solve(_sym(RationalMatrix.from_columns([v])))
        assert params.rows == 0
        assert list(got) == [row[0] for row in _back(sol)][b.ncols:]
    outside = next(e for e in RationalMatrix.identity(n).columns()
                   if _sym(z).row_join(sympy.Matrix(n, 1, list(e))).rank() > z.ncols)
    with pytest.raises(ValueError):
        q.coords(RationalMatrix.from_columns([outside]))


@pytest.mark.parametrize("seed", SPARSE_SEEDS)
def test_results_do_not_depend_on_row_order(seed):
    rng = random.Random(seed)
    a = _deficient(rng, 20, 30)
    perm = rng.sample(range(a.nrows), a.nrows)
    pa = a.submatrix(perm)
    assert rref(pa) == rref(a)
    batch = [a.apply(_vec(rng, a.ncols)), _vec(rng, a.nrows)]  # consistent, then most likely not
    assert solve(pa, [[b[i] for i in perm] for b in batch]) == solve(a, batch)
    # permuting the ambient coordinates permutes the rows of the elimination
    sub, span = _sub_and_span(rng, 20, 30)
    amb = rng.sample(range(30), 30)
    moved = QuotientSpace(sub.submatrix(amb), span.submatrix(amb))
    vecs = RationalMatrix.from_columns([span.apply(_vec(rng, span.ncols)) for _ in range(3)])
    assert moved.coords(vecs.submatrix(amb)) == QuotientSpace(sub, span).coords(vecs)
