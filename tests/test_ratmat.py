import random
from fractions import Fraction

import pytest

from resolvedk.ratmat import (
    QuotientSpace,
    RationalMatrix,
    nullspace_basis,
    rank,
    rref,
    solve,
)


def _random_rat(rng, m, n, den=4):
    return RationalMatrix(
        [
            [Fraction(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(n)]
            for _ in range(m)
        ]
    )


def test_rref_idempotent_and_rank():
    rng = random.Random(5)
    for _ in range(30):
        mat = _random_rat(rng, rng.randint(1, 5), rng.randint(1, 5))
        red, pivots = rref(mat)
        red2, pivots2 = rref(red)
        assert red == red2 and pivots == pivots2
        assert rank(mat) == len(pivots)


def test_nullspace_annihilates_and_dimension():
    rng = random.Random(6)
    for _ in range(30):
        mat = _random_rat(rng, rng.randint(1, 5), rng.randint(1, 5))
        null = nullspace_basis(mat).columns()
        assert len(null) == mat.ncols - rank(mat)
        for v in null:
            assert all(x == 0 for x in mat.apply(v))


def test_solve_roundtrip():
    rng = random.Random(7)
    for _ in range(30):
        mat = _random_rat(rng, rng.randint(1, 5), rng.randint(1, 5))
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(mat.ncols)]
        b = mat.apply(x)
        (sol,) = solve(mat, [b])
        assert sol is not None
        assert mat.apply(sol) == b


def test_solve_inconsistent():
    mat = RationalMatrix([[1, 0], [1, 0]])
    assert solve(mat, [[1, 2]]) == [None]
    assert solve(mat, [[3, 3], [1, 2], [0, 0]]) == [
        (Fraction(3), Fraction(0)), None, (Fraction(0), Fraction(0))
    ]
    assert solve(mat, []) == []
    with pytest.raises(ValueError):
        solve(mat, [[1, 2, 3]])


def _coords(q, vecs):
    """`q.coords` of a batch given and read back as lists of columns."""
    batch = RationalMatrix.from_columns(vecs, nrows=q.representatives.nrows)
    return list(q.coords(batch).columns())


def test_quotient_space():
    # span(span) is the plane z = 0; sub is the line through (1, 1, 0)
    sub = RationalMatrix.from_columns([[1, 1, 0]], nrows=3)
    span = RationalMatrix.from_columns([[1, 0, 0], [1, 1, 0]], nrows=3)
    q = QuotientSpace(sub, span)
    assert q.dim == 1
    # the first span column independent of sub represents the class
    assert q.representatives == RationalMatrix.from_columns([[1, 0, 0]], nrows=3)
    assert _coords(q, [[1, 0, 0], [2, 2, 0], [0, 1, 0], [3, 1, 0]]) == [
        (Fraction(1),), (Fraction(0),), (Fraction(-1),), (Fraction(2),)
    ]
    assert _coords(q, []) == []
    with pytest.raises(ValueError, match="not in the span"):
        _coords(q, [[0, 0, 1]])


def test_quotient_coords_are_one_product_per_batch(monkeypatch):
    # the batch is stacked into one matrix: no per-vector apply, and one
    # product each for the span check and the coordinates
    applied, products = [], []
    original_matmul = RationalMatrix.__matmul__

    def counting_matmul(a, b):
        products.append(b.ncols)
        return original_matmul(a, b)

    monkeypatch.setattr(RationalMatrix, "apply", lambda *args: applied.append(args))
    monkeypatch.setattr(RationalMatrix, "__matmul__", counting_matmul)
    sub = RationalMatrix.from_columns([[1, 1, 0]], nrows=3)
    span = RationalMatrix.from_columns([[1, 0, 0], [1, 1, 0]], nrows=3)
    q = QuotientSpace(sub, span)
    assert _coords(q, [[1, 0, 0], [2, 2, 0], [3, 1, 0]]) == [(1,), (0,), (2,)]
    assert applied == [] and products == [3, 3]
    with pytest.raises(ValueError, match="not in the span"):
        _coords(q, [[1, 0, 0], [0, 0, 1]])


def test_quotient_space_rejects_dependent_sub_basis():
    span = RationalMatrix.from_columns([[1, 0, 0], [0, 1, 0]], nrows=3)
    with pytest.raises(ValueError, match="dependent"):
        QuotientSpace(RationalMatrix.from_columns([[1, 1, 0], [2, 2, 0]], nrows=3), span)
    with pytest.raises(ValueError, match="not inside"):
        QuotientSpace(RationalMatrix.from_columns([[0, 0, 1]], nrows=3), span)
    eye = RationalMatrix.identity(2)
    full = QuotientSpace(eye, eye)
    assert full.dim == 0 and _coords(full, [[3, 4]]) == [()]
    assert full.representatives.shape == (2, 0)


def test_empty_shapes():
    z = RationalMatrix.zeros(0, 3)
    assert rank(z) == 0
    assert len(nullspace_basis(z).columns()) == 3
    z2 = RationalMatrix.zeros(3, 0)
    assert rank(z2) == 0
    assert solve(z2, [[0, 0, 0], [1, 0, 0]]) == [(), None]


def test_sparse_rows_are_canonical():
    # the same matrix reached from dense rows with zeros, from columns, from
    # row maps with explicit zeros and from products stores the same rows
    rng = random.Random(11)
    for _ in range(40):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        dense = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4
             else rng.choice([0, Fraction(0)]) for _ in range(n)]
            for _ in range(m)
        ]
        a = RationalMatrix(dense, ncols=n)
        same = [
            RationalMatrix.from_columns([[row[j] for row in dense] for j in range(n)], nrows=m),
            RationalMatrix.from_row_maps([dict(enumerate(row)) for row in dense], n),
            a @ RationalMatrix.identity(n),
            RationalMatrix.identity(m) @ a,
            a + RationalMatrix.zeros(m, n),
            a - a + a,
            (a * 3) * Fraction(1, 3),
            a.transpose().transpose(),
            a.submatrix(range(m), range(n)),
        ]
        for other in same:
            assert other == a and hash(other) == hash(a)
        for mat in [a] + same:
            assert mat._rows == tuple(map(tuple, mat.to_lists()))
            assert all(x for _, _, x in mat.entries())
    cancel = RationalMatrix([[1, 1]]) @ RationalMatrix([[1], [-1]])
    assert cancel == RationalMatrix.zeros(1, 1) and cancel.is_zero()
    # built from ints or from the equal Fractions, a matrix is the same one,
    # and an integral entry is stored as an int however it was reached
    ints = [[2, 0, -1], [0, 3, 0]]
    fracs = [[Fraction(x) for x in row] for row in ints]
    for a, b in [
        (RationalMatrix(ints), RationalMatrix(fracs)),
        (RationalMatrix.from_columns(list(zip(*ints))), RationalMatrix.from_columns(list(zip(*fracs)))),
        (RationalMatrix([[1]]), RationalMatrix([[Fraction(1, 2)]]) @ RationalMatrix([[2]])),
        (RationalMatrix([[1, 3]]), RationalMatrix([[Fraction(1, 2), Fraction(5, 2)]])
         + RationalMatrix([[Fraction(1, 2), Fraction(1, 2)]])),
        (RationalMatrix([[2, 1]]), RationalMatrix([[Fraction(2, 3), Fraction(1, 3)]]) * 3),
        (RationalMatrix.identity(2), RationalMatrix([[2, 0], [0, 4]]) * Fraction(1, 2)
         @ RationalMatrix([[1, 0], [0, Fraction(1, 2)]])),
    ]:
        assert a == b and hash(a) == hash(b)
        assert all(type(x) is int for _, _, x in b.entries())
    assert RationalMatrix([[1, 2]]) - RationalMatrix([[1, 2]]) == RationalMatrix.zeros(1, 2)


def test_every_entry_is_type_checked():
    with pytest.raises(TypeError):
        RationalMatrix([[1, 0.0]])
    with pytest.raises(TypeError):
        RationalMatrix.from_columns([[0, 0.0]])
    with pytest.raises(TypeError):
        RationalMatrix.from_row_maps([{0: 0.0}], 1)
    with pytest.raises(ValueError):
        RationalMatrix([[1, 0], [1]])
    with pytest.raises(ValueError):
        RationalMatrix.from_row_maps([{2: 1}], 2)


def test_from_columns_rejects_a_disagreeing_nrows():
    # an nrows that disagrees with the columns is refused, not overridden
    with pytest.raises(ValueError, match="nrows disagrees"):
        RationalMatrix.from_columns([[1, 2]], nrows=3)
    assert RationalMatrix.from_columns([[1, 2]], nrows=2).shape == (2, 1)
    assert RationalMatrix.from_columns([], nrows=3).shape == (3, 0)
    # a vector of the wrong length is a length error, not a product mismatch
    q = QuotientSpace(RationalMatrix.zeros(3, 0), RationalMatrix.identity(3))
    with pytest.raises(ValueError, match="nrows disagrees"):
        q.coords(RationalMatrix.from_columns([[1, 2]]))


def test_entry_access_on_sparse_rows():
    mat = RationalMatrix([[0, 2, 0], [0, 0, 0], [Fraction(1, 2), 0, 3]])
    assert mat[0, 1] == 2 and mat[0, 0] == 0 and mat[2, -1] == 3 and mat[1, 2] == 0
    assert mat.row(2) == (Fraction(1, 2), 0, 3)
    assert mat.column(0) == (0, 0, Fraction(1, 2))
    assert mat.columns() == tuple(mat.column(j) for j in range(3))
    assert list(mat.entries()) == [(0, 1, 2), (2, 0, Fraction(1, 2)), (2, 2, 3)]
    assert mat.submatrix([2, 0], [2, 1]) == RationalMatrix([[3, 0], [0, 2]])
    assert mat.submatrix([1]) == RationalMatrix.zeros(1, 3)
    with pytest.raises(IndexError):
        mat[0, 3]
    with pytest.raises(ValueError, match="repeated column"):
        mat.submatrix([0], [1, 1])
