import random
from fractions import Fraction

import pytest

from resolvedk.ratmat import (
    QuotientSpace,
    RationalMatrix,
    inverse,
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
        null = nullspace_basis(mat)
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


def test_inverse():
    mat = RationalMatrix([[2, 1], [1, 1]])
    inv = inverse(mat)
    assert inv @ mat == RationalMatrix.identity(2)
    with pytest.raises(ValueError):
        inverse(RationalMatrix([[1, 1], [2, 2]]))


def test_quotient_space():
    sub = RationalMatrix.from_columns([[1, 1, 0]], nrows=3)
    q = QuotientSpace(sub)
    assert q.dim == 2
    # The class map kills the subspace and is linear.
    assert q.project([2, 2, 0]) == (Fraction(0), Fraction(0))
    a = q.project([1, 0, 0])
    b = q.project([0, 1, 0])
    ab = q.project([1, 1, 0])
    assert tuple(x + y for x, y in zip(a, b)) == ab == (Fraction(0), Fraction(0))
    # lift is a section of project.
    for v in [(1, 0), (0, 1), (3, -2)]:
        assert q.project(q.lift(v)) == tuple(Fraction(x) for x in v)


def test_quotient_space_rejects_dependent_sub_basis():
    with pytest.raises(ValueError):
        QuotientSpace(RationalMatrix.from_columns([[1, 1, 0], [2, 2, 0]], nrows=3))
    full = QuotientSpace(RationalMatrix.from_columns([[1, 0], [0, 1]], nrows=2))
    assert full.dim == 0 and full.project([3, 4]) == ()


def test_empty_shapes():
    z = RationalMatrix.zeros(0, 3)
    assert rank(z) == 0
    assert len(nullspace_basis(z)) == 3
    z2 = RationalMatrix.zeros(3, 0)
    assert rank(z2) == 0
    assert solve(z2, [[0, 0, 0], [1, 0, 0]]) == [(), None]
