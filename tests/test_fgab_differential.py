"""Differential tests: the Smith normal form of `fgab` against sympy.

Inputs are seeded integer matrices up to 6x6 with entries in -9..9, with
zero rows and zero columns mixed in.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from resolvedk.fgab import IntegerMatrix, smith_normal_form  # noqa: E402

SEEDS = range(40)


def _matrix(rng):
    m, n = rng.randint(0, 6), rng.randint(0, 6)
    zero_rows = {i for i in range(m) if rng.random() < 0.15}
    zero_cols = {j for j in range(n) if rng.random() < 0.15}
    rows = [
        [0 if i in zero_rows or j in zero_cols else rng.randint(-9, 9) for j in range(n)]
        for i in range(m)
    ]
    return IntegerMatrix(rows, ncols=n)


@pytest.mark.parametrize("seed", SEEDS)
def test_smith_normal_form_matches_sympy(seed):
    rng = random.Random(seed)
    a = _matrix(rng)
    dec = smith_normal_form(a)
    assert dec.verify(a)
    sym = sympy.Matrix(a.nrows, a.ncols, [x for row in a.to_lists() for x in row])
    assert dec.diagonal() == tuple(int(d) for d in invariant_factors(sym, domain=sympy.ZZ))
    for _ in range(3):
        x = [rng.randint(-5, 5) for _ in range(a.ncols)]
        y = dec.solve(a.apply(x))
        assert y is not None and a.apply(y) == a.apply(x)
