"""Differential tests: the Smith normal form of `fgab` and the kernels,
images and cokernels of homs against sympy, the Hermite form's ride-along
transform and echelon shape against their definitions, and the
decompose-once paths of homs and shifts against the direct formulas.

Inputs are seeded integer matrices up to 6x6 with entries in -9..9, with
zero rows and zero columns mixed in; seeded sparse matrices of 20x30 and
40x60 with three nonzeros per row from {-2, -1, 1, 2, 3}, where the pivot
rule's tie-breaks and the fill-in of the Euclid steps show; one 400x600
+-1 matrix the size of a sector constraint; and seeded homs into groups
with torsion.
"""

import itertools
import random
from math import gcd

import pytest

sympy = pytest.importorskip("sympy")

from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from resolvedk.basespace import sigma_for_character  # noqa: E402
from resolvedk.fgab import (  # noqa: E402
    AbHom,
    FgAbGroup,
    Lattice,
    det_int,
    is_exact_at,
    kernel_basis,
    row_hermite_form,
    smith_normal_form,
)
from resolvedk.ratmat import RationalMatrix, rank  # noqa: E402
from resolvedk.fixtures import (  # noqa: E402
    product_trivial,
    projective_plane,
    sphere_rotation,
    sphere_rotation_speed,
)

SEEDS = range(40)


def _matrix(rng):
    m, n = rng.randint(0, 6), rng.randint(0, 6)
    zero_rows = {i for i in range(m) if rng.random() < 0.15}
    zero_cols = {j for j in range(n) if rng.random() < 0.15}
    rows = [
        [0 if i in zero_rows or j in zero_cols else rng.randint(-9, 9) for j in range(n)]
        for i in range(m)
    ]
    return RationalMatrix(rows, ncols=n)


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


@pytest.mark.parametrize("seed", SEEDS)
def test_hermite_transform_rides_along(seed):
    a = _matrix(random.Random(seed))
    m, n = a.shape
    eye = RationalMatrix.identity(m).to_lists()
    rows = row_hermite_form([r + e for r, e in zip(a.to_lists(), eye)], n)
    assert len(rows) == m
    h = [r[:n] for r in rows]
    u = RationalMatrix([r[n:] for r in rows], ncols=m)
    assert u @ a == RationalMatrix(h, ncols=n)
    assert abs(det_int(u)) == 1
    rank = sum(1 for r in h if any(r))
    assert not any(any(r) for r in h[rank:])
    assert h[:rank] == row_hermite_form(a.to_lists(), n)
    _assert_hermite_shape(h[:rank])


def _assert_hermite_shape(h):
    """Rows in Hermite form by the definition: pivot columns strictly
    increase, each pivot is positive, and every entry above a pivot lies in
    [0, pivot)."""
    leads = [next(j for j, x in enumerate(row) if x) for row in h]
    assert all(a < b for a, b in zip(leads, leads[1:]))
    for k, (row, c) in enumerate(zip(h, leads)):
        assert row[c] > 0
        assert all(0 <= above[c] < row[c] for above in h[:k])


SPARSE_SEEDS = range(6)
SPARSE_SHAPES = [(20, 30), (40, 60)]


def _sparse(rng, m, n, values=(-2, -1, 1, 2, 3)):
    """An m x n integer matrix with three nonzeros per row drawn from `values`."""
    rows = [[0] * n for _ in range(m)]
    for row in rows:
        for j in rng.sample(range(n), 3):
            row[j] = rng.choice(values)
    return RationalMatrix(rows, ncols=n)


@pytest.mark.parametrize("shape", SPARSE_SHAPES, ids=["20x30", "40x60"])
@pytest.mark.parametrize("seed", SPARSE_SEEDS)
def test_sparse_smith_and_hermite(seed, shape):
    rng = random.Random(seed)
    wide = _sparse(rng, *shape)
    for a in (wide, wide.transpose()):
        dec = smith_normal_form(a)
        assert dec.verify(a)
        assert dec.diagonal() == tuple(int(d) for d in invariant_factors(_sympy(a), domain=sympy.ZZ))
        m, n = a.shape
        eye = RationalMatrix.identity(m).to_lists()
        rows = row_hermite_form([r + e for r, e in zip(a.to_lists(), eye)], n)
        h = [r[:n] for r in rows]
        u = RationalMatrix([r[n:] for r in rows], ncols=m)
        assert u @ a == RationalMatrix(h, ncols=n)
        rk = sum(1 for r in h if any(r))
        assert rk == dec.rank
        _assert_hermite_shape(h[:rk])


@pytest.mark.parametrize("seed", SPARSE_SEEDS)
def test_hermite_and_smith_do_not_depend_on_row_order(seed):
    rng = random.Random(seed)
    wide = _sparse(rng, 20, 30)
    # appended combinations of the rows make the rank deficient
    a = RationalMatrix(wide.to_lists() + (_sparse(rng, 10, 20) @ wide).to_lists(), ncols=30)
    perm = rng.sample(range(a.nrows), a.nrows)
    pa = a.submatrix(perm)
    assert row_hermite_form(pa.to_lists(), a.ncols) == row_hermite_form(a.to_lists(), a.ncols)
    assert smith_normal_form(pa).diagonal() == smith_normal_form(a).diagonal()


def test_smith_of_a_sector_sized_matrix():
    # a sparse +-1 matrix of the shape of a sector constraint
    a = _sparse(random.Random(0), 400, 600, values=(-1, 1))
    dec = smith_normal_form(a)
    r = rank(a)
    assert dec.diagonal() == (1,) * r + (0,) * (400 - r)
    assert dec.u @ a @ dec.v == dec.s


TORSION = [(2,), (3,), (4,), (6,), (2, 4), (2, 6), (3, 6)]


def _column(rng, codomain, order):
    """A random column for a generator of the given order (0: free)."""
    col = [0 if order else rng.randint(-4, 4) for _ in range(codomain.free_rank)]
    for t in codomain.torsion:
        step = t // gcd(order, t) if order else 1
        col.append(step * rng.randint(0, t))
    return col


def _hom_into_torsion(rng):
    codomain = FgAbGroup(rng.randint(0, 2), rng.choice(TORSION))
    domain = FgAbGroup(rng.randint(1, 3), rng.choice([(), (2,), (3,), (2, 2), (2, 4)]))
    orders = [0] * domain.free_rank + list(domain.torsion)
    cols = [_column(rng, codomain, d) for d in orders]
    return AbHom.from_columns(domain, codomain, cols)


def _automorphism(rng, group):
    """Unimodular free block, unit diagonal on torsion, free-to-torsion mixing."""
    f = group.free_rank
    rows = [[1 if i == j else 0 for j in range(group.ngens)] for i in range(group.ngens)]
    for _ in range(4 * f):
        i, j = rng.sample(range(f), 2) if f > 1 else (0, 0)
        if i != j:
            q = rng.randint(-2, 2)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    for k, t in enumerate(group.torsion):
        units = [u for u in range(1, t) if gcd(u, t) == 1]
        rows[f + k][f + k] = rng.choice(units)
        for j in range(f):
            rows[f + k][j] = rng.randint(0, t - 1)
    return AbHom(group, group, RationalMatrix(rows, ncols=group.ngens))


def _uncached_preimage(h, y):
    stacked = RationalMatrix.from_columns(
        h.matrix.columns() + h.codomain.relation_matrix().columns(), nrows=h.codomain.ngens
    )
    n = h.domain.ngens
    lat = Lattice(n, [k[:n] for k in kernel_basis(stacked)])
    sol = smith_normal_form(stacked).solve(h.codomain.reduce(y))
    return h.domain.reduce(lat.reduce(sol[:n]))


@pytest.mark.parametrize("seed", SEEDS)
def test_preimage_representative_is_canonical(seed):
    rng = random.Random(seed)
    h = _hom_into_torsion(rng)
    again = AbHom(h.domain, h.codomain, h.matrix)
    for _ in range(4):
        y = h.apply([rng.randint(-9, 9) for _ in range(h.domain.ngens)])
        x = h.preimage_representative(y)
        assert h.apply(x) == y
        assert x == _uncached_preimage(h, y)
        assert h.preimage_representative(y) == x
        assert again.preimage_representative(y) == x
    assert h.is_surjective() == h.cokernel()[0].is_trivial
    assert h.is_injective() == h.kernel()[0].is_trivial

    auto = _automorphism(rng, h.codomain)
    inv = auto.inverse()
    assert inv is not None
    assert auto.inverse() == inv
    assert AbHom(auto.domain, auto.codomain, auto.matrix).inverse() == inv
    assert auto @ inv == AbHom.identity(auto.codomain)
    assert inv @ auto == AbHom.identity(auto.codomain)


def _sympy(mat):
    return sympy.Matrix(mat.nrows, mat.ncols, [x for row in mat.to_lists() for x in row])


def _graph(h):
    return RationalMatrix.from_columns(
        h.matrix.columns() + h.codomain.relation_matrix().columns(), nrows=h.codomain.ngens
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_cokernel_matches_sympy(seed):
    h = _hom_into_torsion(random.Random(seed))
    factors = [int(d) for d in invariant_factors(_sympy(_graph(h)), domain=sympy.ZZ)]
    nonzero = [d for d in factors if d]
    group, proj = h.cokernel()
    assert group.torsion == tuple(d for d in nonzero if d > 1)
    assert group.free_rank == h.codomain.ngens - len(nonzero)
    assert proj.is_surjective()
    assert all(not any(proj.apply(c)) for c in h.matrix.columns())
    assert is_exact_at(h, proj)


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_matches_sympy(seed):
    h = _hom_into_torsion(random.Random(seed))
    group, incl = h.kernel()
    assert (h @ incl).is_zero()
    assert incl.is_injective()
    n = h.domain.ngens
    relations = h.domain.relation_matrix().columns()
    assert Lattice(n, incl.matrix.columns() + relations) == h.kernel_lattice()
    # over Q the kernel has the nullity of the free block of M
    f = h.codomain.free_rank
    free_block = _sympy(h.matrix)[:f, : h.domain.free_rank]
    assert group.free_rank == h.domain.free_rank - free_block.rank()


@pytest.mark.parametrize("seed", SEEDS)
def test_image_matches_sympy(seed):
    h = _hom_into_torsion(random.Random(seed))
    group, incl = h.image()
    assert incl.is_injective()
    m = h.codomain.ngens
    relations = h.codomain.relation_matrix().columns()
    assert Lattice(m, incl.matrix.columns() + relations) == h.image_lattice()
    free_block = _sympy(h.matrix)[: h.codomain.free_rank, :]
    assert group.free_rank == free_block.rank()
    assert is_exact_at(incl, h.cokernel()[1])


@pytest.mark.parametrize(
    "build",
    [sphere_rotation, lambda: sphere_rotation_speed(3), projective_plane,
     lambda: product_trivial((2,))],
    ids=["sphere", "speed3", "plane", "product2"],
)
def test_shift_automorphisms_match_sigma_for_character(build):
    checked = 0
    for space in build().spaces.values():
        k = space.kdata
        for coeffs in itertools.product(range(-3, 4), repeat=k.generator_count):
            if not coeffs:
                continue
            for _ in range(2):
                assert k.twist(coeffs) == sigma_for_character(k.sigma0, coeffs, k.k0)
                assert k.odd.twist(coeffs) == sigma_for_character(k.sigma1, coeffs, k.k1)
            checked += 1
    assert checked
