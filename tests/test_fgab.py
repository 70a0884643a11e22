import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvedk.fgab import (
    AbHom,
    FgAbGroup,
    Lattice,
    det_int,
    is_exact_at,
    kernel_basis,
    row_hermite_form,
    smith_normal_form,
)
from resolvedk.ratmat import RationalMatrix


def _random_matrix(rng: random.Random, max_dim: int = 8, max_entry: int = 20) -> RationalMatrix:
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return RationalMatrix(
        [[rng.randint(-max_entry, max_entry) for _ in range(n)] for _ in range(m)]
    )


def _gcd_all(mat: RationalMatrix) -> int:
    from math import gcd

    g = 0
    for i in range(mat.nrows):
        for j in range(mat.ncols):
            g = gcd(g, mat[i, j])
    return g


class TestSmithNormalForm:
    def test_spec_example(self):
        dec = smith_normal_form(RationalMatrix([[2, 4], [6, 8]]))
        assert dec.diagonal() == (2, 4)
        assert dec.verify(RationalMatrix([[2, 4], [6, 8]]))

    def test_zero_matrix(self):
        dec = smith_normal_form(RationalMatrix.zeros(3, 2))
        assert dec.diagonal() == (0, 0)
        assert dec.verify(RationalMatrix.zeros(3, 2))

    def test_non_integral_matrix_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form(RationalMatrix([[2, Fraction(1, 2)]]))
        with pytest.raises(ValueError):
            kernel_basis(RationalMatrix([[Fraction(1, 3)]]))

    def test_empty_shapes(self):
        for shape in [(0, 3), (3, 0), (0, 0)]:
            mat = RationalMatrix.zeros(*shape)
            dec = smith_normal_form(mat)
            assert dec.verify(mat)

    def test_random_invariants(self):
        rng = random.Random(90125)
        for _ in range(200):
            mat = _random_matrix(rng)
            dec = smith_normal_form(mat)
            assert dec.u @ mat @ dec.v == dec.s
            assert abs(det_int(dec.u)) == 1
            assert abs(det_int(dec.v)) == 1
            diag = dec.diagonal()
            # First invariant factor is the gcd of all entries.
            nonzero = [d for d in diag if d]
            if nonzero:
                assert nonzero[0] == _gcd_all(mat)
            else:
                assert mat.is_zero()

    def test_square_determinant_product(self):
        rng = random.Random(8128)
        for _ in range(100):
            n = rng.randint(1, 6)
            mat = RationalMatrix(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            )
            dec = smith_normal_form(mat)
            prod = 1
            for d in dec.diagonal():
                prod *= d
            assert prod == abs(det_int(mat))

    @given(
        st.lists(
            st.lists(st.integers(-50, 50), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_property_transforms(self, rows):
        mat = RationalMatrix(rows)
        dec = smith_normal_form(mat)
        assert dec.verify(mat)


class TestSolveAndKernel:
    def test_solve_simple(self):
        assert smith_normal_form(RationalMatrix([[2, 3]])).solve([1]) == (-1, 1)
        assert smith_normal_form(RationalMatrix([[2]])).solve([3]) is None
        with pytest.raises(ValueError):
            smith_normal_form(RationalMatrix([[2]])).solve([1, 2])

    def test_solve_random_consistency(self):
        rng = random.Random(44100)
        for _ in range(80):
            mat = _random_matrix(rng, max_dim=5, max_entry=6)
            x = [rng.randint(-4, 4) for _ in range(mat.ncols)]
            b = mat.apply(x)
            sol = smith_normal_form(mat).solve(b)
            assert sol is not None
            assert mat.apply(sol) == b

    def test_kernel_basis_annihilates(self):
        rng = random.Random(1729)
        for _ in range(60):
            mat = _random_matrix(rng, max_dim=5, max_entry=6)
            for k in kernel_basis(mat):
                assert all(v == 0 for v in mat.apply(k))


class TestHermiteAndLattice:
    def test_hnf_canonical(self):
        # Two generating sets of the same lattice give the same basis.
        a = row_hermite_form([[2, 0], [0, 3]], 2)
        b = row_hermite_form([[2, 3], [2, 0], [4, 3]], 2)
        assert a == b

    @pytest.mark.parametrize(
        "bad, error", [(1.5, TypeError), (Fraction(3, 2), ValueError)], ids=["float", "half"]
    )
    def test_lattice_input_must_be_integral(self, bad, error):
        # these used to pass through: Lattice(1, [(1.5,)]).contains((3,)) was True
        # and Lattice(2, [(2, 0)]).reduce((2.5, 1)) was (0.5, 1.0)
        with pytest.raises(error):
            Lattice(1, [(bad,)])
        lat = Lattice(2, [(2, 0)])
        with pytest.raises(error):
            lat.reduce((bad, 1))
        with pytest.raises(error):
            lat.contains((bad, 0))
        assert lat.reduce((Fraction(6, 2), 1)) == (1, 1)

    def test_reduction_is_coset_invariant(self):
        lat = Lattice(2, [(3, -2)])
        r1 = lat.reduce((-1, 1))
        r2 = lat.reduce((2, -1))  # differs by (3, -2)
        assert r1 == r2 == (-1, 1)

    def test_mod2_representatives(self):
        lat = Lattice(1, [(2,)])
        assert lat.reduce((1,)) == (1,)
        assert lat.reduce((7,)) == (1,)
        assert lat.reduce((-3,)) == (1,)

    def test_membership(self):
        lat = Lattice(2, [(2, 0), (0, 2)])
        assert lat.contains((4, -2))
        assert not lat.contains((1, 0))

    def test_sublattice(self):
        big = Lattice(2, [(1, 0), (0, 1)])
        small = Lattice(2, [(2, 1)])
        assert small.is_sublattice_of(big)
        assert not big.is_sublattice_of(small)


class TestFgAbGroup:
    def test_invariant_factor_validation(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FgAbGroup(0, (1,))
        FgAbGroup(2, (2, 4, 8))

    def test_reduce(self):
        g = FgAbGroup(1, (2, 6))
        assert g.reduce((5, 3, -1)) == (5, 1, 5)

    @pytest.mark.parametrize(
        "bad, error", [(2.7, TypeError), (Fraction(1, 2), ValueError)], ids=["float", "half"]
    )
    @pytest.mark.parametrize("entry", ["reduce", "character", "scale", "apply"])
    def test_non_integral_coordinates_rejected(self, entry, bad, error):
        # these used to truncate: Character(Z, (2.7,)).coords == (2,)
        from resolvedk.chargroup import Character

        z = FgAbGroup.free(1)
        calls = {
            "reduce": lambda: z.reduce((bad,)),
            "character": lambda: Character(z, (bad,)),
            "scale": lambda: Character(z, (1,)).scale(bad),
            "apply": lambda: AbHom(z, FgAbGroup(0, (2,)), [[1]]).apply((bad,)),
        }
        with pytest.raises(error):
            calls[entry]()

    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda: FgAbGroup(0, (2.7,)), TypeError),
            (lambda: FgAbGroup(0, (Fraction(7, 2),)), ValueError),
            (lambda: FgAbGroup(1.5), TypeError),
            (lambda: FgAbGroup(Fraction(3, 2)), ValueError),
        ],
        ids=["float-factor", "half-factor", "float-rank", "half-rank"],
    )
    def test_non_integral_group_data_rejected(self, make, error):
        # these used to truncate: FgAbGroup(0, (2.7,)) was Z/2
        with pytest.raises(error):
            make()

    def test_integral_group_data_become_ints(self):
        g = FgAbGroup(Fraction(2, 1), (Fraction(4, 2),))
        assert (g.free_rank, g.torsion) == (2, (2,))
        assert type(g.free_rank) is int and type(g.torsion[0]) is int

    def test_integral_fractions_become_ints(self):
        g = FgAbGroup(1, (2,))
        out = g.reduce((Fraction(6, 2), Fraction(-3, 1)))
        assert out == (3, 1) and all(type(x) is int for x in out)

    def test_elements(self):
        g = FgAbGroup(0, (2, 6))
        assert len(list(g.elements())) == 12
        with pytest.raises(ValueError):
            list(FgAbGroup(1).elements())


class TestAbHom:
    def test_torsion_respect(self):
        z2 = FgAbGroup(0, (2,))
        z = FgAbGroup.free(1)
        with pytest.raises(ValueError):
            AbHom(z2, z, RationalMatrix([[1]]))  # no nonzero map Z/2 -> Z
        AbHom(z2, z2, RationalMatrix([[1]]))

    def test_non_integral_entries_rejected(self):
        z = FgAbGroup.free(1)
        with pytest.raises(ValueError):
            AbHom(z, z, [[Fraction(1, 2)]])
        with pytest.raises(ValueError):
            AbHom(z, FgAbGroup(0, (2,)), RationalMatrix([[Fraction(3, 2)]]))
        with pytest.raises(TypeError):
            AbHom(z, z, [[2.7]])
        assert AbHom(z, z, [[Fraction(4, 2)]]).matrix == RationalMatrix([[2]])

    def test_cokernel_of_doubling(self):
        z = FgAbGroup.free(1)
        coker, proj = AbHom(z, z, RationalMatrix([[2]])).cokernel()
        assert coker == FgAbGroup(0, (2,))
        assert proj.apply((3,)) == (1,)

    def test_kernel_of_projection(self):
        z = FgAbGroup.free(1)
        z2 = FgAbGroup(0, (2,))
        h = AbHom(z, z2, RationalMatrix([[1]]))
        ker, incl = h.kernel()
        assert ker == FgAbGroup.free(1)
        assert (h @ incl).is_zero()
        # The kernel is the even integers.
        assert incl.matrix.column(0)[0] in (2, -2)

    def test_image(self):
        z = FgAbGroup.free(1)
        img, incl = AbHom(z, z, RationalMatrix([[2]])).image()
        assert img == FgAbGroup.free(1)
        assert incl.matrix.column(0)[0] in (2, -2)

    def test_exactness(self):
        z = FgAbGroup.free(1)
        z2 = FgAbGroup(0, (2,))
        double = AbHom(z, z, RationalMatrix([[2]]))
        mod2 = AbHom(z, z2, RationalMatrix([[1]]))
        assert is_exact_at(double, mod2)
        triple = AbHom(z, z, RationalMatrix([[3]]))
        assert not is_exact_at(triple, mod2)

    def test_exactness_with_torsion_middle(self):
        # Z -x2-> Z/4 -x2-> Z/4 is exact at the middle.
        z = FgAbGroup.free(1)
        z4 = FgAbGroup(0, (4,))
        f = AbHom(z, z4, RationalMatrix([[2]]))
        g = AbHom(z4, z4, RationalMatrix([[2]]))
        assert is_exact_at(f, g)

    def test_preimage_representative(self):
        h = AbHom(FgAbGroup.free(2), FgAbGroup.free(1), RationalMatrix([[2, 3]]))
        assert h.preimage_representative((1,)) == (-1, 1)
        assert h.preimage_representative((0,)) == (0, 0)
        doubling = AbHom(FgAbGroup.free(1), FgAbGroup.free(1), RationalMatrix([[2]]))
        with pytest.raises(ValueError):
            doubling.preimage_representative((1,))

    def test_preimage_deterministic_across_presentations(self):
        z2g = FgAbGroup.free(2)
        z = FgAbGroup.free(1)
        h = AbHom(z2g, z, RationalMatrix([[2, 3]]))
        rng = random.Random(11)
        rep = h.preimage_representative((5,))
        for _ in range(10):
            k = rng.randint(-5, 5)
            # Shift by a kernel element and re-reduce: same representative.
            shifted = (rep[0] + 3 * k, rep[1] - 2 * k)
            assert h.apply(shifted) == (5 % 1 if False else h.apply(rep))
            lat = Lattice(2, [(3, -2)])
            assert lat.reduce(shifted) == rep

    def test_try_split_absent_for_mod2(self):
        z = FgAbGroup.free(1)
        z2 = FgAbGroup(0, (2,))
        assert AbHom(z, z2, RationalMatrix([[1]])).try_split() is None

    def test_try_split_present(self):
        h = AbHom(FgAbGroup.free(2), FgAbGroup.free(1), RationalMatrix([[2, 3]]))
        s = h.try_split()
        assert s is not None
        assert s.matrix.to_lists() == [[-1], [1]]
        assert (h @ s) == AbHom.identity(FgAbGroup.free(1))

    def test_try_split_torsion_target_success(self):
        # Z + Z/4 -> Z/2 (project second factor mod 2) splits: 2*Z/4 gen works?
        # s(1) must have order dividing 2: the element (0, 2) in Z + Z/4 has
        # order 2 and maps to 2 mod 2 = 0 -- not a section.  (0, 1) maps to 1
        # but has order 4.  No splitting exists.
        g = FgAbGroup(1, (4,))
        z2 = FgAbGroup(0, (2,))
        h = AbHom(g, z2, RationalMatrix([[0, 1]]))
        assert h.try_split() is None
        # Z + Z/2 -> Z/2 does split.
        g2 = FgAbGroup(1, (2,))
        h2 = AbHom(g2, z2, RationalMatrix([[0, 1]]))
        s = h2.try_split()
        assert s is not None
        assert (h2 @ s) == AbHom.identity(z2)

    def test_try_split_requires_surjective(self):
        z = FgAbGroup.free(1)
        with pytest.raises(ValueError):
            AbHom(z, z, RationalMatrix([[2]])).try_split()

    def test_inverse(self):
        g = FgAbGroup(1, (2,))
        sigma = AbHom(g, g, RationalMatrix([[1, 0], [1, 1]]))
        inv = sigma.inverse()
        assert inv is not None
        assert inv @ sigma == AbHom.identity(g)
        not_iso = AbHom(FgAbGroup.free(1), FgAbGroup.free(1), RationalMatrix([[2]]))
        assert not_iso.inverse() is None

    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_hom_additivity(self, a, b, x):
        z = FgAbGroup.free(1)
        h = AbHom(z, z, RationalMatrix([[3]]))
        assert h.apply((a + b,)) == tuple(
            u + v for u, v in zip(h.apply((a,)), h.apply((b,)))
        )
        assert h.apply((x,)) == (3 * x,)


class TestRankFormulas:
    def test_rank_nullity_over_q(self):
        rng = random.Random(314159)
        for _ in range(40):
            mat = _random_matrix(rng, max_dim=6, max_entry=8)
            dec = smith_normal_form(mat)
            assert dec.rank + len(kernel_basis(mat)) == mat.ncols


def test_hom_decomposes_its_graph_once(monkeypatch):
    from resolvedk import fgab

    h = AbHom(FgAbGroup(2, (6,)), FgAbGroup(1, (6,)), RationalMatrix([[1, 2, 0], [0, 3, 1]]))
    graph = RationalMatrix.from_columns(
        h.matrix.columns() + h.codomain.relation_matrix().columns(), nrows=2
    )
    seen = []
    original = fgab.smith_normal_form

    def counting(mat):
        seen.append(mat)
        return original(mat)

    monkeypatch.setattr(fgab, "smith_normal_form", counting)
    rng = random.Random(7)
    for _ in range(10):
        x = h.domain.reduce([rng.randint(-9, 9) for _ in range(3)])
        assert h.apply(h.preimage_representative(h.apply(x))) == h.apply(x)
    h.kernel_lattice()
    h.kernel()
    split = h.try_split()
    assert split is not None
    calls = len(seen)
    assert h.try_split() is split
    assert len(seen) == calls
    assert sum(1 for mat in seen if mat == graph) == 1


def test_derived_homs_are_not_rechecked(monkeypatch):
    from resolvedk import fgab

    z6 = FgAbGroup(1, (6,))
    f = AbHom(FgAbGroup(2, (6,)), z6, RationalMatrix([[1, 2, 0], [0, 3, 1]]))
    g = AbHom(z6, z6, RationalMatrix([[2, 0], [5, 5]]))
    calls = []
    monkeypatch.setattr(fgab, "_require_integral", calls.append)
    derived = [g @ f, f + f, -f, f - f, AbHom.identity(z6)]
    assert calls == []
    # each is reduced into the torsion codomain as a checked hom would be
    for hom, matrix in zip(derived, [
        g.matrix @ f.matrix, f.matrix + f.matrix, -f.matrix, RationalMatrix.zeros(2, 3),
        RationalMatrix.identity(2),
    ]):
        assert hom == AbHom(hom.domain, hom.codomain, matrix)
    assert (g @ f).matrix == RationalMatrix([[2, 4, 0], [5, 1, 5]])
