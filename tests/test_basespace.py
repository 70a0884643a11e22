from fractions import Fraction

import pytest

from resolvedk.basespace import (
    ChainMap,
    CochainComplex,
    CornerData,
    FaceMaps,
    KData,
    KPair,
    NodeSpaceData,
    shift_for_character,
    sigma_for_character,
    validate_corner,
    validate_face,
    validate_node,
)
from resolvedk.chargroup import SubgroupDatum
from resolvedk.fgab import AbHom, FgAbGroup
from resolvedk.ratmat import RationalMatrix

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.free(0)


def interval():
    return CochainComplex((2, 1), [[[-1, 1]]])


def circle():
    return CochainComplex((1, 1), [[[0]]])


def test_cohomology_point_interval_circle():
    assert CochainComplex.point().cohomology() == (1,)
    assert interval().cohomology() == (1, 0)
    assert circle().cohomology() == (1, 1)


def test_invalid_complex_reported_then_raises():
    bad = CochainComplex((1, 1, 1), [[[1]], [[1]]])
    rep = bad.validate()
    assert not rep.ok
    assert "degree 0" in dict(rep.failures())["differential squares to zero"]
    with pytest.raises(ValueError, match="^differential squares to zero: fails starting in degree 0$"):
        bad.cohomology()


def test_complex_shape_errors():
    # no blocks at all means zero differentials; a *partial* list is an error
    assert CochainComplex((2, 1)).d.is_zero()
    with pytest.raises(ValueError, match="differential blocks"):
        CochainComplex((2, 1, 1), [[[-1, 1]]])
    with pytest.raises(ValueError, match="matrix shape"):
        CochainComplex((2, 1), [[[1, 2], [3, 4]]])


def test_complex_dimensions_must_be_integral():
    # (2.9, 1) used to give dims (2, 1)
    with pytest.raises(TypeError):
        CochainComplex((2.9, 1), [[[-1, 1]]])
    with pytest.raises(ValueError, match="dimension 5/2"):
        CochainComplex((Fraction(5, 2), 1), [[[-1, 1]]])
    assert CochainComplex((Fraction(2), 1), [[[-1, 1]]]).dims == (2, 1)


def test_slot_bookkeeping():
    c = CochainComplex((1, 0, 1), [RationalMatrix.zeros(0, 1), RationalMatrix.zeros(1, 0)])
    assert c.total_dim == 2
    assert c.slot_degrees == (0, 2)
    assert list(c.degree_slots(0)) == [0]
    assert list(c.degree_slots(1)) == []
    assert c.parity_slots(0) == [0, 1]
    assert c.parity_slots(1) == []
    assert interval().differential_block(0).to_lists() == [[-1, 1]]


def test_chain_map_homogeneity_enforced():
    with pytest.raises(ValueError, match="degree 1"):
        ChainMap(interval(), CochainComplex.point(), [[0, 0, 1]])
    rho = ChainMap(interval(), CochainComplex.point(), [[1, 0, 0]])
    assert rho.commutes_with_differentials()
    assert rho.matrix.apply((2, 5, 1)) == (Fraction(2),)


def test_chain_map_from_blocks_and_compose():
    c = interval()
    f = ChainMap.from_blocks(c, c, {0: [[0, 1], [1, 0]], 1: [[1]]})
    assert f.matrix.to_lists() == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert not f.commutes_with_differentials()  # swapping endpoints flips d's sign
    ident = ChainMap.identity(c)
    assert ident.matrix @ f.matrix == f.matrix
    shift = ChainMap.from_blocks(
        CochainComplex((1, 0, 1)), CochainComplex((1, 0, 1)), {0: [[1]]}, degree=2
    )
    assert shift.degree == 2
    assert (shift.matrix @ shift.matrix).is_zero()  # degree 4 is past the top


def test_shift_for_character_is_linear():
    c = CochainComplex((1, 0, 1))
    cup = ChainMap.from_blocks(c, c, {0: [[1]]}, degree=2)
    assert shift_for_character([cup], (3,), 2) == cup.matrix * 3
    other = ChainMap.from_blocks(c, c, {0: [[2]]}, degree=2)
    combo = shift_for_character([cup, other], (1, -1), 2)
    assert combo == cup.matrix * 1 + other.matrix * (-1)
    assert shift_for_character([], (), 2) == RationalMatrix.zeros(2, 2)
    with pytest.raises(ValueError, match="one coefficient"):
        shift_for_character([cup], (1, 2), 2)


def test_sigma_for_character_powers_and_inverses():
    z2 = FgAbGroup.free(2)
    s = AbHom(z2, z2, [[1, 0], [1, 1]])
    sq = sigma_for_character([s], (2,), z2)
    assert sq.matrix.to_lists() == [[1, 0], [2, 1]]
    inv = sigma_for_character([s], (-1,), z2)
    assert (inv @ s) == AbHom.identity(z2)
    assert sigma_for_character([], (), z2) == AbHom.identity(z2)
    with pytest.raises(ValueError, match="not invertible"):
        sigma_for_character([AbHom(Z, Z, [[2]])], (-1,), Z)


@pytest.mark.parametrize(
    "bad, error", [(2.5, TypeError), (Fraction(3, 2), ValueError)], ids=["float", "half"]
)
def test_shift_coefficients_must_be_integral(bad, error):
    # these used to truncate: (2.5,) acted as (2,)
    c = CochainComplex((1, 0, 1))
    cup = ChainMap.from_blocks(c, c, {0: [[1]]}, degree=2)
    with pytest.raises(error):
        shift_for_character([cup], (bad,), 2)
    assert shift_for_character([cup], (Fraction(4, 2),), 2) == cup.matrix * 2


@pytest.mark.parametrize(
    "bad, error", [(1.7, TypeError), (Fraction(3, 2), ValueError)], ids=["float", "half"]
)
def test_sigma_coefficients_must_be_integral(bad, error):
    # these used to truncate: (1.7,) acted as (1,)
    z2 = FgAbGroup.free(2)
    s = AbHom(z2, z2, [[1, 0], [1, 1]])
    with pytest.raises(error):
        sigma_for_character([s], (bad,), z2)
    assert sigma_for_character([s], (Fraction(2, 2),), z2) == s


@pytest.mark.parametrize(
    "bad, error", [(1.9, TypeError), (Fraction(3, 2), ValueError)], ids=["float", "half"]
)
def test_twist_coordinates_must_be_integral(bad, error):
    # these used to truncate: twist((1.9,)) was the cached twist((1,))
    z2 = FgAbGroup.free(2)
    kdata = KData(z2, ZERO, [AbHom(z2, z2, [[1, 0], [1, 1]])], [AbHom.identity(ZERO)],
                  AbHom(z2, Z, [[1, 0]]))
    c = CochainComplex((1, 0, 1))
    space = NodeSpaceData(c, [ChainMap.from_blocks(c, c, {0: [[1]]}, degree=2)], kdata)
    kdata.twist((1,))
    space.twist((1,))
    for coefficients in (kdata, kdata.odd, space):
        with pytest.raises(error):
            coefficients.twist((bad,))
    assert kdata.twist((Fraction(2, 2),)) is kdata.twist((1,))


def kdata_trivial(k0=Z, k1=ZERO, count=1):
    dim = AbHom(k0, Z, [[1] + [0] * (k0.ngens - 1)]) if k0.ngens else AbHom(k0, Z, [[]])
    return KData.trivial_shifts(k0, k1, dim, count)


def test_kdata_validation_happy_and_sad():
    assert kdata_trivial().validate().ok

    z2 = FgAbGroup.free(2)
    dim = AbHom(z2, Z, [[1, 0]])
    bad_invert = KData(z2, ZERO, [AbHom(z2, z2, [[2, 0], [0, 1]])],
                       [AbHom.identity(ZERO)], dim)
    assert "sigma0 automorphisms invertible" in dict(bad_invert.validate().failures())

    a = AbHom(z2, z2, [[1, 1], [0, 1]])
    b = AbHom(z2, z2, [[1, 0], [1, 1]])
    bad_commute = KData(z2, ZERO, [a, b], [AbHom.identity(ZERO)] * 2, dim)
    assert "sigma0 automorphisms commute" in dict(bad_commute.validate().failures())

    bad_dim = KData(z2, ZERO, [a], [AbHom.identity(ZERO)], dim)
    assert "shifts preserve the dimension homomorphism" in dict(bad_dim.validate().failures())

    good_dim = KData(z2, ZERO, [b], [AbHom.identity(ZERO)], dim)
    assert good_dim.validate().ok


def root_interval_node():
    c = interval()
    zero_shift = ChainMap.zero(c, c, degree=2)
    return NodeSpaceData(c, [zero_shift], kdata_trivial(count=1))


def pole_point_node():
    return NodeSpaceData(CochainComplex.point(), [], kdata_trivial(count=0))


def test_validate_node_counts_shifts():
    node = root_interval_node()
    assert validate_node(node, kernel_rank=1).ok
    rep = validate_node(node, kernel_rank=2)
    assert "one shift per kernel generator" in dict(rep.failures())


def test_node_shift_degree_enforced():
    c = interval()
    with pytest.raises(ValueError, match="expected 2"):
        NodeSpaceData(c, [ChainMap.identity(c)], kdata_trivial())


def sphere_pole_face():
    """Face between the interval root and a pole point on the circle sphere."""
    root = root_interval_node()
    pole = pole_point_node()
    pt = CochainComplex.point()
    face = NodeSpaceData(pt, [ChainMap.zero(pt, pt, degree=2)], kdata_trivial(count=1))
    rho = ChainMap(root.complex, pt, [[1, 0, 0]])
    pullback = ChainMap.identity(pt)
    kid = AbHom(Z, Z, [[1]])
    zid = AbHom.identity(ZERO)
    maps = FaceMaps(face, rho, pullback, KPair(kid, zid), KPair(kid, zid))
    return root, pole, maps


def test_validate_face_sphere_pole():
    whole = SubgroupDatum(AbHom(Z, Z, [[1]]))
    trivial = SubgroupDatum(AbHom(Z, FgAbGroup.free(0), []))
    root, pole, maps = sphere_pole_face()
    rep = validate_face(maps, trivial, whole, root, pole)
    assert rep.ok, str(rep)


def test_validate_face_flags_broken_rho():
    whole = SubgroupDatum(AbHom(Z, Z, [[1]]))
    trivial = SubgroupDatum(AbHom(Z, FgAbGroup.free(0), []))
    root, pole, maps = sphere_pole_face()
    # evaluation minus evaluation is not a chain map onto the point
    bad_rho = ChainMap(root.complex, maps.face.complex, [[1, -1, 0]])
    broken = FaceMaps(maps.face, bad_rho, maps.pullback, maps.rho_k, maps.pullback_k)
    rep = validate_face(broken, trivial, whole, root, pole)
    assert rep.ok  # [1,-1,0] still commutes: d of the point is zero...
    # ...so break the shift intertwining instead, on a complex that has one.
    c = CochainComplex((1, 0, 1))
    cup = ChainMap.from_blocks(c, c, {0: [[1]]}, degree=2)
    node = NodeSpaceData(c, [cup], kdata_trivial(count=1))
    face = NodeSpaceData(c, [ChainMap.zero(c, c, degree=2)], kdata_trivial(count=1))
    maps2 = FaceMaps(
        face,
        ChainMap.identity(c),
        ChainMap.identity(c),
        KPair(AbHom.identity(Z), AbHom.identity(ZERO)),
        KPair(AbHom.identity(Z), AbHom.identity(ZERO)),
    )
    rep2 = validate_face(maps2, trivial, trivial, node, node)
    failed = dict(rep2.failures())
    assert "rho intertwines chain shifts" in failed
    assert "pullback intertwines chain shifts" in failed


def test_validate_face_pullback_uses_shallow_coordinates():
    # Shallow kernel 2Z inside Z with basis (2,); deep kernel 4Z = 2 * (2,).
    amb = FgAbGroup.free(1)
    c2 = FgAbGroup(0, (2,))
    c4 = FgAbGroup(0, (4,))
    shallow_datum = SubgroupDatum(AbHom(amb, c2, [[1]]))
    deep_datum = SubgroupDatum(AbHom(amb, c4, [[1]]))
    c = CochainComplex((1, 0, 1))
    cup = ChainMap.from_blocks(c, c, {0: [[1]]}, degree=2)
    shallow_node = NodeSpaceData(c, [cup], kdata_trivial(count=1))
    deep_node = NodeSpaceData(c, [ChainMap.from_blocks(c, c, {0: [[2]]}, degree=2)],
                              kdata_trivial(count=1))
    face = NodeSpaceData(c, [cup], kdata_trivial(count=1))
    maps = FaceMaps(
        face,
        ChainMap.identity(c),
        ChainMap.identity(c),
        KPair(AbHom.identity(Z), AbHom.identity(ZERO)),
        KPair(AbHom.identity(Z), AbHom.identity(ZERO)),
    )
    # deep generator (4,) = 2 * shallow generator (2,): pullback must match
    # L_deep = 2 * L_face, which holds by construction.
    rep = validate_face(maps, shallow_datum, deep_datum, shallow_node, deep_node)
    assert rep.ok, str(rep)


def test_validate_corner_identity_square():
    pt = CochainComplex.point()
    face = NodeSpaceData(pt, [], kdata_trivial(count=0))
    kid = AbHom.identity(Z)
    zid = AbHom.identity(ZERO)
    fm = FaceMaps(face, ChainMap.identity(pt), ChainMap.identity(pt),
                  KPair(kid, zid), KPair(kid, zid))
    corner = CornerData(
        pt,
        [],
        ChainMap.identity(pt),
        ChainMap.identity(pt),
        ChainMap.identity(pt),
        k0=Z,
        into_ab_k=kid,
        into_ag_k=kid,
        pull_bg_k=kid,
    )
    rep = validate_corner(corner, fm, fm, fm)
    assert rep.ok, str(rep)


def test_validate_corner_flags_mismatch():
    pt = CochainComplex.point()
    face = NodeSpaceData(pt, [], kdata_trivial(count=0))
    kid = AbHom.identity(Z)
    zid = AbHom.identity(ZERO)
    fm = FaceMaps(face, ChainMap.identity(pt), ChainMap.identity(pt),
                  KPair(kid, zid), KPair(kid, zid))
    minus = ChainMap(pt, pt, [[-1]])
    corner = CornerData(pt, [], minus, ChainMap.identity(pt), ChainMap.identity(pt))
    rep = validate_corner(corner, fm, fm, fm)
    failed = dict(rep.failures())
    assert "restrictions from the base node agree on the corner" in failed
    assert "middle node routes agree on the corner" in failed
