"""Graded K-groups, the derived representation-ring action, and hexagon arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvedk.basespace import KData
from resolvedk.chargroup import Character, SubgroupDatum, lift, lift_offset
from resolvedk.fgab import AbHom, FgAbGroup
from resolvedk.fixtures import product_trivial, projective_plane, sphere_rotation
from resolvedk.ktheory import (
    LES_LABELS,
    SixTermInstance,
    action_node_k,
    hexagon_check,
)

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.free(2)
TRIV = FgAbGroup.free(0)
C2 = FgAbGroup(0, (2,))

SIGMA = AbHom(Z2, Z2, [[1, 1], [0, 1]])


def mod2_node():
    datum = SubgroupDatum(AbHom(Z, C2, [[1]]))
    kdata = KData(Z2, TRIV, [SIGMA], [AbHom.identity(TRIV)], AbHom(Z2, Z, [[1, 0]]))
    return datum, kdata


# -- graded groups ---------------------------------------------------------------


def test_action_node_k_reads_fixture_windows():
    sphere = sphere_rotation()
    windows = sphere.windows(2)
    assert len(windows["N"]) == 5
    assert action_node_k(sphere, "N", windows) == (5, 0)


# -- the representation-ring action, as derived ------------------------------------
#
# No library function applies the action: docs/representation-ring.md derives
# it from the twisting law.  An ambient character g moves the class x at
# lift(b) to lift(b + restrict(g)) and twists it there by sigma(h), h the
# kernel coordinates of g + lift(b) - lift(b + restrict(g)).  `act` is that
# formula; the tests check its values and that it is a group action, which
# comes down to sigma(h) being multiplicative in h.


def act(g, x, datum, kdata):
    """The derived action of the ambient character (g,) on a K0 element {b: class}."""
    ghat = Character(datum.ambient, (g,))
    out = {}
    for b, cls in x.items():
        b2 = b + datum.restrict(ghat)
        _, h = lift_offset(datum, None, b2, ghat + lift(datum, None, b))
        out[b2] = kdata.twist(h).apply(cls)
    return out


def test_rg_action_by_zero_is_identity():
    datum, kdata = mod2_node()
    x = {Character(C2, (0,)): (1, 2), Character(C2, (1,)): (0, 1)}
    assert act(0, x, datum, kdata) == x
    assert kdata.twist((0,)) == AbHom.identity(Z2)
    assert kdata.odd.twist((0,)) == AbHom.identity(TRIV)


def test_rg_action_translates_grading():
    datum, kdata = mod2_node()
    x = {Character(C2, (0,)): (1, 0)}
    # lifts are 0 and 1, so the connecting kernel element is 1 + 0 - 1 = 0
    assert act(1, x, datum, kdata) == {Character(C2, (1,)): (1, 0)}


def test_rg_action_by_kernel_character_twists():
    datum, kdata = mod2_node()
    x = {Character(C2, (0,)): (0, 1)}
    assert datum.kernel_coordinates(Character(Z, (2,))) == (1,)
    assert act(2, x, datum, kdata) == {Character(C2, (0,)): (1, 1)}


def test_rg_action_is_a_group_action():
    datum, kdata = mod2_node()
    x = {Character(C2, (1,)): (2, -1)}
    assert act(3, act(2, x, datum, kdata), datum, kdata) == act(5, x, datum, kdata)
    assert kdata.twist((1,)) @ kdata.twist((1,)) == kdata.twist((2,))
    assert kdata.twist((2,)) @ kdata.twist((-2,)) == kdata.twist((0,))


@settings(max_examples=40)
@given(g1=st.integers(-3, 3), g2=st.integers(-3, 3), ev=st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_rg_action_composition_property(g1, g2, ev):
    datum, kdata = mod2_node()
    x = {Character(C2, (0,)): ev}
    assert act(g1, act(g2, x, datum, kdata), datum, kdata) == act(g1 + g2, x, datum, kdata)
    assert kdata.twist((g1,)) @ kdata.twist((g2,)) == kdata.twist((g1 + g2,))


# -- products with a trivially-acting factor ---------------------------------------


def test_product_with_trivial_group_keeps_ranks():
    base, prod = sphere_rotation(), product_trivial(())
    kw, pw = base.windows(1), prod.windows(1)
    for label in sorted(base.tree.nodes):
        assert action_node_k(prod, label, pw) == action_node_k(base, label, kw)
        assert len(pw[label]) == len(kw[label])


@pytest.mark.parametrize("torsion,factor", [((2,), 2), ((3,), 3)])
def test_product_multiplies_sector_count(torsion, factor):
    base, prod = sphere_rotation(), product_trivial(torsion)
    kw, pw = base.windows(1), prod.windows(1)
    for label in sorted(base.tree.nodes):
        k, p = action_node_k(base, label, kw), action_node_k(prod, label, pw)
        assert len(pw[label]) == factor * len(kw[label])
        assert p == (factor * k[0], factor * k[1])
        # every new sector is a copy of an old one
        kk, pk = base.spaces[label].kdata, prod.spaces[label].kdata
        assert pk.k0 == kk.k0 and pk.k1 == kk.k1


def test_product_action_twists_by_kernel_characters():
    base, prod = projective_plane(), product_trivial((2,), projective_plane())
    datum = prod.tree.nodes["0"]
    hhat = datum.kernel_basis[0]
    assert hhat.coords == (1, 0)
    h = datum.kernel_coordinates(hhat)
    assert h == (1,)
    twist = prod.spaces["0"].kdata.twist(h)
    assert twist == base.spaces["0"].kdata.twist(h)
    assert twist.apply((1, 0)) == (1, 1)


# -- six-term arithmetic -----------------------------------------------------------


def test_instance_validation():
    zeros = (0,) * 6
    with pytest.raises(ValueError, match="six"):
        SixTermInstance((1, 2, 3), zeros)
    with pytest.raises(ValueError, match="nonnegative"):
        SixTermInstance((1, 0, 0, 0, 0, -1), zeros)
    with pytest.raises(ValueError, match="six"):
        SixTermInstance(zeros, ranks=(0, 0))
    assert SixTermInstance((2, 1, 1, 0, 0, 0), zeros).alternating_sum() == 2


@pytest.mark.parametrize("dims,ranks", [
    pytest.param((1, 0, None, 0, 0, 0), (0,) * 6, id="dim"),
    pytest.param((0,) * 6, (0, None, 0, 0, 0, 0), id="rank"),
    pytest.param((0,) * 6, (None,) * 6, id="all-ranks"),
])
def test_instance_refuses_unknowns(dims, ranks):
    with pytest.raises(ValueError, match="nonnegative ints"):
        SixTermInstance(dims, ranks)


def test_instance_requires_ranks():
    with pytest.raises(TypeError):
        SixTermInstance((0,) * 6)
    with pytest.raises(TypeError):
        SixTermInstance((0,) * 6, ranks=None)


def test_hexagon_check_all_zero():
    rep = hexagon_check(SixTermInstance((0,) * 6, ranks=(0,) * 6))
    assert rep.ok


def test_hexagon_check_rank_one_loop():
    inst = SixTermInstance((1, 1, 0, 0, 0, 0), ranks=(1, 0, 0, 0, 0, 0))
    rep = hexagon_check(inst)
    assert rep.ok


def test_hexagon_check_detects_rank_failure():
    inst = SixTermInstance((1, 1, 0, 0, 0, 0), ranks=(0, 0, 0, 0, 0, 0))
    rep = hexagon_check(inst)
    assert not rep.ok
    assert any("exact at" in name for name, _ in rep.failures())


def test_hexagon_check_refutes_impossible_dims():
    # alternating sum 1 - 0 + 1 = 2, and the zero neighbours of the first
    # position force both of its ranks to 0
    rep = hexagon_check(SixTermInstance((1, 0, 1, 0, 0, 0), ranks=(0, 0, 1, 0, 0, 0)))
    assert not rep.ok
    details = dict(rep.failures())
    assert details["alternating dimension sum vanishes"] == "sum = 2"
    assert "dim 1 != rank-in 0 + rank-out 0" in details["exact at even relative"]


def test_hexagon_check_names_the_condition_that_fails():
    rep = hexagon_check(SixTermInstance((1, 0, 1, 0, 0, 0), ranks=(0, 0, 1, 0, 0, 0)))
    details = dict(rep.failures())
    # the sum holds at the even quotient; only the rank bound fails there
    assert details["exact at even quotient"] == "rank-out 1 > min(dim 1, next dim 0)"
    assert details["exact at even relative"] == "dim 1 != rank-in 0 + rank-out 0"
    rep = hexagon_check(SixTermInstance((0,) * 6, ranks=(1, 0, 0, 0, 0, 0)))
    assert dict(rep.failures())["exact at even relative"] == (
        "dim 0 != rank-in 0 + rank-out 1; rank-out 1 > min(dim 0, next dim 0)"
    )


def test_hexagon_check_odd_alternating_sum_fails():
    rep = hexagon_check(SixTermInstance((1, 0, 0, 0, 0, 0), ranks=(0,) * 6))
    assert not rep.ok
    assert any("alternating" in name for name, _ in rep.failures())


def test_hexagon_check_rows_are_fixed():
    rep = hexagon_check(SixTermInstance((1, 1, 0, 0, 0, 0), ranks=(1, 0, 0, 0, 0, 0)))
    assert [name for name, _, _ in rep.checks] == [
        "alternating dimension sum vanishes",
        *(f"exact at {label}" for label in LES_LABELS),
    ]


@settings(max_examples=30)
@given(r=st.lists(st.integers(0, 3), min_size=6, max_size=6))
def test_hexagon_check_accepts_every_exact_hexagon(r):
    dims = tuple(r[i - 1] + r[i] for i in range(6))
    inst = SixTermInstance(dims, ranks=tuple(r))
    assert hexagon_check(inst).ok
