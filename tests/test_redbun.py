"""Twisted tables: canonicalization, operations, and tree compatibility."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvedk.action import ResolvedAction, WindowRule
from resolvedk.basespace import KData, NodeSpaceData, CochainComplex, TwistedMaps
from resolvedk.chargroup import Character, SubgroupDatum, offset_section, section
from resolvedk.fgab import AbHom, FgAbGroup
from resolvedk.fixtures import (
    product_trivial,
    projective_plane,
    sphere_rotation,
    sphere_rotation_speed,
)
from resolvedk.itspace import IsotropyTree
from resolvedk.redbun import (
    augmented_pullback,
    TwistedTable,
    canonical_bundle,
    canonicalize,
    check_iterated,
    face_restriction,
)

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.free(2)
TRIV = FgAbGroup.free(0)
C2 = FgAbGroup(0, (2,))
C4 = FgAbGroup(0, (4,))

SIGMA = AbHom(Z2, Z2, [[1, 1], [0, 1]])


def mod2_node():
    """Ambient Z restricting onto Z/2; K0 = Z^2 with a unipotent twist."""
    datum = SubgroupDatum(AbHom(Z, C2, [[1]]))
    kdata = KData(Z2, TRIV, [SIGMA], [AbHom.identity(TRIV)], AbHom(Z2, Z, [[1, 0]]))
    return datum, kdata


def free_orbit_node():
    """Trivial isotropy: every character restricts to the trivial one."""
    datum = SubgroupDatum(AbHom(Z, TRIV, []))
    kdata = KData.trivial_shifts(Z, TRIV, AbHom.identity(Z), 1)
    return datum, kdata


def test_canonicalize_twisting_convention():
    datum, kdata = mod2_node()
    w = canonicalize({3: (0, 1)}, datum, kdata)
    assert w.table == {Character(Z, (1,)): (1, 1)}
    again = canonicalize(w.table, datum, kdata)
    assert again.table == w.table


def test_shift_act():
    # translating a table by a kernel character k twists every value by
    # sigma(k / 2) and keeps the support: twice for k = 4, inversely for -2
    datum, kdata = mod2_node()
    base = {0: (1, 0), 1: (0, 1)}
    for k, twist in ((0, AbHom.identity(Z2)), (2, SIGMA), (4, SIGMA @ SIGMA), (-2, SIGMA.inverse())):
        moved = canonicalize({g + k: v for g, v in base.items()}, datum, kdata)
        assert moved.table == {Character(Z, (g,)): twist.apply(v) for g, v in base.items()}

    # the twist is only defined for characters of the kernel lattice
    with pytest.raises(ValueError, match="kernel"):
        datum.kernel_coordinates(Character(Z, (1,)))


def test_canonicalize_merges_matching_restrictions():
    datum, kdata = free_orbit_node()
    w = canonicalize({2: (1,), 4: (2,)}, datum, kdata)
    assert w.table == {Character(Z, (0,)): (3,)}


def test_canonicalize_drops_zero_totals():
    datum, kdata = mod2_node()
    w = canonicalize({0: (1, 0), 2: (-1, 0)}, datum, kdata)
    assert w.is_zero()
    assert w.get(Character(Z, (0,))) == (0, 0)


def test_canonicalize_rejects_foreign_characters():
    datum, kdata = mod2_node()
    with pytest.raises(ValueError):
        canonicalize({(1, 2): (1, 0)}, datum, kdata)
    with pytest.raises(ValueError, match="ambient"):
        canonicalize({Character(C2, (1,)): (1, 0)}, datum, kdata)


def test_augmented_pullback_worked_value():
    # rank-0 kernel downstairs, index-two subgroup upstairs: the entries at
    # characters 1 and 3 both land at the lift of the odd character, the
    # second twisted once.
    shallow, kdata = mod2_node()
    deep = SubgroupDatum(AbHom.identity(Z))
    deep_kdata = KData(Z2, TRIV, [], [], AbHom(Z2, Z, [[1, 0]]))
    w = canonicalize({1: (1, 0), 3: (0, 1)}, deep, deep_kdata)
    out = augmented_pullback(
        TwistedMaps(kdata, None, AbHom.identity(Z2)), shallow, AbHom(Z, C2, [[1]]), w
    )
    assert out.table == {Character(Z, (1,)): (2, 1)}


def test_pullback_with_equal_isotropy_is_plain_pullback():
    datum, _ = mod2_node()
    kdata = KData.trivial_shifts(Z, TRIV, AbHom.identity(Z), 1)
    w = canonicalize({0: (1,), 1: (3,)}, datum, kdata)
    out = augmented_pullback(
        TwistedMaps(kdata, None, AbHom(Z, Z, [[2]])), datum, AbHom.identity(C2), w
    )
    assert out.table == {Character(Z, (0,)): (2,), Character(Z, (1,)): (6,)}


def test_sphere_pole_edge():
    act = sphere_rotation()
    bundles = canonical_bundle(act, "poles")
    fm = act.faces[("0", "N")]
    pulled = augmented_pullback(
        fm.classes, act.tree.nodes["0"], act.tree.edge_restriction("0", "N"), bundles["N"]
    )
    assert pulled.table == {Character(Z, (0,)): (3,)}
    restricted = face_restriction(fm.classes, bundles["0"])
    assert restricted.table == pulled.table

    report = check_iterated(act, "poles")
    assert report.ok
    assert len(report.checks) == 2


def test_single_node_is_vacuously_consistent():
    datum = SubgroupDatum(AbHom.identity(C2))
    pt = CochainComplex.point()
    space = NodeSpaceData(pt, [], KData.trivial_shifts(Z, TRIV, AbHom.identity(Z), 0))
    act = ResolvedAction(
        IsotropyTree({"0": datum}, []),
        {"0": space},
        {},
        {"0": WindowRule.full()},
        bundles={"b": {"0": {(0,): (1,), (1,): (2,)}}},
    )
    report = check_iterated(act, "b")
    assert report.ok
    assert len(report.checks) == 0


def test_check_iterated_plane_corners():
    act = projective_plane()
    report = check_iterated(act, "tautological")
    assert report.ok, str(report)
    names = [name for name, _, _ in report.checks]
    assert "corner 0<s<p1 pullback factorization" in names
    assert "corner 0<s<p3 pullback factorization" in names
    assert sum(1 for n in names if n.startswith("edge")) == len(
        act.tree.comparable_pairs()
    )


def test_check_iterated_names_broken_edge():
    base = sphere_rotation()
    broken = {
        "poles": {
            "0": {(0,): (3,)},
            "N": {(0,): (5,), (3,): (1,)},
            "S": {(0,): (3,)},
        }
    }
    act = ResolvedAction(
        base.tree, base.spaces, base.faces, base.window_rules,
        corners=base.corners, bundles=broken, chern=base.chern,
    )
    report = check_iterated(act, "poles")
    assert not report.ok
    assert any("edge 0<N" in name for name, ok, _ in report.checks if not ok)
    assert all(ok for name, ok, _ in report.checks if "0<S" in name)


def test_missing_bundle_name():
    act = sphere_rotation()
    with pytest.raises(ValueError, match="no bundle named"):
        canonical_bundle(act, "nope")


def test_section_change_twists_tables():
    datum, kdata = mod2_node()
    base = section(datum, [(0,), (1,)])
    moved = offset_section(base, {Character(C2, (1,)): (1,)})
    raw = {0: (2, 3), 1: (1, 0), 3: (0, 1)}
    w1 = canonicalize(raw, datum, kdata, section=base)
    w2 = canonicalize(raw, datum, kdata, section=moved)
    for b, lift in base.table.items():
        twist = kdata.twist(
            [-c for c in datum.kernel_coordinates(moved(b) - lift)]
        )
        assert w2.get(moved(b)) == twist.apply(w1.get(lift))
    # spot values
    assert w1.get(Character(Z, (1,))) == (2, 1)
    assert w2.get(Character(Z, (3,))) == (1, 1)


def _chern(space, reps, cls):
    """The Chern representative of a K0 class: its coordinates against `reps`."""
    vec = [Fraction(0)] * space.complex.total_dim
    for c, rep in zip(cls, reps):
        for i, x in enumerate(rep):
            vec[i] += c * Fraction(x)
    return tuple(vec)


def _offset_sections(action, radius, seed):
    windows = action.windows(radius)
    rng = random.Random(seed)
    out = {}
    for label, sec in action.sections(windows).items():
        rank = action.tree.nodes[label].kernel_rank
        out[label] = offset_section(sec, {
            b: tuple(rng.randint(-2, 2) for _ in range(rank)) for b in sec.table
        }) if rank else sec
    return out


@pytest.mark.parametrize("seed", [None, 1, 2], ids=["canonical", "offset1", "offset2"])
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(sphere_rotation, id="sphere"),
        pytest.param(lambda: sphere_rotation_speed(3), id="speed3"),
        pytest.param(projective_plane, id="plane"),
        pytest.param(lambda: product_trivial((2,)), id="product2"),
    ],
)
def test_chern_character_intertwines_the_two_canonicalizations(build, seed):
    # canonicalizing K0 classes and then taking Chern representatives
    # entrywise equals canonicalizing the forms of the raw entries, because
    # the representatives intertwine sigma(h) with exp(L(h))
    action = build()
    sections = None if seed is None else _offset_sections(action, 3, seed)
    for name, per_node in sorted(action.bundles.items()):
        for label, datum in sorted(action.tree.nodes.items()):
            space = action.spaces[label]
            reps = action.chern.reps[label]
            raw = per_node.get(label, {})
            section = sections[label] if sections else None
            classes = canonicalize(raw, datum, space.kdata, section=section)
            forms = canonicalize(
                {g: _chern(space, reps, cls) for g, cls in raw.items()},
                datum, space, section=section,
            )
            assert forms.table, f"{name} at {label} has no forms to compare"
            charted = TwistedTable(label, datum, space, {
                g: _chern(space, reps, cls) for g, cls in classes.table.items()
            })
            assert charted == forms, f"{name} at {label}"


def deep_mod4():
    datum = SubgroupDatum(AbHom(Z, C4, [[1]]))
    sigma4 = AbHom(Z2, Z2, [[1, 2], [0, 1]])
    kdata = KData(Z2, TRIV, [sigma4], [AbHom.identity(TRIV)], AbHom(Z2, Z, [[1, 0]]))
    return datum, kdata


def test_pullback_value_independent_of_deep_section():
    shallow, shallow_kdata = mod2_node()
    deep, deep_kdata = deep_mod4()
    raw = {0: (1, 0), 1: (0, 1), 2: (1, 1), 3: (2, 0)}
    w_canon = canonicalize(raw, deep, deep_kdata)
    tau2 = offset_section(
        section(deep, [(0,), (1,), (2,), (3,)]), {Character(C4, (1,)): (1,)}
    )
    w_moved = canonicalize(raw, deep, deep_kdata, section=tau2)
    assert w_canon.table != w_moved.table  # genuinely different presentations

    def pull(w):
        return augmented_pullback(
            TwistedMaps(shallow_kdata, None, AbHom.identity(Z2)), shallow, AbHom(C4, C2, [[1]]), w
        ).table

    expected = {Character(Z, (0,)): (3, 1), Character(Z, (1,)): (2, 1)}
    assert pull(w_canon) == expected
    assert pull(w_moved) == expected


def test_pullback_commutes_with_sum_and_kernel_shift():
    shallow, shallow_kdata = mod2_node()
    deep, deep_kdata = deep_mod4()
    edge = AbHom(C4, C2, [[1]])

    def pull(w):
        return augmented_pullback(
            TwistedMaps(shallow_kdata, None, AbHom.identity(Z2)), shallow, edge, w
        ).table

    raw1 = {0: (1, 0), 1: (0, 1), 2: (1, 1), 3: (2, 0)}
    raw2 = {1: (1, 1), 2: (0, 2)}
    w1 = canonicalize(raw1, deep, deep_kdata)
    w2 = canonicalize(raw2, deep, deep_kdata)
    # the sum of the two tables is the canonical form of the summed raw table
    both = {g: Z2.add(raw1.get(g, Z2.zero()), raw2.get(g, Z2.zero())) for g in raw1.keys() | raw2.keys()}
    summed = pull(canonicalize(both, deep, deep_kdata))
    parts = {
        g: Z2.add(cls, pull(w2).get(g, Z2.zero()))
        for g, cls in pull(w1).items()
    }
    for g in set(summed) | set(parts):
        assert summed.get(g, Z2.zero()) == parts.get(g, Z2.zero())

    # the translate of the table by the kernel character 4
    shifted = pull(canonicalize({g + 4: v for g, v in raw1.items()}, deep, deep_kdata))
    twist = SIGMA @ SIGMA  # the deep generator maps to twice the shallow one
    assert shifted == {g: twist.apply(cls) for g, cls in pull(w1).items()}
    assert shifted == {
        Character(Z, (0,)): (5, 1),
        Character(Z, (1,)): (4, 1),
    }


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=-5, max_value=5),
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-3, max_value=3),
        ),
        max_size=6,
    )
)
def test_canonicalize_idempotent_property(raw):
    datum, kdata = mod2_node()
    table = {(g,): cls for g, cls in raw.items()}
    w = canonicalize(table, datum, kdata)
    assert canonicalize(w.table, datum, kdata).table == w.table
    assert all(g.coords in ((0,), (1,)) for g in w.table)
