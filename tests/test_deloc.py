"""Delocalized model: exponential twists, assembly, pruning sequences, Chern."""

import importlib
import itertools
import pkgutil
import random
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resolvedk
from resolvedk import basespace, deloc, ratmat
from resolvedk.action import ChernData, ResolvedAction, WindowError, WindowRule
from resolvedk.basespace import (
    ChainMap,
    CochainComplex,
    FaceMaps,
    KData,
    KPair,
    NodeSpaceData,
    ch_operator,
)
from resolvedk.chargroup import (
    Character,
    SubgroupDatum,
    edge_image,
    lift,
    offset_section,
    section,
)
from resolvedk.deloc import (
    assemble_complex,
    chern_character,
    compare_ranks,
    deloc_cohomology,
    les_of_pruning,
    pruning_walk,
    validate_chern_data,
    window_stabilization,
)
from resolvedk.fgab import AbHom, FgAbGroup
from resolvedk.fixtures import (
    product_trivial,
    projective_plane,
    random_action,
    sphere_rotation,
    sphere_rotation_speed,
)
from resolvedk.itspace import IsotropyTree
from resolvedk.ktheory import LES_LABELS, rational_global_k
from resolvedk.ratmat import RationalMatrix
from resolvedk.redbun import (
    TwistedTable,
    augmented_pullback,
    canonicalize,
    corner_mismatch,
    face_comparisons,
    face_restriction,
)

Z = FgAbGroup.free(1)
TRIV = FgAbGroup.free(0)


def counting_oracle(m):
    """Even dimension of the rotation sphere at window radius m.

    A compatible tuple is a pair of integer tables on the two pole windows
    (2m+1 entries each) with equal total sums; the interval part is the
    shared constant, already determined by either sum.
    """
    return 2 * (2 * m + 1) - 1


def plane_root():
    sphere = projective_plane()
    return sphere.tree.nodes["0"], sphere.spaces["0"]


def free_circle_action(bundles=None, chern=None, expected=None):
    """One free node modelling a circle orbit: dims (1, 1), zero differential."""
    datum = SubgroupDatum(AbHom(Z, TRIV, []))
    circle = CochainComplex((1, 1))
    space = NodeSpaceData(
        circle,
        [ChainMap.zero(circle, circle, degree=2)],
        KData.trivial_shifts(Z, Z, AbHom.identity(Z), 1),
    )
    tree = IsotropyTree({"n": datum}, [])
    return ResolvedAction(
        tree, {"n": space}, {}, {"n": WindowRule.full()},
        bundles=bundles, chern=chern, expected=expected,
    )


def fixed_point_action(window_rule):
    """One point with full isotropy."""
    datum = SubgroupDatum(AbHom.identity(Z))
    pt = CochainComplex.point()
    space = NodeSpaceData(pt, [], KData.trivial_shifts(Z, TRIV, AbHom.identity(Z), 0))
    tree = IsotropyTree({"n": datum}, [])
    return ResolvedAction(tree, {"n": space}, {}, {"n": window_rule})


def equal_isotropy_pair(deep_rule):
    """Two fully fixed points with an identity edge between them."""
    whole = SubgroupDatum(AbHom.identity(Z))
    pt = CochainComplex.point()
    space = NodeSpaceData(pt, [], KData.trivial_shifts(Z, TRIV, AbHom.identity(Z), 0))
    kid = KPair(AbHom.identity(Z), AbHom.identity(TRIV))
    face = FaceMaps(space, ChainMap.identity(pt), ChainMap.identity(pt), kid, kid)
    tree = IsotropyTree({"a": whole, "b": whole}, [("a", "b")])
    return ResolvedAction(
        tree,
        {"a": space, "b": space},
        {("a", "b"): face},
        {"a": WindowRule.ball(1), "b": deep_rule},
    )


# -- character exponentials --------------------------------------------------------


def kernel_twist(coords, datum, space):
    """exp(L(h)) of the ambient character with `coords`, h its kernel coordinates."""
    return space.twist(datum.kernel_coordinates(Character(datum.ambient, coords)))


def test_ch_identity_when_shifts_vanish():
    sphere = sphere_rotation()
    datum, space = sphere.tree.nodes["0"], sphere.spaces["0"]
    for k in (-2, 0, 5):
        assert kernel_twist((k,), datum, space) == RationalMatrix.identity(3)


def test_ch_single_nilpotent_step():
    datum, space = plane_root()
    for k in (1, 2, -3):
        expect = RationalMatrix([[1, 0], [k, 1]])
        assert kernel_twist((k,), datum, space) == expect


def test_ch_is_multiplicative():
    datum, space = plane_root()
    two, three = kernel_twist((2,), datum, space), kernel_twist((3,), datum, space)
    assert two @ three == kernel_twist((5,), datum, space)
    inv = kernel_twist((-2,), datum, space)
    assert two @ inv == RationalMatrix.identity(2)


def test_ch_requires_kernel_character():
    sphere = sphere_rotation()
    with pytest.raises(ValueError, match="kernel lattice"):
        kernel_twist((1,), sphere.tree.nodes["N"], sphere.spaces["N"])


def test_exp_rejects_non_nilpotent():
    with pytest.raises(ValueError, match="nilpotent"):
        basespace._exp_nilpotent(RationalMatrix.identity(2))


def test_ch_operator_coefficient_count():
    _, space = plane_root()
    with pytest.raises(ValueError, match="coefficient"):
        ch_operator(space.shifts, (1, 2), 2)


# -- canonical form sectors --------------------------------------------------------


def test_canonicalize_form_additive_when_untwisted():
    sphere = sphere_rotation()
    datum, space = sphere.tree.nodes["0"], sphere.spaces["0"]
    v = canonicalize({5: (1, 2, 0), 0: (1, 0, 0)}, datum, space)
    assert v.table == {Character(Z, (0,)): (1 + 1, 2, 0)}


def test_canonicalize_form_applies_nilpotent_twist():
    datum, space = plane_root()
    v = canonicalize({3: (1, 2)}, datum, space)
    assert v.table == {Character(Z, (0,)): (Fraction(1), Fraction(5))}
    again = canonicalize(v.table, datum, space)
    assert again == v


def test_canonicalize_form_zero_drop_and_errors():
    datum, space = plane_root()
    assert canonicalize({2: (0, 0)}, datum, space).table == {}
    with pytest.raises(ValueError, match="ambient"):
        canonicalize({Character(FgAbGroup(0, (2,)), (1,)): (1, 0)}, datum, space)
    with pytest.raises(ValueError, match="length"):
        canonicalize({0: (1, 0, 0)}, datum, space)


def test_canonicalize_form_with_offset_section():
    datum, space = plane_root()
    base = section(datum, [Character(TRIV, ())])
    moved = offset_section(base, {Character(TRIV, ()): (2,)})
    v = canonicalize({3: (1, 0)}, datum, space, section=moved)
    assert v.table == {Character(Z, (2,)): (Fraction(1), Fraction(1))}


@settings(max_examples=40)
@given(
    entries=st.dictionaries(
        st.integers(-3, 3),
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        max_size=4,
    )
)
def test_canonicalize_form_idempotent(entries):
    datum, space = plane_root()
    v = canonicalize(entries, datum, space)
    assert canonicalize(v.table, datum, space) == v
    for ghat in v.support():
        assert ghat == datum.canonical_representative(datum.restrict(ghat))


# -- face restriction and pullback of forms -----------------------------------------


def test_face_restriction_forms_evaluates():
    sphere = sphere_rotation()
    datum, space = sphere.tree.nodes["0"], sphere.spaces["0"]
    v = TwistedTable("0", datum, space, {Character(Z, (0,)): (4, 7, 1)})
    north = face_restriction(sphere.faces[("0", "N")].forms, v)
    south = face_restriction(sphere.faces[("0", "S")].forms, v)
    assert north.table == {Character(Z, (0,)): (Fraction(4),)}
    assert south.table == {Character(Z, (0,)): (Fraction(7),)}


def test_augmented_pullback_forms_twists_by_exponential():
    plane = projective_plane()
    fm = plane.faces[("0", "p2")]
    edge = plane.tree.edge_restriction("0", "p2")
    root_datum = plane.tree.nodes["0"]
    deep_datum = plane.tree.nodes["p2"]
    for g in (2, -1):
        v = TwistedTable("p2", deep_datum, plane.spaces["p2"],
                         {Character(Z, (g,)): (5,)})
        out = augmented_pullback(fm.forms, root_datum, edge, v)
        assert out.table == {Character(Z, (0,)): (Fraction(5), Fraction(5 * g))}


def test_augmented_pullback_forms_sums_over_fiber():
    sphere = sphere_rotation()
    fm = sphere.faces[("0", "N")]
    edge = sphere.tree.edge_restriction("0", "N")
    v = TwistedTable(
        "N", sphere.tree.nodes["N"], sphere.spaces["N"],
        {Character(Z, (-1,)): (2,), Character(Z, (0,)): (3,), Character(Z, (1,)): (4,)},
    )
    out = augmented_pullback(fm.forms, sphere.tree.nodes["0"], edge, v)
    assert out.table == {Character(Z, (0,)): (Fraction(9),)}


def test_plain_pullback_on_equal_isotropy_edge():
    act = equal_isotropy_pair(WindowRule.ball(1))
    fm = act.faces[("a", "b")]
    edge = act.tree.edge_restriction("a", "b")
    v = TwistedTable("b", act.tree.nodes["b"], act.spaces["b"],
                     {Character(Z, (1,)): (6,)})
    out = augmented_pullback(fm.forms, act.tree.nodes["a"], edge, v)
    assert out.table == {Character(Z, (1,)): (Fraction(6),)}


def test_pullback_forms_commute_with_differential():
    sphere = sphere_rotation()
    fm = sphere.faces[("0", "S")]
    edge = sphere.tree.edge_restriction("0", "S")
    v = TwistedTable("S", sphere.tree.nodes["S"], sphere.spaces["S"],
                     {Character(Z, (1,)): (3,)})

    def apply_d(w):
        d = w.coefficients.complex.d
        return TwistedTable(w.label, w.datum, w.coefficients,
                            {g: d.apply(x) for g, x in w.table.items()})

    direct = augmented_pullback(fm.forms, sphere.tree.nodes["0"], edge, apply_d(v))
    other = apply_d(augmented_pullback(fm.forms, sphere.tree.nodes["0"], edge, v))
    assert direct == other


def test_corner_forms_factorization_on_plane():
    # every basis cochain of the deep node over its radius-1 window
    plane = projective_plane()
    windows = plane.windows(1)
    for chain in sorted(plane.corners):
        g = chain[2]
        datum, space = plane.tree.nodes[g], plane.spaces[g]
        dim = space.complex.total_dim
        for khat in windows[g]:
            for i in range(dim):
                v = TwistedTable(g, datum, space,
                                 {datum.canonical_representative(khat): _unit(dim, i)})
                assert corner_mismatch(plane, chain, attrgetter("forms"), v) == ""


# -- assembling the global complex ---------------------------------------------------


def test_assembly_sorts_each_character_once(monkeypatch):
    calls = []
    original = IsotropyTree.root_image

    def counting(self, label, khat):
        calls.append((label, khat))
        return original(self, label, khat)

    monkeypatch.setattr(IsotropyTree, "root_image", counting)
    # the plane has one root sector, the torsion-2 product two
    for act in (projective_plane(), product_trivial((2,))):
        tree = act.tree
        windows = act.windows(4)
        pairs = sum(len(windows[label]) for label in tree.nodes if label != tree.root)
        calls.clear()
        assemble_complex(act, radius=4)
        assert 0 < len(calls) <= pairs


def test_single_free_node_is_the_node_complex():
    act = free_circle_action()
    asm = assemble_complex(act)
    (sec,) = asm.sectors.values()
    assert sec.total == 2
    assert sec.constraint.nrows == 0
    dims = deloc_cohomology(asm)
    assert (dims.even, dims.odd) == (1, 1)


def test_fixed_point_single_window_character():
    act = fixed_point_action(WindowRule.explicit([(5,)]))
    dims = deloc_cohomology(assemble_complex(act))
    assert (dims.even, dims.odd) == (1, 0)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_sphere_dimensions_match_counting_oracle(m):
    sphere = sphere_rotation()
    dims = deloc_cohomology(assemble_complex(sphere, radius=m))
    assert dims.even == counting_oracle(m) == 4 * m + 1
    assert dims.odd == 0
    declared = sphere.expected["deloc_dims_by_radius"][str(m)]
    assert [dims.even, dims.odd] == declared


def test_sphere_relative_both_poles():
    sphere = sphere_rotation()
    asm = assemble_complex(sphere, prune=("N", "S"), radius=1)
    (sec,) = asm.sectors.values()
    # interval forms vanishing at both endpoints
    assert sec.basis(0).ncols == 0
    assert sec.basis(1).ncols == 1
    dims = deloc_cohomology(asm)
    assert (dims.even, dims.odd) == (0, 1)


def test_sphere_relative_one_pole():
    sphere = sphere_rotation()
    dims = deloc_cohomology(assemble_complex(sphere, prune=("N",), radius=1))
    assert (dims.even, dims.odd) == (2, 0)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_plane_dimensions(m):
    plane = projective_plane()
    dims = deloc_cohomology(assemble_complex(plane, radius=m))
    declared = plane.expected["deloc_dims_by_radius"][str(m)]
    assert [dims.even, dims.odd] == declared
    assert dims.even == (1 if m == 0 else 6 * m)
    assert dims.odd == 0


@pytest.mark.parametrize("n", [2, 3])
def test_speed_n_multiplies_dimensions(n):
    base = deloc_cohomology(assemble_complex(sphere_rotation(), radius=1))
    fast = deloc_cohomology(assemble_complex(sphere_rotation_speed(n), radius=1))
    assert (fast.even, fast.odd) == (n * base.even, n * base.odd)
    # split evenly across the root sectors
    assert sorted(fast.sectors.values()) == [(4 + 1, 0)] * n


def test_product_doubles_every_sector():
    prod = product_trivial((2,))
    dims = deloc_cohomology(assemble_complex(prod, radius=1))
    assert (dims.even, dims.odd) == (10, 0)
    assert sorted(dims.sectors.values()) == [(5, 0), (5, 0)]


@pytest.mark.parametrize(
    "build, even",
    [
        pytest.param(sphere_rotation, 41, id="sphere"),
        pytest.param(lambda: sphere_rotation_speed(3), 123, id="speed3"),
        pytest.param(projective_plane, 60, id="plane"),
        pytest.param(lambda: product_trivial((2,)), 82, id="product2"),
    ],
)
def test_closed_forms_at_radius_ten(build, even):
    # docs/: sphere 4m+1, speed-n n(4m+1), plane 6m, product d(4m+1); odd 0
    dims = deloc_cohomology(assemble_complex(build(), radius=10))
    assert (dims.even, dims.odd) == (even, 0)


def test_assemble_rejects_bad_prunes():
    sphere = sphere_rotation()
    with pytest.raises(ValueError, match="unknown"):
        assemble_complex(sphere, prune=("X",))
    with pytest.raises(ValueError):
        assemble_complex(sphere, prune=("0",))  # poles would lose their root


def test_assemble_names_unsaturated_edge():
    act = equal_isotropy_pair(WindowRule.ball(1))
    act.window_rules["a"] = WindowRule.explicit([(0,)])
    with pytest.raises(WindowError, match="a<b"):
        assemble_complex(act)


@pytest.mark.parametrize("maps, message", [
    # a crooked restriction with a chain-map pullback
    (lambda interval, pt: (
        ChainMap(interval, interval, [[1, 0, 0], [0, 2, 0], [0, 0, 1]]),
        ChainMap(pt, interval, [[1], [1], [0]]),
    ), "face a<b: rho is a chain map: fails"),
    # a chain-map restriction with a pullback whose d @ P has the entry -1
    (lambda interval, pt: (
        ChainMap.identity(interval),
        ChainMap(pt, interval, [[1], [0], [0]]),
    ), "face a<b: pullback is a chain map: fails"),
], ids=["restriction", "pullback"])
def test_assemble_rejects_non_chain_map_faces(maps, message):
    interval = CochainComplex((2, 1), [[[-1, 1]]])
    trivial = SubgroupDatum(AbHom(Z, TRIV, []))
    whole = SubgroupDatum(AbHom.identity(Z))
    tree = IsotropyTree({"a": trivial, "b": whole}, [("a", "b")])
    root = NodeSpaceData(
        interval,
        [ChainMap.zero(interval, interval, degree=2)],
        KData.trivial_shifts(Z, TRIV, AbHom.identity(Z), 1),
    )
    pt = CochainComplex.point()
    deep = NodeSpaceData(pt, [], KData.trivial_shifts(Z, TRIV, AbHom.identity(Z), 0))
    face_space = NodeSpaceData(
        interval,
        [ChainMap.zero(interval, interval, degree=2)],
        KData.trivial_shifts(Z, TRIV, AbHom.identity(Z), 1),
    )
    kid = KPair(AbHom.identity(Z), AbHom.identity(TRIV))
    face = FaceMaps(face_space, *maps(interval, pt), kid, kid)
    act = ResolvedAction(
        tree, {"a": root, "b": deep}, {("a", "b"): face},
        {"a": WindowRule.full(), "b": WindowRule.ball(1)},
    )
    with pytest.raises(ValueError) as exc:
        assemble_complex(act)
    assert str(exc.value) == message


def test_assemble_refuses_an_invalid_tree_with_its_first_row():
    # b's kernel Z does not nest inside a's kernel 0; the tree rows come
    # before the (here missing) space and face data
    tree = IsotropyTree(
        {"a": SubgroupDatum(AbHom.identity(Z)), "b": SubgroupDatum(AbHom(Z, TRIV, []))},
        [("a", "b")],
    )
    act = ResolvedAction(tree, {}, {}, {})
    with pytest.raises(ValueError) as exc:
        assemble_complex(act)
    assert str(exc.value) == "tree: kernel lattices nest along the order: violated on edges a<b"


def test_assembled_differential_squares_to_zero_and_preserves_constraints():
    for act, radius in ((sphere_rotation(), 2), (projective_plane(), 1)):
        asm = assemble_complex(act, radius=radius)
        for sec in asm.sectors.values():
            assert (sec.diff @ sec.diff).is_zero()
            for parity in (0, 1):
                image = sec.constraint @ (sec.diff @ sec.basis(parity))
                assert image.is_zero()


def _broken_faces(action, tables):
    """The faces a<b whose forms-side restriction and pullback differ, in order."""
    return [
        f"{a}<{b}"
        for a, b, restriction, pullback in face_comparisons(action, attrgetter("forms"), tables)
        if restriction.table != pullback.table
    ]


def _sphere_tables(sphere, **values):
    return {
        label: TwistedTable(label, sphere.tree.nodes[label], sphere.spaces[label],
                            values.get(label, {}))
        for label in sphere.tree.nodes
    }


def test_face_comparisons_name_the_broken_face():
    # on the sphere, root slot 0 restricts to the N face and slot 1 to the S face
    sphere = sphere_rotation()
    at_zero = Character(Z, (0,))
    assert _broken_faces(sphere, _sphere_tables(sphere, **{"0": {at_zero: (1, 0, 0)}})) == ["0<N"]
    assert _broken_faces(sphere, _sphere_tables(sphere, **{"0": {at_zero: (0, 1, 0)}})) == ["0<S"]
    assert _broken_faces(sphere, _sphere_tables(sphere)) == []
    # pruned deep nodes carry no table: the shallow data must vanish on their faces
    root_only = {"0": _sphere_tables(sphere, **{"0": {at_zero: (1, 0, 0)}})["0"]}
    assert _broken_faces(sphere, root_only) == ["0<N"]


def test_face_comparisons_come_in_comparable_pair_order():
    sphere = sphere_rotation()
    at_zero = Character(Z, (0,))
    both = _sphere_tables(sphere, N={at_zero: (1,)}, S={at_zero: (1,)})
    assert _broken_faces(sphere, both) == ["0<N", "0<S"]
    assert _broken_faces(sphere, _sphere_tables(sphere, S={at_zero: (1,)})) == ["0<S"]
    # every compatible basis vector of the assembled complex meets every face condition
    (sec,) = assemble_complex(sphere, radius=0).sectors.values()
    for p in (0, 1):
        for col in sec.basis(p).columns():
            tables = {
                label: TwistedTable(label, sphere.tree.nodes[label], sphere.spaces[label],
                                    {lift(sphere.tree.nodes[label], None, khat): col[s0:s1]})
                for label, khat, s0, s1 in sec.blocks
            }
            assert _broken_faces(sphere, tables) == []


def test_class_coords_refuses_a_non_cocycle():
    asm = assemble_complex(sphere_rotation_speed(3), radius=1)
    found = 0
    for sec in asm.sectors.values():
        two = sec.two_periodic
        for p in (0, 1):
            basis = two.basis(p)
            image = two.d @ basis
            for j in range(basis.ncols):
                if any(image.column(j)):
                    # a cocycle column first, then one the differential moves
                    batch = RationalMatrix.from_columns(
                        [two.cocycles(p).column(0), basis.column(j)], nrows=basis.nrows
                    )
                    with pytest.raises(ArithmeticError, match="^vector is not a cocycle of the subcomplex$"):
                        two.class_coords(batch, p)
                    found += 1
    assert found > 0


def test_assembly_dimensions_independent_of_sections():
    sphere = sphere_rotation()
    windows = sphere.windows(2)
    secs = dict(sphere.sections(windows))
    secs["0"] = offset_section(secs["0"], {Character(TRIV, ()): (3,)})
    base = deloc_cohomology(assemble_complex(sphere, radius=2))
    moved = deloc_cohomology(assemble_complex(sphere, radius=2, sections=secs))
    assert (base.even, base.odd) == (moved.even, moved.odd)

    plane = projective_plane()
    pw = plane.windows(1)
    psecs = dict(plane.sections(pw))
    psecs["s"] = offset_section(
        psecs["s"], {b: (1,) for b in psecs["s"].table}
    )
    first = deloc_cohomology(assemble_complex(plane, radius=1))
    second = deloc_cohomology(assemble_complex(plane, radius=1, sections=psecs))
    assert (first.even, first.odd) == (second.even, second.odd)


@pytest.mark.parametrize("build", [sphere_rotation, projective_plane])
def test_a_section_that_misses_a_window_character_is_refused(build):
    # the face rows read every node's section on the characters they lift:
    # a section without a node's first window character is refused by name
    action = build()
    windows = action.windows(2)
    for label in sorted(action.tree.nodes):
        secs = action.sections(windows)
        secs[label] = section(action.tree.nodes[label], windows[label][1:])
        with pytest.raises(ValueError, match="outside the tabulated section support"):
            assemble_complex(action, radius=2, sections=secs)


def _unit(dim, i):
    return tuple(Fraction(int(j == i)) for j in range(dim))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(sphere_rotation, id="sphere"),
        pytest.param(lambda: sphere_rotation_speed(3), id="speed3"),
        pytest.param(projective_plane, id="plane"),
        pytest.param(lambda: product_trivial((2,)), id="product2"),
    ] + [pytest.param(lambda seed=seed: random_action(seed), id=f"random{seed}") for seed in range(8)],
)
@pytest.mark.parametrize("radius", [1, 2])
def test_face_blocks_match_the_forms_model(build, radius):
    # The forms model is the reference: each face row block is the face
    # restriction on the shallow columns and minus the augmented pullback of
    # every unit cochain at the deep lifts; every other column is zero.
    action = build()
    tree = action.tree
    full = assemble_complex(action, radius=radius)
    for chi, sec in full.sectors.items():
        expected = [
            (a, b, khat)
            for a, b in tree.comparable_pairs()
            for khat in full.windows[a]
            if (a, khat) in sec.spans
        ]
        assert len(expected) == len(sec.row_origins)
        for (a, b, khat), (desc, shallow, r0, r1) in zip(expected, sec.row_origins):
            assert (desc, shallow) == (f"face {a}<{b} at sector {khat.coords}", a)
            fm = action.faces[(a, b)]
            edge = tree.edge_restriction(a, b)
            rep_a = lift(tree.nodes[a], None, khat)
            rows = range(r0, r1)
            seen = set()

            def columns(label, char):
                s0, s1 = sec.spans[(label, char)]
                seen.update(range(s0, s1))
                return range(s0, s1)

            space = action.spaces[a]
            for j, col in enumerate(columns(a, khat)):
                v = TwistedTable(a, tree.nodes[a], space,
                                 {rep_a: _unit(space.complex.total_dim, j)})
                got = face_restriction(fm.forms, v)
                assert tuple(sec.constraint[i, col] for i in rows) == got.get(rep_a)
            space = action.spaces[b]
            for bhat in full.windows[b]:
                if edge_image(edge, bhat) != khat:
                    continue
                rep_b = lift(tree.nodes[b], None, bhat)
                for j, col in enumerate(columns(b, bhat)):
                    v = TwistedTable(b, tree.nodes[b], space,
                                     {rep_b: _unit(space.complex.total_dim, j)})
                    got = augmented_pullback(fm.forms, tree.nodes[a], edge, v)
                    assert set(got.table) <= {rep_a}
                    assert tuple(-sec.constraint[i, col] for i in rows) == got.get(rep_a)
            for col in set(range(sec.total)) - seen:
                assert all(sec.constraint[i, col] == 0 for i in rows)


# -- pruning long exact sequences ----------------------------------------------------


def test_sphere_pruning_steps_are_exact():
    sphere = sphere_rotation()
    for m in (1, 2):
        full = assemble_complex(sphere, radius=m)
        for les in pruning_walk(full.restrict({"0"}), full):
            assert les.report.ok, les.report.failures()
            assert les.instance.labels == LES_LABELS
            assert les.instance.alternating_sum() == 0


def test_les_dimensions_match_direct_assemblies():
    sphere = sphere_rotation()
    full = assemble_complex(sphere, radius=1)
    les = les_of_pruning(full.restrict({"0"}), full.restrict({"0", "N"}))
    sub = deloc_cohomology(assemble_complex(sphere, prune=("N", "S"), radius=1))
    tot = deloc_cohomology(assemble_complex(sphere, prune=("S",), radius=1))
    assert les.instance.dims[0] == sub.even and les.instance.dims[3] == sub.odd
    assert les.instance.dims[1] == tot.even and les.instance.dims[4] == tot.odd
    # the quotient term carries the full pole block here
    assert les.instance.dims[2] == 3 and les.instance.dims[5] == 0


def test_les_degenerates_when_added_window_is_empty():
    # no window rule materializes an empty window; select one from a ball
    act = equal_isotropy_pair(WindowRule.ball(0))
    full = assemble_complex(act)
    full = full.at_radius(None, {"a": full.windows["a"], "b": []})
    les = les_of_pruning(full.restrict({"a"}), full)
    assert les.report.ok
    assert les.instance.dims[2] == 0 and les.instance.dims[5] == 0
    assert les.instance.dims[0] == les.instance.dims[1]


@pytest.mark.parametrize(
    "build, prune, dims",
    [
        (projective_plane, (), (12, 0)),
        (projective_plane, ("p2",), (7, 0)),
        (projective_plane, ("p1", "p3"), (4, 0)),
        (projective_plane, ("s", "p1", "p3"), (4, 0)),
        (projective_plane, ("s", "p1", "p2", "p3"), (0, 0)),
        (lambda: sphere_rotation_speed(3), (), (27, 0)),
        (lambda: sphere_rotation_speed(3), ("N",), (12, 0)),
        (lambda: sphere_rotation_speed(3), ("N", "S"), (0, 3)),
    ],
)
def test_pruned_dimensions_pinned(build, prune, dims):
    # values recorded from direct assemblies of each kept set, radius 2
    got = deloc_cohomology(assemble_complex(build(), prune=prune, radius=2))
    assert (got.even, got.odd) == dims


def test_les_rejects_invalid_steps():
    sphere = sphere_rotation()
    full = assemble_complex(sphere)
    with pytest.raises(ValueError):
        les_of_pruning(full.restrict({"0", "N"}), full.restrict({"0", "N"}))  # already kept
    with pytest.raises(ValueError):
        full.restrict({"N"})  # root missing below
    with pytest.raises(ValueError):
        les_of_pruning(full.restrict({"0"}), full)  # two nodes at once
    with pytest.raises(ValueError):
        les_of_pruning(full.restrict({"0", "N"}), full.restrict({"0", "S"}))  # N dropped
    with pytest.raises(ValueError):
        les_of_pruning(full.restrict({"0"}), assemble_complex(sphere, prune=("S",)))


def test_plane_pruning_steps_are_exact():
    plane = projective_plane()
    full = assemble_complex(plane, radius=1)
    walk = list(pruning_walk(full.restrict({"0"}), full))
    # depth-then-label order
    assert [les.alpha for les in walk] == ["p2", "s", "p1", "p3"]
    for les in walk:
        assert les.report.ok, les.report.failures()


def odd_face_pair():
    """Two circles over Z, a free below b fixed, glued along their degree-1 slots.

    Both node complexes are (1, 1) with zero differential; the face complex
    is (0, 1), and the restriction and the pullback each pick the degree-1
    slot.  The step adding b has odd quotient and even sub cohomology, so
    its odd connecting map H^1(Q) -> H^0(A) is a 1x1 matrix.
    """
    circle, band = CochainComplex((1, 1)), CochainComplex((0, 1))

    def kdata(k0, k1, count):
        return KData.trivial_shifts(k0, k1, AbHom(k0, Z, [[1] * k0.ngens]), count)

    free = NodeSpaceData(circle, [ChainMap.zero(circle, circle, degree=2)], kdata(Z, Z, 1))
    fixed = NodeSpaceData(circle, [], kdata(Z, Z, 0))
    face = NodeSpaceData(band, [ChainMap.zero(band, band, degree=2)], kdata(TRIV, Z, 1))
    odd_slot = ChainMap(circle, band, [[0, 1]])
    k_map = KPair(AbHom(Z, TRIV, []), AbHom.identity(Z))
    tree = IsotropyTree(
        {"a": SubgroupDatum(AbHom(Z, TRIV, [])), "b": SubgroupDatum(AbHom.identity(Z))},
        [("a", "b")],
    )
    return ResolvedAction(
        tree,
        {"a": free, "b": fixed},
        {("a", "b"): FaceMaps(face, odd_slot, odd_slot, k_map, k_map)},
        {"a": WindowRule.full(), "b": WindowRule.ball(1)},
    )


def test_an_odd_connecting_map_with_one_entry_composes_to_zero():
    act = odd_face_pair()
    assert act.validate(0).ok
    full = assemble_complex(act, radius=0)
    les = les_of_pruning(full.restrict({"a"}), full)
    assert les.instance.dims == (1, 2, 1, 0, 1, 1)
    assert les.instance.ranks == (1, 1, 0, 0, 1, 0)
    (chi,) = full.sectors
    assert (f"sector {chi.coords}: consecutive maps compose to zero", True, "") in (
        les.report.checks
    )
    assert les.report.ok
    assert compare_ranks(full)[0].ok


def test_a_nonzero_odd_connecting_inclusion_composite_is_reported(monkeypatch):
    # No fixture step has odd quotient cohomology, so the odd connecting map
    # H^1(Q) -> H^0(A) is always empty.  Plant one odd quotient class: its
    # projection is zero and its connecting image a sub class that the even
    # inclusion of the step adding S to {0, N} does not kill.
    full = assemble_complex(sphere_rotation(), radius=1)
    sub, total = full.restrict({"0", "N"}), full
    (chi,) = total.sectors
    two_a, two_b = sub.sectors[chi].two_periodic, total.sectors[chi].two_periodic
    original = deloc.TwoPeriodicComplex.class_coords
    incl = {}

    def planted(two, vecs, parity):
        got = original(two, vecs, parity)
        if two is two_b and parity == 0:
            incl[0] = got
        elif two not in (two_a, two_b) and parity == 1:  # the odd projection
            return RationalMatrix.zeros(1, got.ncols)
        elif two is two_a and parity == 0:  # the odd connecting map
            i = next(j for _, j, _ in incl[0].entries())
            return RationalMatrix.from_row_maps(
                [{0: 1} if r == i else {} for r in range(got.nrows)], 1
            )
        return got

    monkeypatch.setattr(deloc.TwoPeriodicComplex, "class_coords", planted)
    les = les_of_pruning(sub, total)
    rows = dict(les.report.failures())
    assert rows[f"sector {chi.coords}: consecutive maps compose to zero"] == (
        "nonzero: connecting->inclusion (odd)"
    )


def _planted_composites(monkeypatch, role, plant):
    """The composite row of the odd face pair's step adding b, with one map planted.

    Its dims are (1, 2, 1, 0, 1, 1) and its ranks (1, 1, 0, 0, 1, 0).  `role`
    is the (map, source parity) whose `class_coords` call `plant(got, seen)`
    replaces; `seen` holds the maps computed before it.
    """
    full = assemble_complex(odd_face_pair(), radius=0)
    sub = full.restrict({"a"})
    (chi,) = full.sectors
    two_a, two_b = sub.sectors[chi].two_periodic, full.sectors[chi].two_periodic
    original = deloc.TwoPeriodicComplex.class_coords
    seen = {}

    def planted(two, vecs, parity):
        got = original(two, vecs, parity)
        # a connecting map lands in the sub complex, one parity past its source
        which = ("conn", 1 - parity) if two is two_a else ("incl" if two is two_b else "proj", parity)
        seen[which] = got
        return plant(got, seen) if which == role else got

    monkeypatch.setattr(deloc.TwoPeriodicComplex, "class_coords", planted)
    rows = dict(les_of_pruning(sub, full).report.failures())
    return rows.get(f"sector {chi.coords}: consecutive maps compose to zero")


def test_a_nonzero_even_total_quotient_total_composite_is_reported(monkeypatch):
    # the even projection planted as the transpose of the even inclusion
    # (both rank one), so that their composite is nonzero; the even
    # connecting map out of it has no target, as the sub odd part is 0
    def transpose(got, seen):
        return seen[("incl", 0)].transpose()

    assert _planted_composites(monkeypatch, ("proj", 0), transpose) == (
        "nonzero: total->quotient->total"
    )


def test_a_nonzero_odd_quotient_connecting_composite_is_reported(monkeypatch):
    # the odd connecting map planted as the 1 x 1 unit: after the odd
    # projection and before the even inclusion (both rank one) it composes
    # to nonzero on both sides
    def unit(got, seen):
        return RationalMatrix.identity(1)

    assert _planted_composites(monkeypatch, ("conn", 1), unit) == (
        "nonzero: quotient->connecting (odd), connecting->inclusion (odd)"
    )


def test_les_step_solves_once_per_batch(monkeypatch):
    # One elimination per batch of right-hand sides: the solves a pruning
    # step makes per sector do not grow with the cohomology it maps.
    original = ratmat.solve
    calls = []

    def counted(mat, rhs):
        calls.append(len(rhs))
        return original(mat, rhs)

    for info in pkgutil.iter_modules(resolvedk.__path__):
        module = importlib.import_module(f"resolvedk.{info.name}")
        if getattr(module, "solve", None) is original:
            monkeypatch.setattr(module, "solve", counted)
    plane = projective_plane()
    labels = plane.tree.labels_by_depth()
    per_sector = {}
    for radius in (2, 4):
        full = assemble_complex(plane, radius=radius)
        sub, total = full.restrict(labels[:-1]), full
        calls.clear()
        les = les_of_pruning(sub, total)
        assert les.report.ok, les.report.failures()
        assert len(calls) % len(total.sectors) == 0
        per_sector[radius] = len(calls) // len(total.sectors)
        assert max(calls) > 1  # some batch holds more than one vector
    assert per_sector[2] == per_sector[4]


def test_class_space_is_one_elimination(monkeypatch):
    # With cocycles and boundaries known, a class space is one elimination
    # and class coordinates are read off it without solving.
    original = ratmat._eliminate
    calls = []

    def counted(rows, width):
        calls.append(width)
        return original(rows, width)

    monkeypatch.setattr(ratmat, "_eliminate", counted)
    full = assemble_complex(projective_plane(), radius=2)
    spaces = 0
    for chi in sorted(full.sectors, key=lambda c: c.coords):
        for p in (0, 1):
            two = full.sectors[chi].two_periodic
            z, bnd = two.cocycles(p), two.boundaries(p)
            calls.clear()
            reps = two.class_representatives(p)
            assert two.class_coords(reps, p) == RationalMatrix.identity(two.h_dim(p))
            assert two.class_coords(bnd, p).is_zero()
            assert two.class_coords(z, p).ncols == z.ncols
            assert len(calls) == 1
            spaces += reps.ncols > 0
    assert spaces > 0


@pytest.mark.parametrize("seed", range(12))
def test_random_actions_pruning_exactness(seed):
    act = random_action(seed)
    full = assemble_complex(act, radius=1)
    for les in pruning_walk(full.restrict({act.tree.root}), full):
        assert les.report.ok, (seed, les.alpha, les.report.failures())


def test_relative_global_k_checks_the_hexagons_of_its_own_complex():
    plane = projective_plane()
    pruned = assemble_complex(plane, prune=("p3",), radius=1)
    walk = list(pruning_walk(pruned.full.restrict({"0"}), pruned))
    assert [les.alpha for les in walk] == ["p2", "s", "p1"]
    dims = deloc_cohomology(pruned)
    assert (walk[-1].instance.dims[1], walk[-1].instance.dims[4]) == (dims.even, dims.odd)

    glob, checks = rational_global_k(pruned)
    assert (glob.even, glob.odd) == (dims.even, dims.odd)
    assert {name.split(":")[0] for name, _, _ in checks.checks} == {
        "step +p2", "step +s", "step +p1"
    }
    sphere = sphere_rotation()
    _, checks = rational_global_k(assemble_complex(sphere, prune=("N",), radius=1))
    assert {name.split(":")[0] for name, _, _ in checks.checks} == {"step +S"}
    empty = assemble_complex(sphere, prune=("0", "N", "S"), radius=1)
    assert rational_global_k(empty)[1].checks == []


@pytest.mark.parametrize("prune, computed", [(("p2",), 14), (("p1", "p3"), 10)])
def test_relative_global_k_computes_the_kept_cocycles_once(monkeypatch, prune, computed):
    # The walk's last step is the kept complex itself, whose cohomology is
    # already computed; a fresh restriction of it would add 2 computations.
    calls = []
    original = deloc.TwoPeriodicComplex.cocycles

    def counting(self, parity):
        if self._cocycles[parity % 2] is None:
            calls.append(parity)
        return original(self, parity)

    monkeypatch.setattr(deloc.TwoPeriodicComplex, "cocycles", counting)
    plane = projective_plane()
    _, checks = rational_global_k(assemble_complex(plane, prune=prune, radius=1))
    assert len(calls) == computed
    assert checks.ok


@pytest.mark.parametrize(
    "build, radius",
    [
        pytest.param(sphere_rotation, 2, id="sphere"),
        pytest.param(lambda: sphere_rotation_speed(3), 2, id="speed3"),
        pytest.param(projective_plane, 2, id="plane"),
        pytest.param(lambda: product_trivial((2,)), 2, id="product2"),
    ]
    + [pytest.param(lambda seed=seed: random_action(seed), 1, id=f"random{seed}")
       for seed in range(12)],
)
def test_every_pruning_hexagon_carries_its_ranks(build, radius):
    action = build()
    full = assemble_complex(action, radius=radius)
    walk = list(pruning_walk(full.restrict({action.tree.root}), full))
    for les in walk:
        for inst in (les.instance, *les.sector_instances.values()):
            assert len(inst.ranks) == 6
            assert all(type(r) is int for r in inst.ranks), inst
    checks = rational_global_k(full)[1]
    rows = [name.split(": ", 1)[1] for name, _, _ in checks.checks]
    assert len(rows) == 7 * len(walk)
    assert set(rows) <= {"alternating dimension sum vanishes"} | {
        f"exact at {label}" for label in LES_LABELS
    }


# -- Chern characters -----------------------------------------------------------------


def test_fixture_chern_data_is_valid():
    assert validate_chern_data(sphere_rotation()).ok
    assert validate_chern_data(projective_plane()).ok


def test_chern_data_validation_catches_twist_violation():
    datum = SubgroupDatum(AbHom(Z, TRIV, []))
    pt = CochainComplex.point()
    flip = AbHom(Z, Z, [[-1]])
    space = NodeSpaceData(
        pt,
        [ChainMap.zero(pt, pt, degree=2)],
        KData(Z, TRIV, [flip], [AbHom.identity(TRIV)], AbHom.identity(Z)),
    )
    act = ResolvedAction(
        IsotropyTree({"n": datum}, []), {"n": space}, {}, {"n": WindowRule.full()},
        chern=ChernData({"n": [(1,)]}),
    )
    rep = validate_chern_data(act)
    assert not rep.ok
    assert any("exponential twists" in name for name, _ in rep.failures())


def test_chern_data_validation_catches_open_or_torsion_reps():
    interval = CochainComplex((2, 1), [[[-1, 1]]])
    datum = SubgroupDatum(AbHom(Z, TRIV, []))
    space = NodeSpaceData(
        interval,
        [ChainMap.zero(interval, interval, degree=2)],
        KData.trivial_shifts(Z, TRIV, AbHom.identity(Z), 1),
    )
    act = ResolvedAction(
        IsotropyTree({"n": datum}, []), {"n": space}, {}, {"n": WindowRule.full()},
        chern=ChernData({"n": [(1, 0, 0)]}),
    )
    rep = validate_chern_data(act)
    assert any("closed" in name for name, ok in rep.failures())

    torsion_k = FgAbGroup(1, (2,))
    space2 = NodeSpaceData(
        CochainComplex.point(),
        [],
        KData.trivial_shifts(torsion_k, TRIV, AbHom(torsion_k, Z, [[1, 0]]), 0),
    )
    act2 = ResolvedAction(
        IsotropyTree({"n": SubgroupDatum(AbHom.identity(Z))}, []),
        {"n": space2}, {}, {"n": WindowRule.explicit([(0,)])},
        chern=ChernData({"n": [(1,), (1,)]}),
    )
    rep2 = validate_chern_data(act2)
    assert any("torsion" in name for name, _ in rep2.failures())

    act3 = ResolvedAction(
        IsotropyTree({"n": datum}, []), {"n": space}, {}, {"n": WindowRule.full()},
        chern=ChernData({}),
    )
    assert not validate_chern_data(act3).ok


@pytest.mark.parametrize("build", [
    pytest.param(sphere_rotation, id="sphere"),
    pytest.param(lambda: sphere_rotation_speed(3), id="speed3"),
    pytest.param(projective_plane, id="plane"),
    pytest.param(lambda: product_trivial((2,)), id="product2"),
])
def test_chern_representatives_intertwine_every_kernel_twist(build):
    """C @ sigma(h) == exp(L(h)) @ C for every h in [-2, 2]^r at every node.

    `validate_chern_data` checks the kernel generators only; this is the
    identity for general h that docs/representation-ring.md derives from it.
    """
    action = build()
    assert validate_chern_data(action).ok
    for label, space in action.spaces.items():
        reps = action.chern.reps[label]
        dim = space.complex.total_dim
        c = RationalMatrix.from_columns([list(v) for v in reps], nrows=dim) \
            if reps else RationalMatrix.zeros(dim, 0)
        rank = action.tree.nodes[label].kernel_rank
        for h in itertools.product(range(-2, 3), repeat=rank):
            assert c @ space.kdata.twist(h).matrix == space.twist(h) @ c, (label, h)


def test_sphere_chern_cocycle_values():
    sphere = sphere_rotation()
    (cc,) = chern_character(sphere, ["poles"], radius=3)
    # pole multiplicities (2, 1) and the rank-3 constant on the interval
    assert cc.node_value("0", Character(TRIV, ())) == (3, 3, 0)
    assert cc.node_value("N", Character(Z, (0,))) == (2,)
    assert cc.node_value("N", Character(Z, (3,))) == (1,)
    assert cc.node_value("N", Character(Z, (1,))) == (0,)
    assert cc.node_value("S", Character(Z, (0,))) == (3,)
    assert cc.node_value("S", Character(Z, (2,))) == (0,)


def test_chern_requires_window_covering_support():
    sphere = sphere_rotation()
    with pytest.raises(WindowError, match="outside the window"):
        chern_character(sphere, ["poles"], radius=1)


def test_chern_unknown_bundle():
    with pytest.raises(ValueError, match="no bundle named"):
        chern_character(sphere_rotation(), ["nope"], radius=3)


def test_chern_refuses_a_string_of_names(monkeypatch):
    # a string is refused as such, before any check reads the action
    def no_check(action):
        raise AssertionError("a check ran")

    monkeypatch.setattr(deloc, "validate_chern_data", no_check)
    monkeypatch.setattr(deloc, "_checked_input", no_check)
    with pytest.raises(TypeError, match="sequence of bundle names"):
        chern_character(sphere_rotation(), "poles", radius=3)


def test_plane_chern_cocycle():
    plane = projective_plane()
    (cc,) = chern_character(plane, ["tautological"], radius=1)
    assert cc.node_value("0", Character(TRIV, ())) == (2, 1)
    c2 = plane.tree.nodes["s"].target
    assert cc.node_value("s", Character(c2, (0,))) == (1,)
    assert cc.node_value("s", Character(c2, (1,))) == (1,)
    for pole in ("p1", "p2", "p3"):
        assert cc.node_value(pole, Character(Z, (0,))) == (1,)
        assert cc.node_value(pole, Character(Z, (-1,))) == (0,)


def test_trivial_rank_one_bundle_is_the_constant_cocycle():
    act = free_circle_action(
        bundles={"unit": {"n": {(0,): (1,)}}},
        chern=ChernData({"n": [(1, 0)]}),
    )
    (cc,) = chern_character(act, ["unit"])
    (khat,) = cc.windows["n"]
    assert cc.node_value("n", khat) == (1, 0)


def test_chern_value_independent_of_sections():
    sphere = sphere_rotation()
    windows = sphere.windows(3)
    secs = dict(sphere.sections(windows))
    secs["0"] = offset_section(secs["0"], {Character(TRIV, ()): (2,)})
    (plain,) = chern_character(sphere, ["poles"], radius=3)
    (moved,) = chern_character(sphere, ["poles"], radius=3, sections=secs)
    for label in sorted(plain.kept):
        for khat in windows[label]:
            assert plain.node_value(label, khat) == moved.node_value(label, khat)


@pytest.mark.parametrize("build, node, entry, root_char, sector", [
    # the N class at 0 moved from 2 to 3
    (sphere_rotation, "N", ((0,), (3,)), (), "()"),
    # a new class on S at 1, in root sector (1,) of the speed-3 sphere
    (lambda: sphere_rotation_speed(3), "S", ((1,), (1,)), (1,), "(1,)"),
])
def test_chern_failure_is_the_same_under_an_offset_section(build, node, entry, root_char, sector):
    base = build()
    poles = {label: dict(table) for label, table in base.bundles["poles"].items()}
    poles[node][entry[0]] = entry[1]
    act = ResolvedAction(
        base.tree, base.spaces, base.faces, base.window_rules,
        bundles={"poles": poles}, chern=base.chern,
    )
    root = act.tree.nodes["0"]
    secs = dict(act.sections(act.windows(3)))
    secs["0"] = offset_section(secs["0"], {Character(root.target, root_char): (2,)})
    message = (
        f"Chern cocycle of 'poles' breaks compatibility in sector {sector}: "
        f"face 0<{node} at sector {sector}"
    )
    for sections in (None, secs):
        with pytest.raises(ValueError) as exc:
            chern_character(act, ["poles"], radius=3, sections=sections)
        assert str(exc.value) == message


# -- comparisons and scans -------------------------------------------------------------


def test_compare_ranks_sphere():
    rep, _ = compare_ranks(assemble_complex(sphere_rotation(), radius=1))
    assert rep.ok, rep.failures()


@pytest.mark.parametrize("m", [0, 1, 2])
def test_compare_ranks_plane(m):
    rep, _ = compare_ranks(assemble_complex(projective_plane(), radius=m))
    assert rep.ok, rep.failures()


def test_compare_ranks_flags_wrong_expectations():
    sphere = sphere_rotation()
    doctored = ResolvedAction(
        sphere.tree, sphere.spaces, sphere.faces, sphere.window_rules,
        bundles=sphere.bundles, chern=sphere.chern,
        expected={"deloc_dims_by_radius": {"1": [4, 0]}},
    )
    rep, _ = compare_ranks(assemble_complex(doctored, radius=1))
    assert not rep.ok
    assert any("declared" in name for name, _ in rep.failures())


def test_global_rational_k_agrees_with_assembly():
    sphere = sphere_rotation()
    for m in (0, 1, 2):
        g, checks = rational_global_k(assemble_complex(sphere, radius=m))
        assert (g.even, g.odd) == (4 * m + 1, 0)
        assert checks.ok


def test_window_scan_shows_linear_growth_without_stabilization():
    scan = window_stabilization(sphere_rotation(), 2)
    assert scan.rows == ((0, 1, 0), (1, 5, 0), (2, 9, 0))
    assert scan.stabilized is False


def test_window_scan_stabilizes_on_finite_duals():
    act = free_circle_action()
    scan = window_stabilization(act, 2)
    assert scan.rows == ((0, 1, 1), (1, 1, 1), (2, 1, 1))
    assert scan.stabilized is True


def test_window_scan_of_one_radius_has_no_verdict():
    scan = window_stabilization(sphere_rotation(), 0)
    assert scan.rows == ((0, 1, 0),)
    assert scan.stabilized is None


SELECTION_BUILDS = [
    pytest.param(sphere_rotation, id="sphere"),
    pytest.param(lambda: sphere_rotation_speed(3), id="speed3"),
    pytest.param(projective_plane, id="plane"),
    pytest.param(lambda: product_trivial((2,)), id="product2"),
] + [pytest.param(lambda seed=seed: random_action(seed), id=f"random{seed}") for seed in range(12)]


def _sector_fields(sec):
    return (
        sec.chi, sec.blocks, sec.spans, sec.total, sec.constraint, sec.diff,
        sec.even_idx, sec.odd_idx, sec.row_origins, sec.row_chars,
    )


@pytest.mark.parametrize("build", SELECTION_BUILDS)
@pytest.mark.parametrize("relative", [False, True], ids=["full", "relative"])
def test_window_selection_matches_fresh_assembly(build, relative):
    action = build()
    prune = (action.tree.labels_by_depth()[-1],) if relative else ()
    top = assemble_complex(action, prune=prune, radius=4)
    for r in range(5):
        fresh = assemble_complex(action, prune=prune, radius=r)
        got = top.at_radius(r, action.windows(r))
        assert (got.kept, got.radius, got.windows) == (fresh.kept, fresh.radius, fresh.windows)
        assert list(got.sectors) == list(fresh.sectors)
        for chi, sec in fresh.sectors.items():
            assert _sector_fields(got.sectors[chi]) == _sector_fields(sec)
        assert got.full.kept == frozenset(action.tree.nodes)


def test_window_selection_refuses_windows_outside_the_assembled_ones():
    sphere = sphere_rotation()
    small = assemble_complex(sphere, radius=1)
    with pytest.raises(ValueError, match="not inside the assembled window"):
        small.at_radius(2, sphere.windows(2))


def sloped_pair(chain_shift=True):
    """A circle-isotropy node below a torus-fixed point, with edge (x, y) -> x + 2y.

    The deep ball of radius r maps onto [-3r, 3r], so the shallow ball of the
    same radius holds it at radius 0 only: the windows are saturated at
    radius 0 and unsaturated from radius 1 on.  Without `chain_shift` the
    shallow node has no chain shift for its kernel generator.
    """
    torus = FgAbGroup.free(2)
    circle = SubgroupDatum(AbHom(torus, Z, [[1, 2]]))
    fixed = SubgroupDatum(AbHom.identity(torus))
    pt = CochainComplex.point()
    shallow = NodeSpaceData(
        pt, [ChainMap.zero(pt, pt, degree=2)] if chain_shift else [],
        KData.trivial_shifts(Z, TRIV, AbHom.identity(Z), 1),
    )
    deep = NodeSpaceData(pt, [], KData.trivial_shifts(Z, TRIV, AbHom.identity(Z), 0))
    kid = KPair(AbHom.identity(Z), AbHom.identity(TRIV))
    face = FaceMaps(shallow, ChainMap.identity(pt), ChainMap.identity(pt), kid, kid)
    tree = IsotropyTree({"a": circle, "b": fixed}, [("a", "b")])
    return ResolvedAction(
        tree, {"a": shallow, "b": deep}, {("a", "b"): face},
        {"a": WindowRule.ball(1), "b": WindowRule.ball(1)},
    )


def _fresh_scan_error(action, top, prune=()):
    """The first error of assembling afresh at each radius `0..top` in turn (at `top` if negative)."""
    with pytest.raises(Exception) as info:
        for r in range(top + 1) if top >= 0 else (top,):
            deloc_cohomology(assemble_complex(action, prune=prune, radius=r))
    return info.type, str(info.value)


@pytest.mark.parametrize(
    "build, top, prune",
    [
        pytest.param(sloped_pair, 2, (), id="unsaturated-from-1"),
        pytest.param(sloped_pair, 2, ("x",), id="unknown-prune"),
        pytest.param(sloped_pair, 2, ("a",), id="prune-not-closed"),
        pytest.param(lambda: sloped_pair(chain_shift=False), 2, (),
                     id="shift-count-before-unsaturated"),
        pytest.param(lambda: fixed_point_action(WindowRule.explicit([[0], [1]])), 2, (),
                     id="explicit"),
        pytest.param(lambda: equal_isotropy_pair(WindowRule.residue_ball(2, 1)), 1, (),
                     id="unsaturated-everywhere"),
        pytest.param(sphere_rotation, -1, (), id="negative-radius"),
        pytest.param(sloped_pair, -1, ("x",), id="negative-radius-after-prune"),
    ],
)
def test_stabilize_raises_the_first_error_of_a_fresh_scan(build, top, prune):
    action = build()
    expected = _fresh_scan_error(action, top, prune)
    with pytest.raises(Exception) as info:
        window_stabilization(action, top, prune=prune)
    assert (info.type, str(info.value)) == expected


def _seeded_sparse(rng, m, n):
    return RationalMatrix(
        [[rng.choice((0, 0, 0, 1, -2, Fraction(1, 3))) for _ in range(n)] for _ in range(m)],
        ncols=n,
    )


@pytest.mark.parametrize("seed", range(20))
def test_placed_rows_matches_the_dict_built_matrix(seed):
    rng = random.Random(seed)
    m, n = rng.randint(0, 8), rng.randint(0, 6)
    total = m + rng.randint(0, 5)
    mat = _seeded_sparse(rng, m, n)
    idx = rng.sample(range(total), m)
    rows = [{} for _ in range(total)]
    for i, j, x in mat.entries():
        rows[idx[i]][j] = x
    assert deloc._placed_rows(mat, idx, total) == RationalMatrix.from_row_maps(rows, n)


@pytest.mark.parametrize("targets", [[0, 1, 2, 3], [0, 1]], ids=["longer", "shorter"])
def test_placed_rows_needs_one_target_per_row(targets):
    mat = RationalMatrix([[1, 0], [0, 2], [3, 0]])
    with pytest.raises(ValueError, match="row targets"):
        deloc._placed_rows(mat, targets, 5)
