"""Results kept on the objects that own them equal fresh computations.

A sector's cohomology comes from one elimination per parity, shared by its
cocycles and boundaries; here its dimensions are checked against the class
space and against a rank formula computed from the sector's constraint and
differential alone.  Character images, canonical lifts and kernel
coordinates are kept per hom or per subgroup datum; here they are checked
against fresh computations, against characters of other groups, and for
their lifetime: two parses share no table, and an action's tables go with
it.
"""

import gc
import weakref

import pytest

from resolvedk import deloc, descriptor, fixtures
from resolvedk.chargroup import Character, SubgroupDatum, edge_image
from resolvedk.deloc import TwoPeriodicComplex, assemble_complex, deloc_cohomology
from resolvedk.descriptor import parse_descriptor, serialize_descriptor
from resolvedk.fgab import FgAbGroup
from resolvedk.ratmat import RationalMatrix, rank

FIXTURES = {
    "sphere": fixtures.sphere_rotation,
    "speed3": lambda: fixtures.sphere_rotation_speed(3),
    "plane": fixtures.projective_plane,
    "product2": lambda: fixtures.product_trivial((2,)),
}


def _stacked(*mats):
    rows = [dict(row) for m in mats for row in m.sparse_rows()]
    return RationalMatrix.from_row_maps(rows, mats[0].ncols)


def _rank_formula(sec, p):
    """n_p - rank[C_p; D_p] - rank[C_q; D_q] + rank C_q, q = 1 - p.

    C_p and D_p are the constraint and the differential on the parity-p
    columns: the compatible cochains of parity p are the kernel of C_p, the
    cocycles among them the kernel of [C_p; D_p], and the boundaries of
    parity p the image under D of the kernel of C_q.
    """
    def cols(mat, parity):
        return mat.submatrix(range(mat.nrows), sec.parity_indices(parity))

    q = 1 - p
    c_p, d_p, c_q, d_q = cols(sec.constraint, p), cols(sec.diff, p), cols(sec.constraint, q), cols(sec.diff, q)
    return len(sec.parity_indices(p)) - rank(_stacked(c_p, d_p)) - rank(_stacked(c_q, d_q)) + rank(c_q)


def _check_three_ways(action, radius):
    full = assemble_complex(action, radius=radius)
    checked = 0
    labels = action.tree.labels_by_depth()
    for end in range(1, len(labels) + 1):
        cx = full.restrict(labels[:end])
        dims = deloc_cohomology(cx)
        for chi, sec in cx.sectors.items():
            two = sec.two_periodic
            for p in (0, 1):
                from_cocycles = two.cocycles(p).ncols - two.boundaries(p).ncols
                from_classes = two.class_representatives(p).ncols
                assert from_cocycles == from_classes == _rank_formula(sec, p) == dims.sectors[chi][p]
            checked += 1
    return checked


@pytest.mark.parametrize("radius", range(4))
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_dimensions_agree_three_ways(name, radius):
    assert _check_three_ways(FIXTURES[name](), radius) > 0


def test_random_action_dimensions_agree_three_ways():
    assert sum(_check_three_ways(fixtures.random_action(seed), 1) for seed in range(50)) > 50


def test_cocycles_and_boundaries_share_one_elimination_per_parity(monkeypatch):
    calls = []
    original = deloc.rref
    monkeypatch.setattr(deloc, "rref", lambda mat: calls.append(mat) or original(mat))
    (sec,) = assemble_complex(fixtures.sphere_rotation(), radius=2).sectors.values()
    two = sec.two_periodic
    for p in (0, 1):
        two.cocycles(p), two.boundaries(p)
    assert len(calls) == 2
    assert [two.d @ two.basis(p) for p in (0, 1)] == calls


# -- character tables --------------------------------------------------------------


def _plane_s():
    """The plane's node s: the restriction Z -> Z/2, with kernel 2Z."""
    action = fixtures.projective_plane()
    return action, action.tree.nodes["s"]


def test_a_non_kernel_element_raises_on_every_call():
    _, datum = _plane_s()
    outside = Character(datum.ambient, (1,))
    for _ in range(3):
        with pytest.raises(ValueError, match="not in the kernel lattice"):
            datum.kernel_coordinates(outside)
    assert datum.kernel_coordinates(Character(datum.ambient, (4,))) == (2,)


def test_a_character_of_another_group_raises_even_when_its_coordinates_are_kept():
    action, datum = _plane_s()
    edge = action.tree.edge_restriction("s", "p1")
    datum.canonical_representative(Character(datum.target, (1,)))
    datum.kernel_coordinates(Character(datum.ambient, (2,)))
    datum.restrict(Character(datum.ambient, (3,)))
    edge_image(edge, Character(edge.domain, (1,)))
    other = FgAbGroup(0, (7,))
    with pytest.raises(ValueError, match="not in the subgroup dual"):
        datum.canonical_representative(Character(other, (1,)))
    with pytest.raises(ValueError, match="not in the ambient dual"):
        datum.kernel_coordinates(Character(other, (2,)))
    with pytest.raises(ValueError, match="not in the domain"):
        datum.restrict(Character(other, (3,)))
    with pytest.raises(ValueError, match="not in the domain"):
        edge_image(edge, Character(other, (1,)))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_kept_results_equal_fresh_ones(name):
    action = FIXTURES[name]()
    deloc_cohomology(assemble_complex(action, radius=2))
    tree = action.tree
    homs = [tree.edge_restriction(a, b) for a, b in tree.comparable_pairs()]
    homs += [datum.restriction for datum in tree.nodes.values()]
    images = [(hom, khat, image) for hom in homs for khat, image in hom.images.items()]
    assert images
    for hom, khat, image in images:
        assert image == Character(hom.codomain, hom.apply(khat.coords))
        assert edge_image(hom, khat) is image
    kept = 0
    for datum in tree.nodes.values():
        fresh = SubgroupDatum(datum.restriction, [g.coords for g in datum.kernel_basis])
        for b, rep in datum._lifts.items():
            assert rep == fresh.canonical_representative(b) == datum.canonical_representative(b)
        for ghat, coords in datum._kernel.items():
            assert coords == fresh.kernel_coordinates(ghat) == datum.kernel_coordinates(ghat)
            assert datum.kernel_element(coords) == ghat
        kept += len(datum._lifts) + len(datum._kernel)
    assert kept


class _TrackedDatum(SubgroupDatum):
    __slots__ = ("__weakref__",)


def test_parses_share_no_table_and_an_action_takes_its_tables_with_it(monkeypatch):
    monkeypatch.setattr(descriptor, "SubgroupDatum", _TrackedDatum)
    text = serialize_descriptor(fixtures.projective_plane())
    first, second = parse_descriptor(text).action, parse_descriptor(text).action
    for parsed in (first, second):
        deloc_cohomology(assemble_complex(parsed, radius=1))

    def tables(action):
        data = list(action.tree.nodes.values())
        homs = [d.restriction for d in data] + [
            action.tree.edge_restriction(a, b) for a, b in action.tree.comparable_pairs()
        ]
        return {id(action.shared)} | {id(h.images) for h in homs}

    edges = [first.tree.edge_restriction(a, b) for a, b in first.tree.comparable_pairs()]
    assert first.shared and all(e.images for e in edges)
    assert not tables(first) & tables(second)
    refs = [weakref.ref(d) for d in first.tree.nodes.values()]
    refs += [weakref.ref(v) for v in first.shared.values() if isinstance(v, TwoPeriodicComplex)]
    assert all(isinstance(r(), (_TrackedDatum, TwoPeriodicComplex)) for r in refs)
    del first, parsed
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert deloc_cohomology(assemble_complex(second, radius=1)).even == 6
