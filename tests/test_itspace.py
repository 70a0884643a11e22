import pytest

from resolvedk.chargroup import SubgroupDatum
from resolvedk.fgab import AbHom, FgAbGroup
from resolvedk.itspace import IsotropyTree, downward_closed


Z = FgAbGroup.free(1)
C2 = FgAbGroup(0, (2,))
TRIV = FgAbGroup.free(0)


def trivial_isotropy():
    """B = {e}: every character restricts to nothing."""
    return SubgroupDatum(AbHom(Z, TRIV, []))


def full_isotropy():
    """B = the whole circle: restriction is the identity."""
    return SubgroupDatum(AbHom(Z, Z, [[1]]))


def half_isotropy():
    return SubgroupDatum(AbHom(Z, C2, [[1]]))


def sphere_tree():
    return IsotropyTree(
        {"0": trivial_isotropy(), "N": full_isotropy(), "S": full_isotropy()},
        [("0", "N"), ("0", "S")],
    )


def chain_tree():
    return IsotropyTree(
        {"0": trivial_isotropy(), "s": half_isotropy(), "p": full_isotropy()},
        [("0", "s"), ("s", "p")],
    )


def test_single_node_tree_is_valid():
    tree = IsotropyTree({"0": trivial_isotropy()}, [])
    assert tree.validate().ok
    assert tree.root == "0"
    assert tree.labels_by_depth() == ["0"]
    assert downward_closed(tree, ["0"]) == frozenset({"0"})


def test_sphere_tree_valid_and_ordered():
    tree = sphere_tree()
    assert tree.validate().ok
    assert tree.root == "0"
    assert tree.comparable_pairs() == [("0", "N"), ("0", "S")]
    assert tree.depth("0") == 0 and tree.depth("N") == 1
    assert tree.less("0", "S") and not tree.less("N", "S")


def test_transitive_closure_and_depth():
    tree = chain_tree()
    assert tree.less("0", "p")  # not supplied explicitly
    assert tree.depth("p") == 2
    assert tree.labels_by_depth() == ["0", "s", "p"]
    edge = tree.edge_restriction("s", "p")
    assert tuple(edge.apply((3,))) == (1,)
    assert tree.edge_restriction("0", "p").codomain == TRIV


def test_nesting_violation_reported_with_edge():
    # root has full isotropy (kernel 0), leaf has trivial isotropy
    # (kernel Z): Z is not inside 0, so the order is upside down.
    tree = IsotropyTree(
        {"a": full_isotropy(), "b": trivial_isotropy()},
        [("a", "b")],
    )
    rep = tree.validate()
    assert not rep.ok
    failed = dict(rep.failures())
    assert "a<b" in failed["kernel lattices nest along the order"]


def test_cycles_and_unknown_labels_rejected():
    with pytest.raises(ValueError, match="cycle"):
        IsotropyTree(
            {"a": trivial_isotropy(), "b": full_isotropy()},
            [("a", "b"), ("b", "a")],
        )
    with pytest.raises(ValueError, match="unknown node"):
        IsotropyTree({"a": trivial_isotropy()}, [("a", "x")])
    with pytest.raises(ValueError, match="reflexive"):
        IsotropyTree({"a": trivial_isotropy()}, [("a", "a")])


def test_missing_root_reported():
    tree = IsotropyTree(
        {"a": trivial_isotropy(), "b": trivial_isotropy()},
        [],
    )
    rep = tree.validate()
    assert not rep.ok
    assert "unique root" in dict(rep.failures())


def test_face_ids_default_and_lookup():
    tree = sphere_tree()
    assert tree.face_ids[("0", "N")] == "F(0<N)"
    assert ("N", "S") not in tree.face_ids


def test_face_ids_must_cover_pairs():
    tree = IsotropyTree(
        {"0": trivial_isotropy(), "N": full_isotropy()},
        [("0", "N")],
        face_ids={},
    )
    rep = tree.validate()
    failed = dict(rep.failures())
    assert "missing 0<N" in failed["faces match comparable pairs"]


def test_corner_chain_must_be_totally_ordered():
    nodes = {
        "0": trivial_isotropy(),
        "s": half_isotropy(),
        "p1": full_isotropy(),
        "p3": full_isotropy(),
    }
    rels = [("0", "s"), ("s", "p1"), ("s", "p3")]
    good = IsotropyTree(nodes, rels, corner_chains=[("0", "s", "p1")])
    assert good.validate().ok
    bad = IsotropyTree(nodes, rels, corner_chains=[("s", "p1", "p3")])
    failed = dict(bad.validate().failures())
    assert "not totally ordered" in failed["corner chains totally ordered"]
    short = IsotropyTree(nodes, rels, corner_chains=[("0", "s")])
    assert not short.validate().ok


def five_node_tree():
    nodes = {
        "0": trivial_isotropy(),
        "s": half_isotropy(),
        "p1": full_isotropy(),
        "p2": full_isotropy(),
        "p3": full_isotropy(),
    }
    return IsotropyTree(nodes, [("0", "s"), ("0", "p2"), ("s", "p1"), ("s", "p3")])


def test_pruning_downward_closure():
    tree = sphere_tree()
    keep = downward_closed(tree, ["0", "N"])
    assert keep == frozenset({"0", "N"}) and type(keep) is frozenset
    with pytest.raises(ValueError, match="not downward-closed"):
        downward_closed(tree, ["N"])


def test_downward_closed_messages():
    tree = five_node_tree()
    with pytest.raises(ValueError) as unknown:
        downward_closed(tree, ["0", "x", "a"])
    assert str(unknown.value) == "pruning keeps unknown nodes ['a', 'x']"
    with pytest.raises(ValueError) as open_below:
        downward_closed(tree, ["p3", "p1", "0"])
    assert str(open_below.value) == "kept set is not downward-closed: 'p1' kept but 's' is not"


def test_labels_by_depth_sphere():
    assert sphere_tree().labels_by_depth() == ["0", "N", "S"]


def test_labels_by_depth_is_depth_then_label():
    # every prefix is downward-closed, so it is the order a pruning walk adds nodes in
    tree = five_node_tree()
    labels = tree.labels_by_depth()
    assert labels == ["0", "p2", "s", "p1", "p3"]
    for end in range(1, len(labels) + 1):
        assert downward_closed(tree, labels[:end]) == frozenset(labels[:end])


def test_validate_fails_unnested_kernels_on_the_nesting_row_alone():
    # the edge restrictions are then not derived, so nesting is the one failing row
    tree = IsotropyTree(
        {"a": full_isotropy(), "b": trivial_isotropy()},
        [("a", "b")],
    )
    assert tree.validate().failures() == [
        ("kernel lattices nest along the order", "violated on edges a<b")
    ]
    assert "edge restrictions derivable" not in {name for name, _, _ in tree.validate().checks}
