import pytest

from resolvedk.chargroup import SubgroupDatum
from resolvedk.fgab import AbHom, FgAbGroup
from resolvedk.itspace import IsotropyTree, Pruning, prune_step, pruning_sequence


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
    seq = pruning_sequence(tree)
    assert len(seq) == 1 and seq[0].kept == frozenset({"0"})


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
    with pytest.raises(ValueError, match="kernel lattices nest"):
        tree.require_valid()


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


def test_pruning_downward_closure():
    tree = sphere_tree()
    keep = Pruning(tree, ["0", "N"])
    assert keep.pruned == frozenset({"S"})
    with pytest.raises(ValueError, match="not downward-closed"):
        Pruning(tree, ["N"])


def test_prune_step_preconditions():
    tree = chain_tree()
    first = prune_step(tree, ["0"], "s")
    assert first.kept == frozenset({"0", "s"})
    with pytest.raises(ValueError, match="already kept"):
        prune_step(tree, first, "s")
    with pytest.raises(ValueError, match="predecessors"):
        prune_step(tree, ["0"], "p")
    with pytest.raises(ValueError, match="unknown node"):
        prune_step(tree, ["0"], "x")


def test_pruning_sequence_sphere():
    tree = sphere_tree()
    seq = pruning_sequence(tree)
    assert [sorted(p.kept) for p in seq] == [["0"], ["0", "N"], ["0", "N", "S"]]


def test_pruning_sequence_depth_then_label():
    nodes = {
        "0": trivial_isotropy(),
        "s": half_isotropy(),
        "p1": full_isotropy(),
        "p2": full_isotropy(),
        "p3": full_isotropy(),
    }
    rels = [("0", "s"), ("0", "p2"), ("s", "p1"), ("s", "p3")]
    tree = IsotropyTree(nodes, rels)
    seq = pruning_sequence(tree)
    added = [sorted(b.kept - a.kept)[0] for a, b in zip(seq, seq[1:])]
    assert added == ["p2", "s", "p1", "p3"]
    # every prefix is downward-closed by construction of Pruning
    assert seq[-1].kept == frozenset(nodes)


def test_pruning_sequence_requires_valid_tree():
    tree = IsotropyTree(
        {"a": full_isotropy(), "b": trivial_isotropy()},
        [("a", "b")],
    )
    with pytest.raises(ValueError, match="isotropy tree validation failed"):
        pruning_sequence(tree)
