import hashlib

import pytest

from resolvedk.fixtures import (
    product_trivial,
    projective_plane,
    random_action,
    sphere_rotation,
    sphere_rotation_speed,
)


@pytest.mark.parametrize(
    "build",
    [
        sphere_rotation,
        lambda: sphere_rotation_speed(2),
        lambda: sphere_rotation_speed(3),
        lambda: product_trivial((2,)),
        projective_plane,
    ],
    ids=["sphere", "speed2", "speed3", "product2", "plane"],
)
def test_fixture_validates(build):
    action = build()
    rep = action.validate(radius=1)
    assert rep.ok, str(rep)


def test_speed_one_is_base_sphere():
    assert sphere_rotation_speed(1).tree.nodes["0"].target.is_trivial


def test_product_scales_expected_dims():
    base = sphere_rotation()
    prod = product_trivial((2,), base)
    base_dims = base.expected["deloc_dims_by_radius"]
    prod_dims = prod.expected["deloc_dims_by_radius"]
    for key, dims in base_dims.items():
        assert prod_dims[key] == [2 * v for v in dims]
    # node labels, complexes, and face maps are shared unchanged
    assert set(prod.tree.nodes) == set(base.tree.nodes)
    assert prod.spaces.keys() == base.spaces.keys()
    assert all(prod.spaces[label] is base.spaces[label] for label in base.spaces)
    assert prod.faces.keys() == base.faces.keys()
    assert all(prod.faces[pair] is base.faces[pair] for pair in base.faces)


def test_product_rejects_torsion_inner():
    speedy = sphere_rotation_speed(2)
    with pytest.raises(ValueError, match="residue windows|torsion-free"):
        product_trivial((2,), speedy)


def test_product_rejects_bad_chain():
    # appending Z/3 to the speed-2 root target Z/2 would need 2 | 3
    with pytest.raises(ValueError, match=r"cannot append factors \(3,\) to target"):
        product_trivial((3,), sphere_rotation_speed(2))
    # the same factor on the torsion-free base sphere is accepted
    assert product_trivial((3,), sphere_rotation()).group.torsion == (3,)


def test_projective_plane_structure():
    action = projective_plane()
    tree = action.tree
    assert tree.root == "0"
    assert tree.depth("p1") == 2 and tree.depth("p2") == 1
    assert ("0", "s", "p1") in action.corners
    # the seam sits between the root and two of the three poles
    assert tree.less("s", "p1") and tree.less("s", "p3")
    assert not tree.less("s", "p2")


def test_random_actions_validate():
    for seed in range(12):
        action = random_action(seed)
        rep = action.validate(radius=1)
        assert rep.ok, f"seed {seed}:\n{rep}"


def test_random_action_deterministic():
    a = random_action(3)
    b = random_action(3)
    assert set(a.tree.nodes) == set(b.tree.nodes)
    assert a.notes == b.notes


def test_generated_descriptors_are_pinned():
    # seeds 0..199 reach all 6 multipole and 18 twisted variants and both product
    # orders; the four named fixtures are those the golden CLI file does not
    # emit; the digest was recorded before the builders were shared
    from resolvedk.descriptor import serialize_descriptor

    digest = hashlib.sha256()
    for seed in range(200):
        digest.update(serialize_descriptor(random_action(seed)).encode())
    assert digest.hexdigest() == (
        "faecc34da202c6c7cfc5dc3e12d5a8e15ff7ddd5ef072c407196d0a77e1c9ffe"
    )
    digest = hashlib.sha256()
    for action in (
        sphere_rotation_speed(2),
        sphere_rotation_speed(5),
        product_trivial((3,)),
        product_trivial((2, 4)),
    ):
        digest.update(serialize_descriptor(action).encode())
    assert digest.hexdigest() == (
        "815d29bd2133e8e3a9d2d85374ac23dba345a98750f4ff60ffbb7dd51950a931"
    )
