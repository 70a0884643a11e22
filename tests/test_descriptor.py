"""Descriptor schema: exact round-trips, strictness, path-precise errors."""

import gc
import io
import json
import weakref

import pytest

from resolvedk import descriptor, fixtures
from resolvedk.cli import main
from resolvedk.deloc import assemble_complex, deloc_cohomology
from resolvedk.descriptor import (
    DescriptorError,
    FIXTURE_NAMES,
    generate_fixture,
    parse_descriptor,
    serialize_descriptor,
)

MINIMAL = """
{
  "format": "resolvedk-action",
  "version": "1",
  "group": {"free_rank": "1", "torsion": []},
  "tree": {
    "nodes": {
      "n": {
        "target": {"free_rank": "1", "torsion": []},
        "restriction": [["1"]],
        "kernel_basis": []
      }
    },
    "order": [],
    "face_ids": {},
    "corner_chains": []
  },
  "windows": {"n": {"kind": "explicit", "chars": [["0"]]}},
  "spaces": {
    "n": {
      "complex": {"dims": ["1"], "differentials": []},
      "shifts": [],
      "k": {
        "k0": {"free_rank": "1", "torsion": []},
        "k1": {"free_rank": "0", "torsion": []},
        "sigma0": [],
        "sigma1": [],
        "dim_hom": [["1"]]
      }
    }
  },
  "faces": {}
}
"""


def sphere_doc():
    return json.loads(serialize_descriptor(fixtures.sphere_rotation()))


def parse_doc(doc):
    return parse_descriptor(json.dumps(doc))


def test_minimal_single_node_file():
    desc = parse_descriptor(MINIMAL)
    assert desc.action.validate().ok
    dims = deloc_cohomology(assemble_complex(desc.action))
    assert (dims.even, dims.odd) == (1, 0)


@pytest.mark.parametrize(
    "make",
    [
        fixtures.sphere_rotation,
        lambda: fixtures.sphere_rotation_speed(3),
        lambda: fixtures.product_trivial((2,)),
        fixtures.projective_plane,
        lambda: fixtures.random_action(0),
        lambda: fixtures.random_action(7),
    ],
)
def test_round_trip_is_a_fixed_point(make):
    action = make()
    text = serialize_descriptor(action)
    desc = parse_descriptor(text)
    assert serialize_descriptor(desc) == text
    assert desc.action.validate(1).ok
    base = deloc_cohomology(assemble_complex(action, radius=1))
    back = deloc_cohomology(assemble_complex(desc.action, radius=1))
    assert (base.even, base.odd) == (back.even, back.odd)


def test_round_trip_preserves_notes_expected_and_windows():
    sphere = fixtures.sphere_rotation()
    desc = parse_descriptor(serialize_descriptor(sphere))
    assert desc.action.notes == sphere.notes
    assert desc.action.expected == sphere.expected
    assert desc.action.window_rules == sphere.window_rules
    assert desc.action.bundles == sphere.bundles
    assert desc.action.chern.reps.keys() == sphere.chern.reps.keys()


def test_serialization_is_deterministic():
    a = serialize_descriptor(fixtures.projective_plane())
    b = serialize_descriptor(fixtures.projective_plane())
    assert a == b


def test_rejects_non_json():
    with pytest.raises(DescriptorError, match="not valid JSON"):
        parse_descriptor("{nope")


def test_rejects_unknown_fields_with_path():
    doc = sphere_doc()
    doc["flavour"] = "salt"
    with pytest.raises(DescriptorError, match="unknown field.*'flavour'"):
        parse_doc(doc)

    doc = sphere_doc()
    doc["spaces"]["N"]["extra"] = []
    with pytest.raises(DescriptorError, match=r"spaces\.N: unknown field"):
        parse_doc(doc)

    doc = sphere_doc()
    doc["tree"]["nodes"]["0"]["colour"] = "blue"
    with pytest.raises(DescriptorError, match=r"tree\.nodes\.0: unknown field"):
        parse_doc(doc)


def test_rejects_corrupted_divisibility_chain():
    doc = sphere_doc()
    doc["group"]["torsion"] = ["2", "3"]
    with pytest.raises(DescriptorError, match=r"group\.torsion.*divisibility"):
        parse_doc(doc)


@pytest.mark.parametrize("bad", ["01", "+1", "-0", "1.5", ""])
def test_rejects_non_canonical_integer_strings(bad):
    doc = sphere_doc()
    doc["group"]["free_rank"] = bad
    with pytest.raises(DescriptorError, match="canonical decimal integer"):
        parse_doc(doc)


def test_rejects_json_numbers():
    doc = sphere_doc()
    doc["group"]["free_rank"] = 1
    with pytest.raises(DescriptorError, match="expected a string"):
        parse_doc(doc)


def test_rational_entries():
    doc = sphere_doc()
    doc["spaces"]["0"]["complex"]["differentials"][0] = [["-1/2", "3/4"]]
    desc = parse_doc(doc)
    from fractions import Fraction
    assert desc.action.spaces["0"].complex.differential_block(0)[0, 0] == Fraction(-1, 2)

    for bad in ("1/0", "1/-2", "1/2/3"):
        doc["spaces"]["0"]["complex"]["differentials"][0] = [[bad, "1"]]
        with pytest.raises(DescriptorError):
            parse_doc(doc)


def test_matrix_shape_errors_carry_paths():
    doc = sphere_doc()
    doc["spaces"]["0"]["shifts"][0] = [["0", "0"], ["0", "0"]]
    with pytest.raises(DescriptorError, match=r"spaces\.0\.shifts\[0\]"):
        parse_doc(doc)

    doc = sphere_doc()
    doc["faces"]["0<N"]["restriction"] = [["1", "0"]]
    with pytest.raises(DescriptorError, match=r"faces\.0<N\.restriction"):
        parse_doc(doc)


def test_structural_cross_checks():
    doc = sphere_doc()
    del doc["faces"]["0<N"]
    with pytest.raises(DescriptorError, match="missing face"):
        parse_doc(doc)

    doc = sphere_doc()
    doc["faces"]["N<S"] = doc["faces"]["0<N"]
    with pytest.raises(DescriptorError, match="not comparable"):
        parse_doc(doc)

    doc = sphere_doc()
    doc["tree"]["order"].append(["0", "Q"])
    with pytest.raises(DescriptorError, match="unknown node 'Q'"):
        parse_doc(doc)

    doc = sphere_doc()
    del doc["tree"]["face_ids"]["0<N"]
    with pytest.raises(DescriptorError, match="face names"):
        parse_doc(doc)

    doc = sphere_doc()
    del doc["windows"]["S"]
    with pytest.raises(DescriptorError, match="missing node.*'S'"):
        parse_doc(doc)


def test_corner_key_must_be_declared():
    doc = json.loads(serialize_descriptor(fixtures.projective_plane()))
    corner = doc["corners"].pop("0<s<p1")
    doc["corners"]["0<s<p2"] = corner
    with pytest.raises(DescriptorError, match="not declared"):
        parse_doc(doc)


def test_corner_k_block_is_all_or_nothing():
    doc = json.loads(serialize_descriptor(fixtures.projective_plane()))
    del doc["corners"]["0<s<p1"]["sigma0"]
    with pytest.raises(DescriptorError, match="K0 block"):
        parse_doc(doc)


def test_window_rule_validation():
    doc = sphere_doc()
    doc["windows"]["N"] = {"kind": "ball", "radius": "1", "chars": []}
    with pytest.raises(DescriptorError, match="ball windows"):
        parse_doc(doc)

    doc["windows"]["N"] = {"kind": "sideways"}
    with pytest.raises(DescriptorError, match="unknown window kind"):
        parse_doc(doc)

    doc["windows"]["N"] = {"kind": "residue_ball", "radius": "1"}
    with pytest.raises(DescriptorError, match="modulus"):
        parse_doc(doc)


def test_format_and_version_checks():
    doc = sphere_doc()
    doc["format"] = "other"
    with pytest.raises(DescriptorError, match="format"):
        parse_doc(doc)
    doc = sphere_doc()
    doc["version"] = "99"
    with pytest.raises(DescriptorError, match="version"):
        parse_doc(doc)


def test_bundle_entries_checked():
    doc = sphere_doc()
    doc["bundles"]["poles"]["N"].append({"char": ["0"], "class": ["1"]})
    with pytest.raises(DescriptorError, match="duplicate character"):
        parse_doc(doc)

    doc = sphere_doc()
    doc["bundles"]["poles"]["N"][0]["class"] = ["1", "2"]
    with pytest.raises(DescriptorError, match=r"bundles\.poles\.N"):
        parse_doc(doc)


def test_generate_fixture_names_and_params():
    for name in ("sphere_rotation", "projective_plane"):
        desc = generate_fixture(name)
        assert desc.name == name and desc.params == {}
    desc = generate_fixture("sphere_rotation_speed", {"n": 2})
    assert desc.params == {"n": 2}
    assert set(FIXTURE_NAMES) == {
        "sphere_rotation", "sphere_rotation_speed", "product_trivial", "projective_plane",
    }

    with pytest.raises(ValueError, match="unknown fixture"):
        generate_fixture("klein_bottle")
    with pytest.raises(ValueError, match="n >= 2"):
        generate_fixture("sphere_rotation_speed", {"n": 1})
    with pytest.raises(ValueError, match="torsion"):
        generate_fixture("product_trivial", {"torsion": []})
    with pytest.raises(ValueError, match="does not take"):
        generate_fixture("sphere_rotation", {"n": 3})


def test_product_fixture_matches_speed_two_dimensions():
    prod = generate_fixture("product_trivial", {"torsion": [2]}).action
    speed = generate_fixture("sphere_rotation_speed", {"n": 2}).action
    a = deloc_cohomology(assemble_complex(prod, radius=1))
    b = deloc_cohomology(assemble_complex(speed, radius=1))
    assert (a.even, a.odd) == (b.even, b.odd) == (10, 0)


# -- one object per distinct content within a parse ---------------------------------


def _fixture_texts():
    return [
        serialize_descriptor(generate_fixture(name, params))
        for name, params in (
            ("sphere_rotation", None),
            ("sphere_rotation_speed", {"n": 3}),
            ("product_trivial", {"torsion": [2]}),
            ("projective_plane", None),
        )
    ]


def _space_entries(doc, action):
    """(JSON, parsed object) for every node space and face space."""
    out = [(doc["spaces"][label], action.spaces[label]) for label in action.spaces]
    for (a, b), face in action.faces.items():
        out.append((doc["faces"][f"{a}<{b}"]["space"], face.face))
    return out


@pytest.mark.parametrize("text", _fixture_texts())
def test_content_equal_spaces_are_one_object(text):
    desc = parse_descriptor(text)
    assert serialize_descriptor(desc) == text
    entries = _space_entries(json.loads(text), desc.action)
    by_content = {}
    for doc, space in entries:
        by_content.setdefault(json.dumps(doc), set()).add(id(space))
    assert all(len(ids) == 1 for ids in by_content.values())
    assert len({id(space) for _, space in entries}) == len(by_content) < len(entries)


def test_equal_matrices_under_different_groups_are_distinct_homs():
    doc = json.loads(MINIMAL)
    z2 = {"free_rank": "0", "torsion": ["2"]}
    doc["group"] = z2
    doc["tree"]["nodes"]["n"]["target"] = dict(z2)
    desc = parse_doc(doc)
    restriction = desc.action.tree.nodes["n"].restriction
    dim_hom = desc.action.spaces["n"].kdata.dim_hom
    assert restriction.matrix == dim_hom.matrix
    assert restriction is not dim_hom
    assert restriction.domain.torsion == (2,) and dim_hom.domain.torsion == ()


def test_broken_copy_of_a_repeated_space_fails_at_its_own_path():
    doc = sphere_doc()
    # space entries in the order the parser reads them
    paths = [("spaces", label) for label in doc["spaces"]]
    paths += [("faces", key, "space") for key in doc["faces"]]

    def at(d, path):
        for part in path:
            d = d[part]
        return d

    first, second = next(
        (p, q) for i, p in enumerate(paths) for q in paths[i + 1:] if at(doc, p) == at(doc, q)
    )
    for path in (second, first):
        broken = json.loads(json.dumps(doc))
        at(broken, path)["complex"]["dims"][0] = "01"
        with pytest.raises(DescriptorError) as err:
            parse_doc(broken)
        assert err.value.path == path + ("complex", "dims", 0)


def test_parses_share_nothing_and_release_their_objects(monkeypatch):
    class Tracked(descriptor.NodeSpaceData):
        __slots__ = ("__weakref__",)

    monkeypatch.setattr(descriptor, "NodeSpaceData", Tracked)
    text = serialize_descriptor(fixtures.projective_plane())
    first, second = parse_descriptor(text), parse_descriptor(text)

    def parts(action):
        spaces = [s for _, s in _space_entries(json.loads(text), action)]
        kdata = [s.kdata for s in spaces]
        homs = [k.dim_hom for k in kdata] + [h for k in kdata for h in k.sigma0]
        return {id(x) for x in spaces + kdata + homs + [s.complex for s in spaces]}

    assert not parts(first.action) & parts(second.action)
    refs = [weakref.ref(s) for s in first.action.spaces.values()]
    del first
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert second.action.validate(1).ok


def test_plane_builds_one_space_and_one_hom_per_distinct_content(monkeypatch):
    spaces, homs, hom_entries = [], [], []

    def counting(record, cls):
        def build(*args, **kwargs):
            obj = cls(*args, **kwargs)
            record.append(obj)
            return obj
        return build

    monkeypatch.setattr(descriptor, "NodeSpaceData", counting(spaces, descriptor.NodeSpaceData))
    monkeypatch.setattr(descriptor, "AbHom", counting(homs, descriptor.AbHom))
    monkeypatch.setattr(descriptor, "_hom", counting(hom_entries, descriptor._hom))
    text = serialize_descriptor(fixtures.projective_plane())
    action = parse_descriptor(text).action
    assert len(spaces) == 4 < len(_space_entries(json.loads(text), action)) == 11
    # a hom's context is the identity of its groups, themselves one object
    # per content
    assert len({(id(h.domain), id(h.codomain), h.matrix) for h in homs}) == len(homs)
    assert len(homs) < len(hom_entries)


def test_plane_shares_dimension_homs_of_equal_content():
    # every K-data's dimension hom has one codomain object, so two with the
    # same K0 object and the same matrix are one interned hom
    text = serialize_descriptor(fixtures.projective_plane())
    action = parse_descriptor(text).action
    dim_homs = {}
    for _, space in _space_entries(json.loads(text), action):
        hom = space.kdata.dim_hom
        dim_homs.setdefault((id(hom.domain), hom.matrix), set()).add(id(hom))
    assert [len(ids) for ids in dim_homs.values()] == [1, 1]


# -- duplicate object keys -----------------------------------------------------------


def test_rejects_duplicate_keys_with_path():
    text = MINIMAL.replace('"format": "resolvedk-action"', '"format": "12345", "format": "resolvedk-action"')
    with pytest.raises(DescriptorError, match="^duplicate key 'format'$"):
        parse_descriptor(text)

    text = MINIMAL.replace('"shifts": []', '"shifts": [], "shifts": []')
    with pytest.raises(DescriptorError) as err:
        parse_descriptor(text)
    assert err.value.path == ("spaces", "n")
    assert str(err.value) == "spaces.n: duplicate key 'shifts'"


@pytest.mark.parametrize("path, what", [
    (("tree", "nodes"), "of node data"),
    (("tree", "face_ids"), "of face names"),
    (("spaces",), "of per-node space data"),
    (("windows",), "of per-node window rules"),
    (("chern",), "of per-node Chern data"),
    (("faces",), "of face data"),
    (("corners",), "of corner data"),
    (("bundles",), "of bundles"),
    (("bundles", "poles"), "keyed by node label"),
    (("expected", "deloc_dims_by_radius"), "keyed by window radius"),
])
def test_rejects_a_list_in_place_of_a_keyed_object(tmp_path, path, what):
    doc = sphere_doc()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = []
    file = tmp_path / "listed.json"
    file.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    assert main(["deloc", "--input", str(file)], out=out, err=err) == 2
    assert (out.getvalue(), err.getvalue()) == (
        "", f"resolvedk: {'.'.join(path)}: expected an object {what}\n"
    )
