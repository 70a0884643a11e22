"""One hypothesis list: every computing command refuses what `validate` fails.

The descriptor rows (`ResolvedAction.descriptor_report`) are made once per
parsed action.  `validate` reports all of them; `deloc`, `kred`, `compare`,
`les`, `stabilize` and `ch` raise the first failing one as `row: detail`
and exit 2.  `ch` then reads the Chern rows (`validate_chern_data`), which
`validate` reports too.
"""

import io
import json

import pytest

from resolvedk import action as action_module
from resolvedk import fixtures
from resolvedk.action import ResolvedAction, WindowRule
from resolvedk.basespace import (
    ChainMap,
    CochainComplex,
    CornerData,
    FaceMaps,
    KData,
    KPair,
    NodeSpaceData,
    validate_face,
)
from resolvedk.chargroup import SubgroupDatum
from resolvedk.cli import build_parser, main, run
from resolvedk.descriptor import ActionDescriptor, serialize_descriptor
from resolvedk.fgab import AbHom, FgAbGroup
from resolvedk.itspace import IsotropyTree

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.free(2)
TRIV = FgAbGroup.free(0)

COMPUTING = ("deloc", "kred", "compare", "les", "stabilize", "ch")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _first_row(report_rows):
    """The first failing row of a `validate` payload, as the gate raises it."""
    for name, ok, detail in report_rows:
        if not ok:
            return f"{name}: {detail or 'fails'}"
    return None


def _outcome(command, action, *extra):
    """(exit status, first failing row or None) of one command on an in-memory action."""
    flags = build_parser().parse_args([command, "--window", "1", *extra])
    try:
        result = run(command, ActionDescriptor(action), flags)
    except ValueError as exc:
        return 2, str(exc)
    return result.status, _first_row(result.payload.get("report", ()))


# -- planted violations of the descriptor rows, on in-memory actions ---------------


def _with(action, tree=None, spaces=None, faces=None, corners=None):
    """A fresh action (with its own descriptor report) with some parts replaced."""
    return ResolvedAction(
        action.tree if tree is None else tree,
        action.spaces if spaces is None else spaces,
        action.faces if faces is None else faces,
        action.window_rules,
        corners=action.corners if corners is None else corners,
        bundles=action.bundles,
        chern=action.chern,
    )


def _tree_with(tree, face_ids=None, corner_chains=None):
    return IsotropyTree(
        tree.nodes, tree.order,
        face_ids=tree.face_ids if face_ids is None else face_ids,
        corner_chains=tree.corner_chains if corner_chains is None else corner_chains,
    )


def _face_names_repeated(act):
    if len(act.faces) < 2:
        return None
    return _with(act, tree=_tree_with(act.tree, face_ids={p: "F" for p in act.tree.order}))


def _chain_out_of_order(act):
    labels = act.tree.labels_by_depth()
    if len(labels) < 3:
        return None
    chain = (labels[-1], labels[0], labels[1])
    return _with(act, tree=_tree_with(act.tree, corner_chains=[*act.tree.corner_chains, chain]))


def _space_missing(act):
    deepest = act.tree.labels_by_depth()[-1]
    return _with(act, spaces={k: v for k, v in act.spaces.items() if k != deepest})


def _face_missing(act):
    if not act.faces:
        return None
    first = min(act.faces)
    return _with(act, faces={k: v for k, v in act.faces.items() if k != first})


def _root_shifts_dropped(act):
    root = act.tree.root
    space = act.spaces[root]
    if not space.shifts:
        return None
    return _with(act, spaces={**act.spaces, root: NodeSpaceData(space.complex, [], space.kdata)})


def _root_sigma_zeroed(act):
    root = act.tree.root
    space = act.spaces[root]
    k = space.kdata
    if not k.sigma0 or not k.k0.ngens:
        return None
    zero = AbHom(k.k0, k.k0, [[0] * k.k0.ngens for _ in range(k.k0.ngens)])
    kdata = KData(k.k0, k.k1, [zero, *k.sigma0[1:]], k.sigma1, k.dim_hom)
    return _with(act, spaces={
        **act.spaces, root: NodeSpaceData(space.complex, space.shifts, kdata),
    })


def _face_shifts_zeroed(act):
    faces = {}
    for pair, fm in act.faces.items():
        cx = fm.face.complex
        zeros = [ChainMap.zero(cx, cx, degree=2) for _ in fm.face.shifts]
        space = NodeSpaceData(cx, zeros, fm.face.kdata)
        faces[pair] = FaceMaps(space, fm.rho, fm.pullback, fm.rho_k, fm.pullback_k)
    return _with(act, faces=faces)


def _face_sigmas_trivial(act):
    faces = {}
    for pair, fm in act.faces.items():
        k = fm.face.kdata
        kdata = KData.trivial_shifts(k.k0, k.k1, k.dim_hom, k.generator_count)
        space = NodeSpaceData(fm.face.complex, fm.face.shifts, kdata)
        faces[pair] = FaceMaps(space, fm.rho, fm.pullback, fm.rho_k, fm.pullback_k)
    return _with(act, faces=faces)


def _corners_undeclared(act):
    # the descriptor parser refuses corner data off the declared chains, so in memory only
    if not act.corners:
        return None
    return _with(act, tree=_tree_with(act.tree, corner_chains=[]))


def _corner_into_ag_doubled(act):
    if not act.corners:
        return None
    corners = {}
    for chain, c in act.corners.items():
        doubled = ChainMap(c.into_ag.source, c.into_ag.target, c.into_ag.matrix * 2)
        corners[chain] = CornerData(
            c.corner, c.shifts, c.into_ab, doubled, c.pull_bg, k0=c.k0, sigma0=c.sigma0,
            into_ab_k=c.into_ab_k, into_ag_k=c.into_ag_k, pull_bg_k=c.pull_bg_k,
        )
    return _with(act, corners=corners)


PLANTINGS = {
    # planting: the row it fails first wherever it fails
    _face_names_repeated: "tree: face names distinct",
    _chain_out_of_order: "tree: corner chains totally ordered",
    _space_missing: "space data matches node set",
    _face_missing: "face data matches comparable pairs",
    _root_shifts_dropped: "one shift per kernel generator",
    _root_sigma_zeroed: "sigma0 automorphisms invertible",
    _face_shifts_zeroed: "rho intertwines chain shifts",
    _face_sigmas_trivial: "rho intertwines K shifts",
    _corners_undeclared: "corner data only on declared chains",
    _corner_into_ag_doubled: "restrictions from the base node agree on the corner",
}

ACTIONS = [
    ("sphere_rotation", fixtures.sphere_rotation),
    ("sphere_rotation_speed:n=3", lambda: fixtures.sphere_rotation_speed(3)),
    ("product_trivial:torsion=2", lambda: fixtures.product_trivial((2,))),
    ("projective_plane", fixtures.projective_plane),
] + [
    (f"random_action({seed})", lambda seed=seed: fixtures.random_action(seed))
    for seed in range(120)
]


def test_validate_fails_exactly_when_deloc_refuses_and_both_name_the_same_row():
    failing_rows = {row: 0 for row in PLANTINGS.values()}
    for name, build in ACTIONS:
        act = build()
        assert _outcome("validate", act) == (0, None), name
        assert _outcome("deloc", act)[0] == 0, name
        for plant, row in PLANTINGS.items():
            planted = plant(act)
            if planted is None:
                continue
            status, first = _outcome("validate", planted)
            refused = _outcome("deloc", planted)
            assert (status == 1) == (refused[0] == 2), (name, plant.__name__)
            if status == 1:
                assert refused == (2, first), (name, plant.__name__)
                failing_rows[row] += f"{row}: " in first
    # every planting failed its row on some action
    assert all(failing_rows.values()), failing_rows


# -- one planted input per row the computing commands did not check before ------------


def _one_node(space, rank):
    """One node of trivial isotropy in Z^rank, carrying `space`."""
    tree = IsotropyTree({"n": SubgroupDatum(AbHom(FgAbGroup.free(rank), TRIV, []))}, [])
    return ResolvedAction(tree, {"n": space}, {}, {"n": WindowRule.full()})


def _shift_against_d():
    # d0 = d2 = 1: the shift from degree 0 to 2 meets d2, the one from 1 to 3 is zero
    cx = CochainComplex((1, 1, 1, 1), [[[1]], [[0]], [[1]]])
    shift = ChainMap.from_blocks(cx, cx, {0: [[1]], 1: [[0]]}, degree=2)
    k = KData.trivial_shifts(Z, TRIV, AbHom.identity(Z), 1)
    return _one_node(NodeSpaceData(cx, [shift], k), 1)


def _shifts_not_commuting():
    cx = CochainComplex((1, 0, 1, 0, 1))
    shifts = [ChainMap.from_blocks(cx, cx, {k: [[1]]}, degree=2) for k in (0, 2)]
    k = KData.trivial_shifts(Z, TRIV, AbHom.identity(Z), 2)
    return _one_node(NodeSpaceData(cx, shifts, k), 2)


def _sigmas_not_commuting():
    a, b = AbHom(Z2, Z2, [[1, 0], [1, 1]]), AbHom(Z2, Z2, [[1, 1], [0, 1]])
    k = KData(Z2, TRIV, [a, b], [AbHom.identity(TRIV)] * 2, AbHom(Z2, Z, [[0, 0]]))
    pt = CochainComplex.point()
    return _one_node(NodeSpaceData(pt, [ChainMap.zero(pt, pt, degree=2)] * 2, k), 2)


def _dim_hom_moved():
    # sigma0 sends the second K0 generator to the sum of both, which the dimension [1, 0] sees
    k = KData(
        Z2, TRIV, [AbHom(Z2, Z2, [[1, 1], [0, 1]])], [AbHom.identity(TRIV)], AbHom(Z2, Z, [[1, 0]])
    )
    pt = CochainComplex.point()
    return _one_node(NodeSpaceData(pt, [ChainMap.zero(pt, pt, degree=2)], k), 1)


def _pulled_pair(deep_shift, deep_kdata, face_kdata, pullback_k0):
    """a < b over Z: a of trivial isotropy (kernel Z), b of isotropy Z/2 (kernel 2Z).

    The face is a copy of b's complex with a zero shift; the pullback is the
    identity, so it intertwines b's shift and K shift with those of the face
    at h = (2,) exactly when b's are trivial.
    """
    pt, sph = CochainComplex.point(), CochainComplex((1, 0, 1))
    tree = IsotropyTree(
        {"a": SubgroupDatum(AbHom(Z, TRIV, [])),
         "b": SubgroupDatum(AbHom(Z, FgAbGroup(0, (2,)), [[1]]))},
        [("a", "b")],
    )
    shallow = NodeSpaceData(
        pt, [ChainMap.zero(pt, pt, degree=2)], KData.trivial_shifts(Z, TRIV, AbHom.identity(Z), 1)
    )
    deep_shifts = [ChainMap.from_blocks(sph, sph, {0: [[deep_shift]]}, degree=2)]
    deep = NodeSpaceData(sph, deep_shifts, deep_kdata)
    face = NodeSpaceData(sph, [ChainMap.zero(sph, sph, degree=2)], face_kdata)
    k0 = face_kdata.k0
    rho_k = KPair(AbHom(Z, k0, [[1]] + [[0]] * (k0.ngens - 1)), AbHom.identity(TRIV))
    maps = FaceMaps(
        face, ChainMap(pt, sph, [[1], [0]]), ChainMap.identity(sph),
        rho_k, KPair(pullback_k0, AbHom.identity(TRIV)),
    )
    return ResolvedAction(
        tree, {"a": shallow, "b": deep}, {("a", "b"): maps},
        {"a": WindowRule.full(), "b": WindowRule.full()},
    )


def _pullback_against_chain_shift():
    k = KData.trivial_shifts(Z, TRIV, AbHom.identity(Z), 1)
    return _pulled_pair(1, k, k, AbHom.identity(Z))


def _pullback_against_k_shift():
    dim = AbHom(Z2, Z, [[1, 0]])
    deep_k = KData(Z2, TRIV, [AbHom(Z2, Z2, [[1, 0], [1, 1]])], [AbHom.identity(TRIV)], dim)
    return _pulled_pair(0, deep_k, KData.trivial_shifts(Z2, TRIV, dim, 1), AbHom.identity(Z2))


def _descriptor(action):
    return json.loads(serialize_descriptor(action))


def _edited(build, path, value):
    """The descriptor of `build()` with the entry at `path` set to `value`."""
    desc = _descriptor(build())
    *parents, last = path
    node = desc
    for key in parents:
        node = node[key]
    node[last] = value
    return desc


PLANE = fixtures.projective_plane
NEW_ROWS = [
    ("node n: shift operators commute with d: generators [0]",
     lambda: _descriptor(_shift_against_d()), "n"),
    ("node n: shift operators pairwise commute: pairs [(0, 1)]",
     lambda: _descriptor(_shifts_not_commuting()), "n"),
    ("node 0: sigma0 automorphisms invertible: generators [0]",
     lambda: _edited(fixtures.sphere_rotation, ("spaces", "0", "k", "sigma0"), [[["2"]]]), "N"),
    ("node n: sigma0 automorphisms commute: pairs [(0, 1)]",
     lambda: _descriptor(_sigmas_not_commuting()), "n"),
    ("node n: shifts preserve the dimension homomorphism: generators [0]",
     lambda: _descriptor(_dim_hom_moved()), "n"),
    ("face 0<p2: rho intertwines chain shifts: generators [0]",
     lambda: _edited(PLANE, ("faces", "0<p2", "space", "shifts"), [[["0", "0"], ["0", "0"]]]),
     "p1"),
    ("face 0<p2: rho intertwines K shifts: K0 generators [0], K1 generators []",
     lambda: _edited(PLANE, ("faces", "0<p2", "space", "k", "sigma0"), [[["1", "0"], ["0", "1"]]]),
     "p1"),
    ("face a<b: pullback intertwines chain shifts: deep generators [0]",
     lambda: _descriptor(_pullback_against_chain_shift()), "b"),
    ("face a<b: pullback intertwines K shifts: deep generators [0]",
     lambda: _descriptor(_pullback_against_k_shift()), "b"),
    ("corner 0<s<p1: restrictions from the base node agree on the corner: fails",
     lambda: _edited(PLANE, ("corners", "0<s<p1", "into_ag"), [["2"], ["0"]]), "p1"),
    ("corner 0<s<p1: deep pullbacks agree on the corner: fails",
     lambda: _edited(PLANE, ("faces", "0<p1", "pullback"), [["2"]]), "p1"),
    ("corner 0<s<p1: middle node routes agree on the corner: fails",
     lambda: _edited(PLANE, ("faces", "s<p1", "restriction"), [["2"]]), "p1"),
    ("corner 0<s<p1: K0 restrictions from the base node agree: fails",
     lambda: _edited(PLANE, ("corners", "0<s<p1", "into_ab_k"), [["2"]]), "p1"),
    ("corner 0<s<p1: K0 deep pullbacks agree: fails",
     lambda: _edited(PLANE, ("faces", "0<p1", "k_pullback", "even"), [["2"]]), "p1"),
    ("corner 0<s<p1: K0 middle routes agree: fails",
     lambda: _edited(PLANE, ("faces", "s<p1", "k_restriction", "even"), [["2"]]), "p1"),
]


@pytest.mark.parametrize(
    "row, desc, prune", NEW_ROWS, ids=[row.split(": ")[1] for row, _, _ in NEW_ROWS]
)
def test_every_computing_command_refuses_a_row_it_once_skipped(tmp_path, row, desc, prune):
    path = tmp_path / "planted.json"
    path.write_text(json.dumps(desc()))
    code, out, _ = run_cli("validate", "--input", str(path), "--window", "1")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")][0] == (
        "FAIL " + row.removesuffix(": fails")
    )
    for command in COMPUTING:
        argv = [command, "--input", str(path), "--window", "1"]
        if command == "les":
            argv += ["--prune", prune]
        assert run_cli(*argv) == (2, "", f"resolvedk: {row}\n"), command


def _kernels_unnested():
    """a < b over Z with the deep node's kernel Z outside the shallow node's 2Z."""
    pt = CochainComplex.point()
    tree = IsotropyTree(
        {"a": SubgroupDatum(AbHom(Z, FgAbGroup(0, (2,)), [[1]])),
         "b": SubgroupDatum(AbHom(Z, TRIV, []))},
        [("a", "b")],
    )
    space = NodeSpaceData(
        pt, [ChainMap.zero(pt, pt, degree=2)], KData.trivial_shifts(Z, TRIV, AbHom.identity(Z), 1)
    )
    k_id = KPair(AbHom.identity(Z), AbHom.identity(TRIV))
    maps = FaceMaps(space, ChainMap.identity(pt), ChainMap.identity(pt), k_id, k_id)
    return ResolvedAction(
        tree, {"a": space, "b": space}, {("a", "b"): maps},
        {"a": WindowRule.full(), "b": WindowRule.full()},
    )


@pytest.mark.parametrize("row, build, prune", [
    ("corner data only on declared chains: undeclared [('0', 's', 'p1'), ('0', 's', 'p3')]",
     lambda: _corners_undeclared(PLANE()), "p1"),
    ("tree: kernel lattices nest along the order: violated on edges a<b", _kernels_unnested, "b"),
], ids=["undeclared corners", "unnested kernels"])
def test_every_computing_command_refuses_a_row_no_descriptor_file_plants(row, build, prune):
    act = build()
    assert _outcome("validate", act) == (1, row)
    for command in COMPUTING:
        extra = ("--prune", prune) if command == "les" else ()
        assert _outcome(command, act, *extra) == (2, row), command


def test_the_kernel_embedding_row_fails_only_where_the_tree_nesting_row_fails():
    # the descriptor rows stop after a failed tree row, so no command reaches
    # validate_face's embedding row; on its own it fails on the same face
    act = _kernels_unnested()
    datums = act.tree.nodes
    rep = validate_face(
        act.faces[("a", "b")], datums["a"], datums["b"], act.spaces["a"], act.spaces["b"]
    )
    assert rep.failures() == [
        ("deep kernel embeds in shallow kernel",
         "generator 0 of the deep kernel is outside the shallow lattice"),
    ]


def test_a_deep_node_without_its_shifts_fails_its_count_row_only(tmp_path):
    # the seam s is deep on face 0<s, whose pullback rows read s's shifts by
    # generator; validate used to stop there with an IndexError
    desc = _edited(PLANE, ("spaces", "s", "shifts"), [])
    desc["spaces"]["s"]["k"]["sigma0"] = desc["spaces"]["s"]["k"]["sigma1"] = []
    path = tmp_path / "seam.json"
    path.write_text(json.dumps(desc))
    row = "node s: one shift per kernel generator: kernel rank 1, 0 chain shifts, 0 K shifts"
    code, out, _ = run_cli("validate", "--input", str(path), "--window", "1")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == ["FAIL " + row]
    for command in COMPUTING:
        argv = [command, "--input", str(path), "--window", "1"]
        if command == "les":
            argv += ["--prune", "p1"]
        assert run_cli(*argv) == (2, "", f"resolvedk: {row}\n"), command


# -- the Chern rows ----------------------------------------------------------------


@pytest.mark.parametrize("vector, command, code, row", [
    (["1", "1", "1"], "ch", 2, "Chern representatives shaped and even: bad 0[0]"),
    (["1", "1", "1"], "validate", 1, "Chern representatives shaped and even: bad 0[0]"),
    (["1", "0", "0"], "ch", 2, "node 0: representatives are closed: generators [0]"),
    (["1", "0", "0"], "validate", 1, "node 0: representatives are closed: generators [0]"),
], ids=["odd-ch", "odd-validate", "open-ch", "open-validate"])
def test_ch_and_validate_read_the_same_chern_rows(tmp_path, vector, command, code, row):
    desc = _edited(fixtures.sphere_rotation, ("chern", "0"), [vector])
    path = tmp_path / "chern.json"
    path.write_text(json.dumps(desc))
    got, out, err = run_cli(command, "--input", str(path), "--window", "3")
    assert got == code
    if command == "ch":
        assert (out, err) == ("", f"resolvedk: {row}\n")
    else:
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == ["FAIL " + row]


def test_validate_reports_every_chern_row_of_a_valid_action():
    report = fixtures.sphere_rotation().validate(3)
    assert report.ok
    rows = [name for name, _, _ in report.checks]
    start = rows.index("Chern representatives cover all nodes")
    assert rows[start:] == [
        "Chern representatives cover all nodes",
        "Chern representatives shaped and even",
        *[
            f"node {label}: {what}"
            for label in ("0", "N", "S")
            for what in (
                "representatives are closed",
                "torsion classes have zero representative",
                "shift automorphisms match exponential twists",
            )
        ],
    ]


# -- one pass of descriptor checks per command ---------------------------------------


@pytest.mark.parametrize("argv", [
    ["validate"], ["kred"], ["deloc"], ["ch"], ["compare"], ["les", "--prune", "N"],
    ["stabilize"], ["stabilize", "--window", "5"],
], ids=lambda argv: " ".join(argv))
def test_each_command_makes_one_pass_of_descriptor_checks(monkeypatch, argv):
    # a pass validates each of the sphere's three nodes once
    seen = []
    validate_node = action_module.validate_node

    def counted(data, kernel_rank):
        seen.append(data)
        return validate_node(data, kernel_rank)

    monkeypatch.setattr(action_module, "validate_node", counted)
    if "--window" not in argv:
        argv = argv + ["--window", "3"]
    assert run_cli(*argv, "--input", "fixture:sphere_rotation")[0] == 0
    assert len(seen) == 3
