"""Built-in example actions with documented expected outputs.

Every fixture is a complete `ResolvedAction`: dual-group data, isotropy
tree, cochain models, shift operators, K-data, face maps, windows, a sample
reduced bundle, and Chern representatives.  The cochain models are finite
stand-ins chosen per example and documented in `docs/`; expected dimensions
were derived independently (constraint counting on the assembled complex)
and are frozen here so the engine can be checked against them.

`random_action(seed)` generates small valid synthetic actions for
property-style exercises of the pruning sequences.

Two builders write out the models, and the named examples and the random
families share them: `_poles_over_a_path` is the interval with its poles
blown up (`sphere_rotation` is the speed-1 case of
`sphere_rotation_speed`), and `_seamed_sphere` is the two-sphere base with
an optional Z/2 seam (`projective_plane`).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .action import ChernData, ResolvedAction, WindowRule
from .basespace import (
    ChainMap,
    CochainComplex,
    CornerData,
    FaceMaps,
    KData,
    KPair,
    NodeSpaceData,
    Z,
)
from .chargroup import SubgroupDatum
from .fgab import AbHom, FgAbGroup
from .itspace import IsotropyTree

TRIV = FgAbGroup.free(0)


def _rank_kdata(k0: FgAbGroup, k1: FgAbGroup, count: int) -> KData:
    """K-data whose dimension homomorphism reads off the first coordinate."""
    dim = AbHom(k0, Z, [[1] + [0] * (k0.ngens - 1)] if k0.ngens else [[]])
    return KData.trivial_shifts(k0, k1, dim, count)


def _point_node(shift_count: int) -> NodeSpaceData:
    pt = CochainComplex.point()
    shifts = [ChainMap.zero(pt, pt, degree=2) for _ in range(shift_count)]
    return NodeSpaceData(pt, shifts, _rank_kdata(Z, TRIV, shift_count))


def _identity_kpair(k0: FgAbGroup, k1: FgAbGroup) -> KPair:
    return KPair(AbHom.identity(k0), AbHom.identity(k1))


# ---------------------------------------------------------------------------
# interval with poles: the rotation sphere
# ---------------------------------------------------------------------------

def _poles_over_a_path(n: int, labels: Sequence[str]):
    """(tree, spaces, faces, windows) of a path-graph root with fixed poles.

    The root "0" has isotropy Z/n (trivial for n = 1); its base is the path
    graph on one vertex per label, and each vertex is blown up into a pole
    node with full isotropy.  Pole windows are balls of radius 1, residue
    balls when n > 1.
    """
    p = len(labels)
    generic = SubgroupDatum(AbHom(Z, TRIV, []) if n == 1 else AbHom(Z, FgAbGroup(0, (n,)), [[1]]))
    whole = SubgroupDatum(AbHom(Z, Z, [[1]]))
    tree = IsotropyTree(
        {"0": generic, **{lab: whole for lab in labels}},
        [("0", lab) for lab in labels],
    )

    # path graph on p vertices: C^0 = Q^p, C^1 = Q^(p-1), d = incidence
    d0 = [[0] * p for _ in range(p - 1)]
    for e in range(p - 1):
        d0[e][e] = -1
        d0[e][e + 1] = 1
    base = CochainComplex((p, p - 1), [d0])
    root = NodeSpaceData(base, [ChainMap.zero(base, base, degree=2)], _rank_kdata(Z, TRIV, 1))
    pole = _point_node(0)
    face_node = _point_node(1)
    pt = face_node.complex
    kid = _identity_kpair(Z, TRIV)

    faces = {}
    for i, lab in enumerate(labels):
        # the face over a pole evaluates the base at its vertex
        row = [0] * (2 * p - 1)
        row[i] = 1
        faces[("0", lab)] = FaceMaps(
            face_node, ChainMap(base, pt, [row]), ChainMap.identity(pt), kid, kid
        )
    pole_rule = WindowRule.ball(1) if n == 1 else WindowRule.residue_ball(n, 1)
    windows = {"0": WindowRule.full(), **{lab: pole_rule for lab in labels}}
    return tree, {"0": root, **{lab: pole for lab in labels}}, faces, windows


_SPHERE_NOTES = (
    "Quotient model: the sphere with a circle rotation resolves to an "
    "interval (the orbit space) with the two poles blown up; each pole "
    "node is a point with full isotropy.",
    "Odd-degree answer: this engine computes odd rank 0 for every window, "
    "confirmed by the independent counting oracle and the six-term rank "
    "bookkeeping.  An external reference computation reports Z for the "
    "odd group of this example; the discrepancy is documented in "
    "docs/sphere-model.md and deliberately not reproduced here.",
)


def sphere_rotation() -> ResolvedAction:
    """Circle acting on the two-sphere by rotation, resolved over an interval.

    Expected delocalized dimensions for ball windows of radius m: even
    4m+1, odd 0 (counting oracle: a pair of integer tables on the two pole
    windows with equal total sums, minus the shared interval constant).
    This is `sphere_rotation_speed(1)`.
    """
    return sphere_rotation_speed(1)


def sphere_rotation_speed(n: int) -> ResolvedAction:
    """The rotation sphere with the circle acting at n times the base speed.

    Generic isotropy becomes Z/n, so the root dual is Z/n and each pole
    window must keep a symmetric range *per residue class*: pole windows
    are residue balls.  Expected even dimension n*(4m+1), split as 4m+1
    per root sector.
    """
    if n < 1:
        raise ValueError("speed must be a positive integer")
    tree, spaces, faces, windows = _poles_over_a_path(n, ("N", "S"))
    bundles = {
        "poles": {
            "0": {(0,): (3,)},
            "N": {(0,): (2,), (3 if n == 1 else n,): (1,)},
            "S": {(0,): (3,)},
        }
    }
    chern = ChernData({"0": [(1, 1, 0)], "N": [(1,)], "S": [(1,)]})
    expected = {
        "deloc_dims_by_radius": {"0": [n, 0], "1": [5 * n, 0], "2": [9 * n, 0]},
        "even_formula": "4*m + 1" if n == 1 else f"{n}*(4*m + 1)",
        "odd_formula": "0",
    }
    notes = _SPHERE_NOTES
    if n > 1:
        expected["per_sector_even_formula"] = "4*m + 1"
        notes = (
            f"Speed-{n} rotation: every point of the open orbit has isotropy "
            f"Z/{n}; the dual data grades everything over Z/{n} sectors.",
        ) + _SPHERE_NOTES[1:]
    return ResolvedAction(
        tree, spaces, faces, windows, bundles=bundles, chern=chern, notes=notes, expected=expected
    )


# ---------------------------------------------------------------------------
# product with a trivially acting finite factor
# ---------------------------------------------------------------------------

def product_trivial(torsion: Sequence[int], inner: Optional[ResolvedAction] = None) -> ResolvedAction:
    """Extend an action by a finite factor A acting trivially.

    Every isotropy subgroup picks up the whole of A; dually, each node's
    character group gains A-hat coordinates on which restrictions are the
    identity.  Complexes, shifts, K-data, and face maps are untouched;
    windows become full along the new torsion directions.

    Requires the inner ambient dual to be free (the new coordinates are
    appended after the free block) and each node target's invariant-factor
    chain to stay valid after appending A's factors.
    """
    if inner is None:
        inner = sphere_rotation()
    a_group = FgAbGroup(0, torsion)
    ambient_in = inner.group
    if ambient_in.torsion:
        raise ValueError("product construction needs a torsion-free inner dual")
    t = a_group.ngens
    f = ambient_in.free_rank
    ambient = FgAbGroup(f, a_group.torsion)

    def extend_datum(datum: SubgroupDatum) -> SubgroupDatum:
        tgt_in = datum.target
        try:
            target = FgAbGroup(tgt_in.free_rank, tgt_in.torsion + a_group.torsion)
        except ValueError as exc:
            raise ValueError(
                f"cannot append factors {tuple(torsion)} to target {tgt_in}: {exc}"
            )
        rows = []
        m = datum.restriction.matrix
        for i in range(tgt_in.ngens):
            rows.append(list(m.row(i)) + [0] * t)
        for j in range(t):
            rows.append([0] * f + [1 if k == j else 0 for k in range(t)])
        # reorder rows into free-then-torsion for the new target: the inner
        # target's rows already sit first; its torsion rows must precede the
        # appended A rows, which they do by construction.
        basis = [tuple(b.coords) + (0,) * t for b in datum.kernel_basis]
        return SubgroupDatum(AbHom(ambient, target, rows), kernel_basis=basis)

    nodes = {label: extend_datum(d) for label, d in inner.tree.nodes.items()}
    tree = IsotropyTree(
        nodes,
        inner.tree.order,
        face_ids=inner.tree.face_ids,
        corner_chains=inner.tree.corner_chains,
    )

    def extend_rule(rule: WindowRule) -> WindowRule:
        if rule.kind == "explicit":
            extra = list(a_group.elements())
            return WindowRule.explicit(
                [tuple(c) + tuple(a) for c in rule.chars for a in extra]
            )
        if rule.kind in ("full", "ball"):
            return rule
        raise ValueError("product construction does not support residue windows")

    window_rules = {label: extend_rule(r) for label, r in inner.window_rules.items()}

    bundles = {
        name: {
            node: {tuple(c) + (0,) * t: cls for c, cls in table.items()}
            for node, table in per_node.items()
        }
        for name, per_node in inner.bundles.items()
    }
    order = a_group.order()
    expected = dict(inner.expected)
    if "deloc_dims_by_radius" in expected:
        expected["deloc_dims_by_radius"] = {
            k: [order * v for v in dims]
            for k, dims in expected["deloc_dims_by_radius"].items()
        }
    expected["product_factor_order"] = order
    notes = (
        f"Product with a trivially acting finite factor of order {order}: "
        "all dimensions are that multiple of the inner action's.",
    ) + inner.notes
    return ResolvedAction(
        tree,
        inner.spaces,
        inner.faces,
        window_rules,
        corners=inner.corners,
        bundles=bundles,
        chern=inner.chern,
        notes=notes,
        expected=expected,
    )


# ---------------------------------------------------------------------------
# seamed sphere: the projective plane
# ---------------------------------------------------------------------------

def _seamed_sphere(
    k: int,
    sphere_poles: Sequence[str],
    seam: bool,
    seam_poles: Sequence[str],
    corner_k: bool,
):
    """(tree, spaces, faces, windows, corners) over a two-sphere root.

    The root "0" has trivial isotropy and the sphere model with shift k:
    cupping with k*omega, with K0 = Z^2 twisted by [[1,0],[k,1]].  Each of
    `sphere_poles` is a fixed pole whose face over the root is a copy of
    the root model.  `seam` adds a Z/2 seam "s" with a circle face over the
    root; each of `seam_poles` sits above the seam too, with a disk face
    over the root, a point face over the seam and a corner where they
    meet.  `corner_k` gives those corners their K0 block.  Every
    comparable pair is a direct edge with a face.
    """
    z2 = FgAbGroup.free(2)
    sphere_model = CochainComplex((1, 0, 1))
    cup = ChainMap.from_blocks(sphere_model, sphere_model, {0: [[k]]}, degree=2)
    twist = AbHom(z2, z2, [[1, 0], [k, 1]])
    root_k = KData(z2, TRIV, [twist], [AbHom.identity(TRIV)], AbHom(z2, Z, [[1, 0]]))
    root = NodeSpaceData(sphere_model, [cup], root_k)
    pole = _point_node(0)
    whole = SubgroupDatum(AbHom(Z, Z, [[1]]))
    pt = CochainComplex.point()
    kid = _identity_kpair(Z, TRIV)

    poles = sorted([*sphere_poles, *seam_poles])
    nodes = {"0": SubgroupDatum(AbHom(Z, TRIV, []))}
    spaces = {"0": root}
    windows = {"0": WindowRule.full()}
    faces = {}
    if seam:
        seam_complex = CochainComplex((1,))
        nodes["s"] = SubgroupDatum(AbHom(Z, FgAbGroup(0, (2,)), [[1]]))
        spaces["s"] = NodeSpaceData(
            seam_complex,
            [ChainMap.zero(seam_complex, seam_complex, degree=2)],
            _rank_kdata(Z, TRIV, 1),
        )
        windows["s"] = WindowRule.full()
        # face over the seam: a circle, with K1 = Z; the restriction to it
        # kills omega whatever the shift
        circle = CochainComplex((1, 1))
        circle_face = NodeSpaceData(
            circle,
            [ChainMap.zero(circle, circle, degree=2)],
            KData.trivial_shifts(Z, Z, AbHom.identity(Z), 1),
        )
        faces[("0", "s")] = FaceMaps(
            circle_face,
            ChainMap(sphere_model, circle, [[1, 0], [0, 0]]),
            ChainMap(seam_complex, circle, [[1], [0]]),
            KPair(AbHom(z2, Z, [[1, 0]]), AbHom(TRIV, Z, [[]])),
            KPair(AbHom.identity(Z), AbHom(TRIV, Z, [[]])),
        )
    nodes.update({lab: whole for lab in poles})
    spaces.update({lab: pole for lab in poles})
    windows.update({lab: WindowRule.ball(1) for lab in poles})

    # a free-orbit pole's face: a copy of the root sphere model
    sphere_face = NodeSpaceData(sphere_model, [cup], root_k)
    # a seam pole's face over the root: a disk, so that its corner closes
    disk = CochainComplex((1,))
    disk_face = NodeSpaceData(disk, [ChainMap.zero(disk, disk, degree=2)], _rank_kdata(Z, TRIV, 1))
    for lab in poles:
        if lab in seam_poles:
            faces[("0", lab)] = FaceMaps(
                disk_face,
                ChainMap(sphere_model, disk, [[1, 0]]),
                ChainMap.identity(pt),
                KPair(AbHom(z2, Z, [[1, 0]]), AbHom.identity(TRIV)),
                kid,
            )
        else:
            faces[("0", lab)] = FaceMaps(
                sphere_face,
                ChainMap.identity(sphere_model),
                ChainMap(pt, sphere_model, [[1], [0]]),
                KPair(AbHom.identity(z2), AbHom.identity(TRIV)),
                KPair(AbHom(Z, z2, [[1], [0]]), AbHom.identity(TRIV)),
            )

    # faces between the seam and its poles: points, meeting the root at corners
    pt_face = _point_node(1)
    one = AbHom.identity(Z)
    k_block = dict(k0=Z, sigma0=[one], into_ab_k=one, into_ag_k=one, pull_bg_k=one) if corner_k else {}
    corners = {}
    for lab in seam_poles:
        faces[("s", lab)] = FaceMaps(
            pt_face, ChainMap(seam_complex, pt, [[1]]), ChainMap.identity(pt), kid, kid
        )
        corners[("0", "s", lab)] = CornerData(
            circle,
            [ChainMap.zero(circle, circle, degree=2)],
            into_ab=ChainMap.identity(circle),
            into_ag=ChainMap(disk, circle, [[1], [0]]),
            pull_bg=ChainMap(pt, circle, [[1], [0]]),
            **k_block,
        )

    tree = IsotropyTree(nodes, list(faces), corner_chains=list(corners))
    return tree, spaces, faces, windows, corners


_PLANE_NOTES = (
    "Complex projective plane with the diagonal-weight circle action: the "
    "open orbit has trivial isotropy, a two-sphere's worth of points has "
    "Z/2, and three points are fixed.  Cochain models and expected "
    "dimensions come from the CW derivation in "
    "docs/projective-plane-model.md.",
    "The root model carries a nontrivial shift: cupping with the generator "
    "omega of its degree-two cohomology, with K0 = Z^2 twisted by the "
    "unipotent matrix [[1,0],[1,1]].",
)


def projective_plane() -> ResolvedAction:
    """Weighted circle action on the projective plane.

    Expected delocalized dimensions for pole windows of radius m: even 1
    at m=0 and 6m for m >= 1, odd 0 throughout (constraint counting on
    the assembled complex; see docs/projective-plane-model.md).
    """
    tree, spaces, faces, windows, corners = _seamed_sphere(
        1, ("p2",), True, ("p1", "p3"), corner_k=True
    )
    bundles = {"tautological": {
        "0": {(0,): (2, 1)}, **{lab: {(0,): (1,), (1,): (1,)} for lab in ("s", "p1", "p2", "p3")}
    }}
    chern = ChernData(
        {"0": [(1, 0), (0, 1)], "s": [(1,)], "p1": [(1,)], "p2": [(1,)], "p3": [(1,)]}
    )
    expected = {
        "deloc_dims_by_radius": {"0": [1, 0], "1": [6, 0], "2": [12, 0]},
        "even_formula": "1 if m == 0 else 6*m",
        "odd_formula": "0",
    }
    return ResolvedAction(
        tree,
        spaces,
        faces,
        windows,
        corners=corners,
        bundles=bundles,
        chern=chern,
        notes=_PLANE_NOTES,
        expected=expected,
    )


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def _multipole(rng: random.Random) -> ResolvedAction:
    """Path-graph base with several fully fixed poles; root isotropy Z/n."""
    n = rng.choice([1, 2, 3])
    p = rng.choice([2, 4])
    parts = _poles_over_a_path(n, [f"p{i}" for i in range(p)])
    return ResolvedAction(*parts, notes=(f"synthetic multipole base, n={n}, p={p}",))


def _twisted(rng: random.Random) -> ResolvedAction:
    """Sphere-model base with a twisted shift and optional seam branch."""
    k = rng.randint(0, 2)
    q = rng.choice([1, 3])
    with_seam = rng.random() < 0.5
    labels = [f"q{i}" for i in range(q)]
    # with a seam, the first pole may attach above it as well, with a corner
    seam_poles = labels[:1] if with_seam and rng.random() < 0.5 else []
    tree, spaces, faces, windows, corners = _seamed_sphere(
        k, labels[len(seam_poles):], with_seam, seam_poles, corner_k=False
    )
    return ResolvedAction(
        tree, spaces, faces, windows, corners=corners,
        notes=(f"synthetic twisted base, k={k}, q={q}, seam={with_seam}",),
    )


def random_action(seed: int) -> ResolvedAction:
    """A small, valid, randomized resolved action (deterministic per seed)."""
    rng = random.Random(seed)
    family = rng.choice(["multipole", "twisted", "product"])
    if family == "multipole":
        return _multipole(rng)
    if family == "twisted":
        return _twisted(rng)
    # product family: the inner multipole must avoid residue windows, so
    # force generic isotropy to be trivial before taking the product.
    while True:
        inner = _multipole(rng)
        if all(rule.kind != "residue_ball" for rule in inner.window_rules.values()):
            break
    torsion = (rng.choice([2, 3]),)
    return product_trivial(torsion, inner)

