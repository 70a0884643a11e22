"""Built-in example actions with documented expected outputs.

Every fixture is a complete `ResolvedAction`: dual-group data, isotropy
tree, cochain models, shift operators, K-data, face maps, windows, a sample
reduced bundle, and Chern representatives.  The cochain models are finite
stand-ins chosen per example and documented in `docs/`; expected dimensions
were derived independently (constraint counting on the assembled complex)
and are frozen here so the engine can be checked against them.

`random_action(seed)` generates small valid synthetic actions for
property-style exercises of the pruning sequences.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

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
# rotation sphere
# ---------------------------------------------------------------------------

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
    """
    trivial = SubgroupDatum(AbHom(Z, TRIV, []))
    whole = SubgroupDatum(AbHom(Z, Z, [[1]]))
    tree = IsotropyTree(
        {"0": trivial, "N": whole, "S": whole},
        [("0", "N"), ("0", "S")],
    )

    interval = CochainComplex((2, 1), [[[-1, 1]]])
    root = NodeSpaceData(
        interval,
        [ChainMap.zero(interval, interval, degree=2)],
        _rank_kdata(Z, TRIV, 1),
    )
    pole = _point_node(0)

    pt = CochainComplex.point()
    face_node = NodeSpaceData(pt, [ChainMap.zero(pt, pt, degree=2)], _rank_kdata(Z, TRIV, 1))
    kid = _identity_kpair(Z, TRIV)

    def pole_face(evaluation_row: Sequence[int]) -> FaceMaps:
        return FaceMaps(
            face_node,
            ChainMap(interval, pt, [list(evaluation_row)]),
            ChainMap.identity(pt),
            kid,
            kid,
        )

    faces = {
        ("0", "N"): pole_face([1, 0, 0]),
        ("0", "S"): pole_face([0, 1, 0]),
    }
    windows = {
        "0": WindowRule.full(),
        "N": WindowRule.ball(1),
        "S": WindowRule.ball(1),
    }
    bundles = {
        "poles": {
            "0": {(0,): (3,)},
            "N": {(0,): (2,), (3,): (1,)},
            "S": {(0,): (3,)},
        }
    }
    chern = ChernData({"0": [(1, 1, 0)], "N": [(1,)], "S": [(1,)]})
    expected = {
        "deloc_dims_by_radius": {"0": [1, 0], "1": [5, 0], "2": [9, 0]},
        "even_formula": "4*m + 1",
        "odd_formula": "0",
    }
    return ResolvedAction(
        tree,
        {"0": root, "N": pole, "S": pole},
        faces,
        windows,
        bundles=bundles,
        chern=chern,
        notes=_SPHERE_NOTES,
        expected=expected,
    )


def sphere_rotation_speed(n: int) -> ResolvedAction:
    """The rotation sphere with the circle acting at n times the base speed.

    Generic isotropy becomes Z/n, so the root dual is Z/n and each pole
    window must keep a symmetric range *per residue class*: pole windows
    are residue balls.  Expected even dimension n*(4m+1), split as 4m+1
    per root sector.
    """
    if n < 1:
        raise ValueError("speed must be a positive integer")
    if n == 1:
        return sphere_rotation()
    cn = FgAbGroup(0, (n,))
    generic = SubgroupDatum(AbHom(Z, cn, [[1]]))
    whole = SubgroupDatum(AbHom(Z, Z, [[1]]))
    tree = IsotropyTree(
        {"0": generic, "N": whole, "S": whole},
        [("0", "N"), ("0", "S")],
    )

    interval = CochainComplex((2, 1), [[[-1, 1]]])
    root = NodeSpaceData(
        interval,
        [ChainMap.zero(interval, interval, degree=2)],
        _rank_kdata(Z, TRIV, 1),
    )
    pole = _point_node(0)
    pt = CochainComplex.point()
    face_node = NodeSpaceData(pt, [ChainMap.zero(pt, pt, degree=2)], _rank_kdata(Z, TRIV, 1))
    kid = _identity_kpair(Z, TRIV)
    faces = {
        ("0", "N"): FaceMaps(face_node, ChainMap(interval, pt, [[1, 0, 0]]),
                             ChainMap.identity(pt), kid, kid),
        ("0", "S"): FaceMaps(face_node, ChainMap(interval, pt, [[0, 1, 0]]),
                             ChainMap.identity(pt), kid, kid),
    }
    windows = {
        "0": WindowRule.full(),
        "N": WindowRule.residue_ball(n, 1),
        "S": WindowRule.residue_ball(n, 1),
    }
    bundles = {
        "poles": {
            "0": {(0,): (3,)},
            "N": {(0,): (2,), (n,): (1,)},
            "S": {(0,): (3,)},
        }
    }
    chern = ChernData({"0": [(1, 1, 0)], "N": [(1,)], "S": [(1,)]})
    expected = {
        "deloc_dims_by_radius": {
            "0": [n, 0],
            "1": [5 * n, 0],
            "2": [9 * n, 0],
        },
        "even_formula": f"{n}*(4*m + 1)",
        "odd_formula": "0",
        "per_sector_even_formula": "4*m + 1",
    }
    notes = (
        f"Speed-{n} rotation: every point of the open orbit has isotropy "
        f"Z/{n}; the dual data grades everything over Z/{n} sectors.",
    ) + _SPHERE_NOTES[1:]
    return ResolvedAction(
        tree,
        {"0": root, "N": pole, "S": pole},
        faces,
        windows,
        bundles=bundles,
        chern=chern,
        notes=notes,
        expected=expected,
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
# projective plane
# ---------------------------------------------------------------------------

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
    c2 = FgAbGroup(0, (2,))
    trivial = SubgroupDatum(AbHom(Z, TRIV, []))
    half = SubgroupDatum(AbHom(Z, c2, [[1]]))
    whole = SubgroupDatum(AbHom(Z, Z, [[1]]))
    tree = IsotropyTree(
        {"0": trivial, "s": half, "p1": whole, "p2": whole, "p3": whole},
        [("0", "s"), ("0", "p1"), ("0", "p2"), ("0", "p3"), ("s", "p1"), ("s", "p3")],
        corner_chains=[("0", "s", "p1"), ("0", "s", "p3")],
    )

    z2 = FgAbGroup.free(2)
    sphere_model = CochainComplex((1, 0, 1))
    cup = ChainMap.from_blocks(sphere_model, sphere_model, {0: [[1]]}, degree=2)
    unipotent = AbHom(z2, z2, [[1, 0], [1, 1]])
    root_k = KData(z2, TRIV, [unipotent], [AbHom.identity(TRIV)], AbHom(z2, Z, [[1, 0]]))
    root = NodeSpaceData(sphere_model, [cup], root_k)

    seam_complex = CochainComplex((1,))
    seam = NodeSpaceData(
        seam_complex,
        [ChainMap.zero(seam_complex, seam_complex, degree=2)],
        _rank_kdata(Z, TRIV, 1),
    )
    pole = _point_node(0)

    circle = CochainComplex((1, 1))
    disk = CochainComplex((1,))
    pt = CochainComplex.point()
    kid = _identity_kpair(Z, TRIV)
    rank_rk = KPair(AbHom(z2, Z, [[1, 0]]), AbHom.identity(TRIV))

    # face over the seam: a circle, with K1 = Z
    circle_face = NodeSpaceData(
        circle,
        [ChainMap.zero(circle, circle, degree=2)],
        KData.trivial_shifts(Z, Z, AbHom.identity(Z), 1),
    )
    face_0s = FaceMaps(
        circle_face,
        ChainMap(sphere_model, circle, [[1, 0], [0, 0]]),
        ChainMap(seam_complex, circle, [[1], [0]]),
        KPair(AbHom(z2, Z, [[1, 0]]), AbHom(TRIV, Z, [[]])),
        KPair(AbHom.identity(Z), AbHom(TRIV, Z, [[]])),
    )

    # face over the free-orbit pole p2: a copy of the root sphere model
    sphere_face = NodeSpaceData(sphere_model, [cup], root_k)
    face_0p2 = FaceMaps(
        sphere_face,
        ChainMap.identity(sphere_model),
        ChainMap(pt, sphere_model, [[1], [0]]),
        KPair(AbHom.identity(z2), AbHom.identity(TRIV)),
        KPair(AbHom(Z, z2, [[1], [0]]), AbHom.identity(TRIV)),
    )

    # faces over the seam-adjacent poles p1, p3: disks
    disk_face = NodeSpaceData(
        disk,
        [ChainMap.zero(disk, disk, degree=2)],
        _rank_kdata(Z, TRIV, 1),
    )

    def disk_face_maps() -> FaceMaps:
        return FaceMaps(
            disk_face,
            ChainMap(sphere_model, disk, [[1, 0]]),
            ChainMap.identity(pt),
            rank_rk,
            kid,
        )

    # faces between the seam and its poles: points
    pt_face = NodeSpaceData(pt, [ChainMap.zero(pt, pt, degree=2)], _rank_kdata(Z, TRIV, 1))

    def seam_pole_face() -> FaceMaps:
        return FaceMaps(
            pt_face,
            ChainMap(seam_complex, pt, [[1]]),
            ChainMap.identity(pt),
            kid,
            kid,
        )

    faces = {
        ("0", "s"): face_0s,
        ("0", "p1"): disk_face_maps(),
        ("0", "p2"): face_0p2,
        ("0", "p3"): disk_face_maps(),
        ("s", "p1"): seam_pole_face(),
        ("s", "p3"): seam_pole_face(),
    }

    def corner() -> CornerData:
        return CornerData(
            circle,
            [ChainMap.zero(circle, circle, degree=2)],
            into_ab=ChainMap.identity(circle),
            into_ag=ChainMap(disk, circle, [[1], [0]]),
            pull_bg=ChainMap(pt, circle, [[1], [0]]),
            k0=Z,
            sigma0=[AbHom.identity(Z)],
            into_ab_k=AbHom.identity(Z),
            into_ag_k=AbHom.identity(Z),
            pull_bg_k=AbHom.identity(Z),
        )

    corners = {("0", "s", "p1"): corner(), ("0", "s", "p3"): corner()}

    windows = {
        "0": WindowRule.full(),
        "s": WindowRule.full(),
        "p1": WindowRule.ball(1),
        "p2": WindowRule.ball(1),
        "p3": WindowRule.ball(1),
    }
    bundles = {
        "tautological": {
            "0": {(0,): (2, 1)},
            "s": {(0,): (1,), (1,): (1,)},
            "p1": {(0,): (1,), (1,): (1,)},
            "p2": {(0,): (1,), (1,): (1,)},
            "p3": {(0,): (1,), (1,): (1,)},
        }
    }
    chern = ChernData(
        {
            "0": [(1, 0), (0, 1)],
            "s": [(1,)],
            "p1": [(1,)],
            "p2": [(1,)],
            "p3": [(1,)],
        }
    )
    expected = {
        "deloc_dims_by_radius": {"0": [1, 0], "1": [6, 0], "2": [12, 0]},
        "even_formula": "1 if m == 0 else 6*m",
        "odd_formula": "0",
    }
    return ResolvedAction(
        tree,
        {"0": root, "s": seam, "p1": pole, "p2": pole, "p3": pole},
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
    if n == 1:
        generic = SubgroupDatum(AbHom(Z, TRIV, []))
    else:
        generic = SubgroupDatum(AbHom(Z, FgAbGroup(0, (n,)), [[1]]))
    whole = SubgroupDatum(AbHom(Z, Z, [[1]]))

    labels = [f"p{i}" for i in range(p)]
    nodes = {"0": generic}
    nodes.update({lab: whole for lab in labels})
    tree = IsotropyTree(nodes, [("0", lab) for lab in labels])

    # path graph on p vertices: C^0 = Q^p, C^1 = Q^(p-1), d = incidence
    d0 = [[0] * p for _ in range(p - 1)]
    for e in range(p - 1):
        d0[e][e] = -1
        d0[e][e + 1] = 1
    base = CochainComplex((p, p - 1), [d0])
    root = NodeSpaceData(
        base,
        [ChainMap.zero(base, base, degree=2)],
        _rank_kdata(Z, TRIV, 1),
    )
    pole = _point_node(0)
    pt = CochainComplex.point()
    face_node = NodeSpaceData(pt, [ChainMap.zero(pt, pt, degree=2)], _rank_kdata(Z, TRIV, 1))
    kid = _identity_kpair(Z, TRIV)

    faces = {}
    for i, lab in enumerate(labels):
        row = [0] * (2 * p - 1)
        row[i] = 1
        faces[("0", lab)] = FaceMaps(
            face_node,
            ChainMap(base, pt, [row]),
            ChainMap.identity(pt),
            kid,
            kid,
        )
    pole_rule = (
        WindowRule.ball(1) if n == 1 else WindowRule.residue_ball(n, 1)
    )
    windows = {"0": WindowRule.full()}
    windows.update({lab: pole_rule for lab in labels})
    return ResolvedAction(tree, {"0": root, **{lab: pole for lab in labels}},
                          faces, windows,
                          notes=(f"synthetic multipole base, n={n}, p={p}",))


def _twisted(rng: random.Random) -> ResolvedAction:
    """Sphere-model base with a twisted shift and optional seam branch."""
    k = rng.randint(0, 2)
    q = rng.choice([1, 3])
    with_seam = rng.random() < 0.5
    c2 = FgAbGroup(0, (2,))
    trivial = SubgroupDatum(AbHom(Z, TRIV, []))
    half = SubgroupDatum(AbHom(Z, c2, [[1]]))
    whole = SubgroupDatum(AbHom(Z, Z, [[1]]))

    z2 = FgAbGroup.free(2)
    sphere_model = CochainComplex((1, 0, 1))
    cup = ChainMap.from_blocks(sphere_model, sphere_model, {0: [[k]]}, degree=2)
    twist = AbHom(z2, z2, [[1, 0], [k, 1]])
    root_k = KData(z2, TRIV, [twist], [AbHom.identity(TRIV)], AbHom(z2, Z, [[1, 0]]))
    root = NodeSpaceData(sphere_model, [cup], root_k)

    pole = _point_node(0)
    pt = CochainComplex.point()
    labels = [f"q{i}" for i in range(q)]
    nodes = {"0": trivial}
    nodes.update({lab: whole for lab in labels})
    relations = [("0", lab) for lab in labels]
    spaces = {"0": root, **{lab: pole for lab in labels}}

    sphere_face = NodeSpaceData(sphere_model, [cup], root_k)
    faces = {
        ("0", lab): FaceMaps(
            sphere_face,
            ChainMap.identity(sphere_model),
            ChainMap(pt, sphere_model, [[1], [0]]),
            KPair(AbHom.identity(z2), AbHom.identity(TRIV)),
            KPair(AbHom(Z, z2, [[1], [0]]), AbHom.identity(TRIV)),
        )
        for lab in labels
    }
    windows = {"0": WindowRule.full()}
    windows.update({lab: WindowRule.ball(1) for lab in labels})
    corner_chains: List[Tuple[str, ...]] = []
    corners: Dict[Tuple[str, ...], CornerData] = {}

    if with_seam:
        seam_complex = CochainComplex((1,))
        seam = NodeSpaceData(
            seam_complex,
            [ChainMap.zero(seam_complex, seam_complex, degree=2)],
            _rank_kdata(Z, TRIV, 1),
        )
        circle = CochainComplex((1, 1))
        circle_face = NodeSpaceData(
            circle,
            [ChainMap.zero(circle, circle, degree=2)],
            KData.trivial_shifts(Z, Z, AbHom.identity(Z), 1),
        )
        nodes["s"] = half
        spaces["s"] = seam
        relations.append(("0", "s"))
        # the seam face forgets the twist, so it only attaches when k = 0
        # restricted to the circle -- the restriction kills omega always.
        faces[("0", "s")] = FaceMaps(
            circle_face,
            ChainMap(sphere_model, circle, [[1, 0], [0, 0]]),
            ChainMap(seam_complex, circle, [[1], [0]]),
            KPair(AbHom(z2, Z, [[1, 0]]), AbHom(TRIV, Z, [[]])),
            KPair(AbHom.identity(Z), AbHom(TRIV, Z, [[]])),
        )
        windows["s"] = WindowRule.full()
        if labels and rng.random() < 0.5:
            # attach the first pole above the seam as well, with a corner
            lab = labels[0]
            relations.append(("s", lab))
            pt_face = NodeSpaceData(
                pt, [ChainMap.zero(pt, pt, degree=2)], _rank_kdata(Z, TRIV, 1)
            )
            faces[("s", lab)] = FaceMaps(
                pt_face,
                ChainMap(seam_complex, pt, [[1]]),
                ChainMap.identity(pt),
                _identity_kpair(Z, TRIV),
                _identity_kpair(Z, TRIV),
            )
            # the pole face over the root must restrict to the corner circle
            # compatibly; replace it with a disk model so the corner closes.
            disk = CochainComplex((1,))
            disk_face = NodeSpaceData(
                disk,
                [ChainMap.zero(disk, disk, degree=2)],
                _rank_kdata(Z, TRIV, 1),
            )
            faces[("0", lab)] = FaceMaps(
                disk_face,
                ChainMap(sphere_model, disk, [[1, 0]]),
                ChainMap.identity(pt),
                KPair(AbHom(z2, Z, [[1, 0]]), AbHom.identity(TRIV)),
                _identity_kpair(Z, TRIV),
            )
            corner_chains.append(("0", "s", lab))
            corners[("0", "s", lab)] = CornerData(
                circle,
                [ChainMap.zero(circle, circle, degree=2)],
                into_ab=ChainMap.identity(circle),
                into_ag=ChainMap(disk, circle, [[1], [0]]),
                pull_bg=ChainMap(pt, circle, [[1], [0]]),
            )

    tree = IsotropyTree(nodes, relations, corner_chains=corner_chains)
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

