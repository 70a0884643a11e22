"""Reduced bundles: character-indexed K-classes with the twisting law.

A reduced bundle over a node assigns a virtual K0-class to finitely many
ambient characters.  Entries at characters with the same restriction to the
node's subgroup are identified by the twisting law: an entry x sitting at
rep + h (h in the kernel lattice) is the same datum as the entry sigma(h)(x)
at rep.  Canonical form pushes all entries onto section representatives,
making equality of bundles plain table equality.

The augmented pullback transports a deep node's bundle onto a face over a
shallower node: entries are pulled back along the fibration and re-twisted
by the kernel element connecting the two section lifts, then summed over
each fiber of the edge restriction.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .action import ResolvedAction
from .basespace import FaceMaps, KData, sigma_for_character
from .chargroup import Character, SectionSystem, SubgroupDatum, edge_image, lift_offset
from .fgab import AbHom
from .report import ValidationReport


class ReducedBundleNode:
    """Canonical finitely supported table of K0-classes at one node."""

    __slots__ = ("label", "datum", "kdata", "table")

    def __init__(
        self,
        label: str,
        datum: SubgroupDatum,
        kdata: KData,
        table: Mapping[Character, Sequence[int]],
    ):
        clean: Dict[Character, Tuple[int, ...]] = {}
        for ghat, cls in table.items():
            cls = kdata.k0.reduce(cls)
            if any(cls):
                clean[ghat] = cls
        self.label = label
        self.datum = datum
        self.kdata = kdata
        self.table = clean

    def support(self) -> List[Character]:
        return sorted(self.table, key=lambda c: c.coords)

    def get(self, ghat: Character) -> Tuple[int, ...]:
        return self.table.get(ghat, self.kdata.k0.zero())

    def is_zero(self) -> bool:
        return not self.table

    def map_classes(self, hom: AbHom, kdata: KData, label: Optional[str] = None) -> "ReducedBundleNode":
        """Apply a K0 homomorphism entrywise (e.g. restriction to a face)."""
        if hom.domain != self.kdata.k0 or hom.codomain != kdata.k0:
            raise ValueError("class map does not match the K-groups")
        return ReducedBundleNode(
            label if label is not None else self.label,
            self.datum,
            kdata,
            {g: hom.apply(c) for g, c in self.table.items()},
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ReducedBundleNode)
            and self.datum.restriction == other.datum.restriction
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.label, tuple(sorted(
            (g.coords, c) for g, c in self.table.items()))))

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{g.coords}->{c}" for g, c in sorted(self.table.items(), key=lambda kv: kv[0].coords)
        )
        return f"ReducedBundleNode({self.label}: {entries or '0'})"


def _as_character(ambient, key) -> Character:
    if isinstance(key, Character):
        if key.group != ambient:
            raise ValueError(f"character {key!r} is not in the ambient dual")
        return key
    if isinstance(key, int):
        key = (key,)
    return Character(ambient, key)


def canonicalize(
    raw_table: Mapping,
    datum: SubgroupDatum,
    kdata: KData,
    section: Optional[SectionSystem] = None,
    label: str = "",
) -> ReducedBundleNode:
    """Move a raw bundle table onto section representatives.

    An entry x at rep + h contributes sigma(h)(x) at rep.  Idempotent; with
    no section supplied the canonical coset representatives are used.
    """
    acc: Dict[Character, Tuple[int, ...]] = {}
    for ghat, cls in raw_table.items():
        ghat = _as_character(datum.ambient, ghat)
        rep, coords = lift_offset(datum, section, datum.restrict(ghat), ghat)
        moved = kdata.sigma0_for(coords).apply(kdata.k0.reduce(cls))
        acc[rep] = kdata.k0.add(acc[rep], moved) if rep in acc else moved
    return ReducedBundleNode(label, datum, kdata, acc)


def direct_sum(w1: ReducedBundleNode, w2: ReducedBundleNode) -> ReducedBundleNode:
    if w1.datum is not w2.datum and w1.datum.restriction != w2.datum.restriction:
        raise ValueError("direct sum needs bundles over the same node")
    table = dict(w1.table)
    for g, c in w2.table.items():
        table[g] = w1.kdata.k0.add(table[g], c) if g in table else c
    return ReducedBundleNode(w1.label, w1.datum, w1.kdata, table)


def tensor_with_representation(
    rep_table: Mapping,
    w: ReducedBundleNode,
    section: Optional[SectionSystem] = None,
) -> ReducedBundleNode:
    """Convolve a finitely supported character table into the bundle."""
    ambient = w.datum.ambient
    raw: Dict[Character, List[int]] = {}
    for ghat, mult in rep_table.items():
        ghat = _as_character(ambient, ghat)
        mult = int(mult)
        for g, cls in w.table.items():
            key = ghat + g
            scaled = w.kdata.k0.reduce([mult * x for x in cls])
            if key in raw:
                raw[key] = list(w.kdata.k0.add(raw[key], scaled))
            else:
                raw[key] = list(scaled)
    return canonicalize(raw, w.datum, w.kdata, section=section, label=w.label)


def shift_act(
    hhat, w: ReducedBundleNode, section: Optional[SectionSystem] = None
) -> ReducedBundleNode:
    """Act by a kernel-lattice character: translate support, recanonicalize.

    On canonical forms this applies sigma(h) to every class and keeps the
    support fixed.
    """
    hhat = _as_character(w.datum.ambient, hhat)
    if not w.datum.in_kernel(hhat):
        raise ValueError(f"{hhat!r} is not in the node's kernel lattice")
    return tensor_with_representation({hhat: 1}, w, section=section)


def augmented_pullback_classes(
    edge: AbHom,
    shallow_datum: SubgroupDatum,
    pull_hom: AbHom,
    sigma_family: Sequence[AbHom],
    w: ReducedBundleNode,
    shallow_section: Optional[SectionSystem] = None,
) -> Dict[Character, Tuple[int, ...]]:
    """Core augmented-pullback sum, returning a table over section lifts.

    `edge` restricts the deep subgroup dual onto the shallow one;
    `pull_hom` maps the deep K0 into the target K0; `sigma_family` gives
    the target's shift automorphisms, one per shallow kernel generator.
    For each supported entry, the twist is by the kernel element connecting
    the deep lift to the shallow lift of its edge image.
    """
    target_k0 = pull_hom.codomain
    out: Dict[Character, Tuple[int, ...]] = {}
    for ghat, cls in w.table.items():
        k = edge_image(edge, w.datum.restrict(ghat))
        rep, coords = lift_offset(shallow_datum, shallow_section, k, ghat)
        moved = sigma_for_character(sigma_family, coords, target_k0).apply(pull_hom.apply(cls))
        out[rep] = target_k0.add(out[rep], moved) if rep in out else moved
    return out


def augmented_pullback(
    face_maps: FaceMaps,
    shallow_datum: SubgroupDatum,
    edge: AbHom,
    w: ReducedBundleNode,
    shallow_section: Optional[SectionSystem] = None,
    label: str = "",
) -> ReducedBundleNode:
    """Pull a deep node's bundle back to the face over the shallow node."""
    table = augmented_pullback_classes(
        edge,
        shallow_datum,
        face_maps.pullback_k.even,
        face_maps.face.kdata.sigma0,
        w,
        shallow_section,
    )
    return ReducedBundleNode(label or w.label, shallow_datum, face_maps.face.kdata, table)


def face_restriction(
    face_maps: FaceMaps, w: ReducedBundleNode, label: str = ""
) -> ReducedBundleNode:
    """Restrict a shallow node's bundle to the face (classwise rho)."""
    return w.map_classes(face_maps.rho_k.even, face_maps.face.kdata, label or w.label)


def canonical_bundle(
    action: ResolvedAction,
    name: str,
    sections: Optional[Mapping[str, SectionSystem]] = None,
) -> Dict[str, ReducedBundleNode]:
    """Canonicalize a named raw bundle at every node of the action."""
    if name not in action.bundles:
        raise ValueError(f"no bundle named {name!r}")
    per_node = action.bundles[name]
    out = {}
    for label in action.tree.nodes:
        datum = action.tree.nodes[label]
        kdata = action.spaces[label].kdata
        raw = per_node.get(label, {})
        section = sections.get(label) if sections else None
        out[label] = canonicalize(raw, datum, kdata, section=section, label=label)
    return out


def check_iterated(
    action: ResolvedAction,
    name: str,
    sections: Optional[Mapping[str, SectionSystem]] = None,
) -> ValidationReport:
    """Edge and corner compatibility of a bundle across the whole tree.

    For every comparable pair, the face restriction of the shallow data
    must equal the augmented pullback of the deep data.  On declared corner
    chains carrying K-level data, pulling back along the composite edge
    must factor through the corner.
    """
    rep = ValidationReport()
    bundles = canonical_bundle(action, name, sections)
    tree = action.tree
    for a, b in tree.comparable_pairs():
        fm = action.faces[(a, b)]
        edge = tree.edge_restriction(a, b)
        sec = sections.get(a) if sections else None
        lhs = face_restriction(fm, bundles[a])
        rhs = augmented_pullback(fm, tree.nodes[a], edge, bundles[b], shallow_section=sec)
        same = lhs.table == rhs.table
        rep.add(
            f"edge {a}<{b} bundle compatibility",
            same,
            "" if same else f"restriction {lhs!r} != pullback {rhs!r}",
        )
    for chain in sorted(action.corners):
        corner = action.corners[chain]
        if not corner.has_k_level:
            continue
        a, b, g = chain[0], chain[1], chain[2]
        sec_a = sections.get(a) if sections else None
        sec_b = sections.get(b) if sections else None
        # path A: pull the deep bundle to the face (a,g), then restrict
        # into the corner
        via_ag = augmented_pullback(
            action.faces[(a, g)], tree.nodes[a], tree.edge_restriction(a, g),
            bundles[g], shallow_section=sec_a,
        )
        path_a = {
            ch: corner.into_ag_k.apply(cls) for ch, cls in via_ag.table.items()
        }
        # path B: pull to the face (b,g) first, then through the corner
        # along the (a,b) edge with the corner's own twists
        via_bg = augmented_pullback(
            action.faces[(b, g)], tree.nodes[b], tree.edge_restriction(b, g),
            bundles[g], shallow_section=sec_b,
        )
        path_b = augmented_pullback_classes(
            tree.edge_restriction(a, b),
            tree.nodes[a],
            corner.pull_bg_k,
            corner.sigma0,
            via_bg,
            shallow_section=sec_a,
        )
        path_a = {ch: cls for ch, cls in path_a.items() if any(cls)}
        path_b = {ch: cls for ch, cls in path_b.items() if any(cls)}
        same = path_a == path_b
        rep.add(
            f"corner {'<'.join(chain)} pullback factorization",
            same,
            "" if same else f"direct {path_a} != factored {path_b}",
        )
    return rep
