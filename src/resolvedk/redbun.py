"""Twisted tables: character-indexed values under the twisting law.

A twisted table over a node assigns a value to finitely many ambient
characters.  Entries at characters with the same restriction to the node's
subgroup are identified by the twisting law: an entry x sitting at rep + h
(h in the kernel lattice) is the same datum as the entry twist(h)(x) at
rep.  Canonical form pushes all entries onto section representatives,
making equality of tables plain dictionary equality.

The values come from a coefficient system (`basespace.Coefficients`), and
the same kernel serves both systems the model needs: reduced bundles hold
K0 classes over Z twisted by sigma(h) (the system is the node's `KData`),
and twisted forms hold cochains over Q twisted by exp(L(h)) (the system is
the node's `NodeSpaceData`).  The Chern character intertwines the two.

The augmented pullback transports a deep node's table onto a face over a
shallower node: each entry goes through `edge_image` to the shallow
character it lands on, `lift_offset` gives the kernel element between the
two lifts, `TwistedMaps.pulled` maps it there and the results add up, the
chain by which `deloc._build_sector` writes its face rows.  Faces and
corners expose one `TwistedMaps` per system, so restriction, pullback, the
face comparison and the corner factorization are written once, and
`face_comparisons` is the one face loop for the classes and forms sides.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .action import ResolvedAction
from .basespace import Coefficients, TwistedMaps
from .chargroup import Character, SectionSystem, SubgroupDatum, edge_image, lift_offset
from .fgab import AbHom
from .report import ValidationReport


class TwistedTable:
    """Canonical finitely supported table of values at one node."""

    __slots__ = ("label", "datum", "coefficients", "table")

    def __init__(
        self,
        label: str,
        datum: SubgroupDatum,
        coefficients: Coefficients,
        table: Mapping[Character, Sequence],
    ):
        clean: Dict[Character, tuple] = {}
        for ghat, value in table.items():
            value = coefficients.normalize(value)
            if any(value):
                clean[ghat] = value
        self.label = label
        self.datum = datum
        self.coefficients = coefficients
        self.table = clean

    def support(self) -> List[Character]:
        return sorted(self.table, key=lambda c: c.coords)

    def get(self, ghat: Character) -> tuple:
        return self.table.get(ghat, self.coefficients.zero)

    def is_zero(self) -> bool:
        return not self.table

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TwistedTable)
            and self.datum.restriction == other.datum.restriction
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash(tuple(sorted((g.coords, v) for g, v in self.table.items())))

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{g.coords}->({', '.join(map(str, v))})"
            for g, v in sorted(self.table.items(), key=lambda kv: kv[0].coords)
        )
        return f"TwistedTable({self.label}: {entries or '0'})"


def _as_character(ambient, key) -> Character:
    if isinstance(key, Character):
        if key.group != ambient:
            raise ValueError(f"character {key!r} is not in the ambient dual")
        return key
    if isinstance(key, int):
        key = (key,)
    return Character(ambient, key)


def twisted_sum(
    coefficients: Coefficients,
    twist: Callable,
    entries: Iterable[Tuple[Character, Character, Sequence]],
    datum: SubgroupDatum,
    section: Optional[SectionSystem],
) -> Dict[Character, tuple]:
    """Sum values onto section lifts, each moved by the twist of its offset.

    `entries` yields (character of `datum`'s subgroup, ambient character,
    value).  Each value moves to the lift of its subgroup character by the
    twisting law and is mapped there by `twist(h)`, h the kernel coordinates
    of its offset; values that land on the same lift add up.
    """
    out: Dict[Character, tuple] = {}
    for b, ghat, value in entries:
        rep, coords = lift_offset(datum, section, b, ghat)
        moved = twist(coords).apply(value)
        out[rep] = coefficients.add(out[rep], moved) if rep in out else moved
    return out


def canonicalize(
    raw_table: Mapping,
    datum: SubgroupDatum,
    coefficients: Coefficients,
    section: Optional[SectionSystem] = None,
    label: str = "",
) -> TwistedTable:
    """Move a raw table onto section representatives.

    An entry x at rep + h contributes twist(h)(x) at rep.  Idempotent; with
    no section supplied the canonical coset representatives are used.
    """
    def entries():
        for key, value in raw_table.items():
            ghat = _as_character(datum.ambient, key)
            yield datum.restrict(ghat), ghat, coefficients.normalize(value)

    table = twisted_sum(coefficients, coefficients.twist, entries(), datum, section)
    return TwistedTable(label, datum, coefficients, table)


def face_restriction(maps: TwistedMaps, w: TwistedTable) -> TwistedTable:
    """Restrict a shallow node's table to the face, entrywise."""
    return TwistedTable(
        w.label, w.datum, maps.coefficients,
        {g: maps.restriction.apply(v) for g, v in w.table.items()},
    )


def augmented_pullback(
    maps: TwistedMaps,
    shallow_datum: SubgroupDatum,
    edge: AbHom,
    w: TwistedTable,
    shallow_section: Optional[SectionSystem] = None,
) -> TwistedTable:
    """Pull a deep node's table back to the face over the shallow node.

    `edge` restricts the deep subgroup dual onto the shallow one.  Each
    entry is pulled back along the fibration, twisted by the kernel element
    connecting the deep lift to the shallow lift of its edge image, and the
    entries over each shallow character add up.  Commutes with the
    differentials on cochains.
    """
    entries = ((edge_image(edge, w.datum.restrict(g)), g, v) for g, v in w.table.items())
    table = twisted_sum(maps.coefficients, maps.pulled, entries, shallow_datum, shallow_section)
    return TwistedTable(w.label, shallow_datum, maps.coefficients, table)


def corner_mismatch(
    action: ResolvedAction,
    chain: Sequence[str],
    side: Callable,
    w: TwistedTable,
    sections: Optional[Mapping[str, SectionSystem]] = None,
) -> str:
    """Check that pulling a deep table back along a < b < g factors through the corner.

    `side` picks one coefficient system's `TwistedMaps` from a face or a
    corner, e.g. `attrgetter("forms")`.  Path A pulls `w` to the face (a,g)
    and restricts it into the corner; path B pulls it to the face (b,g)
    first, then through the corner along the (a,b) edge with the corner's
    own twists.  Returns "" when the two agree, else a diagnostic.
    """
    a, b, g = chain
    tree = action.tree
    sec_a = sections.get(a) if sections else None
    sec_b = sections.get(b) if sections else None
    corner = side(action.corners[tuple(chain)])
    via_ag = augmented_pullback(
        side(action.faces[(a, g)]), tree.nodes[a], tree.edge_restriction(a, g), w, sec_a
    )
    path_a = face_restriction(corner, via_ag)
    via_bg = augmented_pullback(
        side(action.faces[(b, g)]), tree.nodes[b], tree.edge_restriction(b, g), w, sec_b
    )
    path_b = augmented_pullback(corner, tree.nodes[a], tree.edge_restriction(a, b), via_bg, sec_a)
    return "" if path_a.table == path_b.table else f"direct {path_a!r} != factored {path_b!r}"


def canonical_bundle(
    action: ResolvedAction,
    name: str,
    sections: Optional[Mapping[str, SectionSystem]] = None,
) -> Dict[str, TwistedTable]:
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


def face_comparisons(
    action: ResolvedAction,
    side: Callable,
    tables: Mapping[str, TwistedTable],
    sections: Optional[Mapping[str, SectionSystem]] = None,
) -> Iterator[Tuple[str, str, TwistedTable, TwistedTable]]:
    """Both sides of the compatibility condition on every face with a shallow table.

    For each comparable pair a < b in order whose shallow node has a table,
    yields (a, b, restriction, pullback): the face restriction of
    `tables[a]` and the augmented pullback of `tables[b]`, on the coefficient
    system `side` picks from the face (e.g. `attrgetter("forms")`).  A deep
    node without a table is pruned: its pullback is the zero table, so the
    shallow data must vanish on the face.  The condition holds where the
    two tables agree.
    """
    tree = action.tree
    for a, b in tree.comparable_pairs():
        if a not in tables:
            continue
        maps = side(action.faces[(a, b)])
        restriction = face_restriction(maps, tables[a])
        if b in tables:
            sec = sections.get(a) if sections else None
            pullback = augmented_pullback(
                maps, tree.nodes[a], tree.edge_restriction(a, b), tables[b], sec
            )
        else:
            pullback = TwistedTable(b, tree.nodes[a], maps.coefficients, {})
        yield a, b, restriction, pullback


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
    for a, b, lhs, rhs in face_comparisons(action, attrgetter("classes"), bundles, sections):
        same = lhs.table == rhs.table
        rep.add(
            f"edge {a}<{b} bundle compatibility",
            same,
            "" if same else f"restriction {lhs!r} != pullback {rhs!r}",
        )
    for chain in sorted(action.corners):
        if not action.corners[chain].has_k_level:
            continue
        mismatch = corner_mismatch(
            action, chain, attrgetter("classes"), bundles[chain[2]], sections
        )
        rep.add(f"corner {'<'.join(chain)} pullback factorization", not mismatch, mismatch)
    return rep
