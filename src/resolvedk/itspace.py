"""Isotropy trees: the combinatorics of a resolved group action.

Nodes are isotropy types carrying subgroup data; the strict partial order
alpha < beta means "beta has larger isotropy and sits deeper in the
resolution".  Each comparable pair names a boundary face, and chains with a
declared common corner must be totally ordered.  Pruning removes nodes from
the top: the kept subtree is always downward-closed.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .chargroup import Character, SubgroupDatum, edge_image, edge_restriction
from .fgab import AbHom
from .report import ValidationReport


class IsotropyTree:
    """A finite poset of isotropy types with dual subgroup data.

    The constructor rejects only malformed input (unknown labels, cycles);
    the mathematical invariants are checked by `validate`, which reports
    every violation rather than raising, so corrupted inputs can be
    diagnosed in one pass.
    """

    __slots__ = (
        "nodes",
        "order",
        "face_ids",
        "corner_chains",
        "root",
        "_depths",
        "_edge_cache",
    )

    def __init__(
        self,
        nodes: Mapping[str, SubgroupDatum],
        relations: Iterable[Tuple[str, str]],
        face_ids: Optional[Mapping[Tuple[str, str], str]] = None,
        corner_chains: Iterable[Sequence[str]] = (),
    ):
        self.nodes: Dict[str, SubgroupDatum] = dict(nodes)
        if not self.nodes:
            raise ValueError("tree needs at least one node")
        pairs = set()
        for a, b in relations:
            if a not in self.nodes or b not in self.nodes:
                raise ValueError(f"order relation ({a!r}, {b!r}) uses unknown node")
            if a == b:
                raise ValueError(f"order relation ({a!r}, {b!r}) is reflexive")
            pairs.add((a, b))
        closure = set(pairs)
        changed = True
        while changed:
            changed = False
            for a, b in list(closure):
                for c, d in list(closure):
                    if b == c and (a, d) not in closure:
                        closure.add((a, d))
                        changed = True
        for a, b in closure:
            if a == b:
                raise ValueError(f"order relation contains a cycle through {a!r}")
        self.order: FrozenSet[Tuple[str, str]] = frozenset(closure)

        minima = [n for n in self.nodes if not any(b == n for _, b in closure)]
        root = None
        if len(minima) == 1:
            cand = minima[0]
            if all(n == cand or (cand, n) in closure for n in self.nodes):
                root = cand
        self.root = root

        if face_ids is None:
            face_ids = {
                (a, b): f"F({a}<{b})" for a, b in closure
            }
        self.face_ids: Dict[Tuple[str, str], str] = {
            (a, b): str(name) for (a, b), name in face_ids.items()
        }
        self.corner_chains: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(chain) for chain in corner_chains
        )

        self._depths: Optional[Dict[str, int]] = None
        self._edge_cache: Dict[Tuple[str, str], AbHom] = {}

    # -- order queries -------------------------------------------------------

    def less(self, a: str, b: str) -> bool:
        return (a, b) in self.order

    def comparable_pairs(self) -> List[Tuple[str, str]]:
        return sorted(self.order)

    def depth(self, label: str) -> int:
        """Length of the longest chain strictly below the node."""
        if self._depths is None:
            depths: Dict[str, int] = {}
            remaining = set(self.nodes)
            while remaining:
                progressed = False
                for n in sorted(remaining):
                    below = [a for a, b in self.order if b == n]
                    if all(a in depths for a in below):
                        depths[n] = max((depths[a] + 1 for a in below), default=0)
                        remaining.discard(n)
                        progressed = True
                if not progressed:  # pragma: no cover - cycles rejected earlier
                    raise RuntimeError("depth computation stalled")
            self._depths = depths
        return self._depths[label]

    def labels_by_depth(self) -> List[str]:
        return sorted(self.nodes, key=lambda n: (self.depth(n), n))

    def edge_restriction(self, a: str, b: str) -> AbHom:
        """Dual restriction B-hat_b -> B-hat_a for a < b (cached)."""
        if (a, b) not in self.order:
            raise ValueError(f"nodes {a!r} and {b!r} are not comparable")
        if (a, b) not in self._edge_cache:
            self._edge_cache[(a, b)] = edge_restriction(self.nodes[a], self.nodes[b])
        return self._edge_cache[(a, b)]

    def root_image(self, label: str, khat: Character) -> Character:
        """The root character a node's character restricts to (its sector)."""
        if label == self.root:
            return khat
        return edge_image(self.edge_restriction(self.root, label), khat)

    # -- validation ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        rep = ValidationReport()

        rep.add(
            "unique root",
            self.root is not None,
            "" if self.root is not None else "no unique minimal node below all others",
        )

        ambients = {datum.ambient for datum in self.nodes.values()}
        rep.add(
            "common ambient dual",
            len(ambients) == 1,
            "" if len(ambients) == 1 else f"{len(ambients)} distinct ambient duals",
        )

        bad_nesting = [
            (a, b)
            for a, b in sorted(self.order)
            if not self.nodes[b].lattice.is_sublattice_of(self.nodes[a].lattice)
        ]
        rep.add(
            "kernel lattices nest along the order",
            not bad_nesting,
            "" if not bad_nesting else "violated on edges " + ", ".join(
                f"{a}<{b}" for a, b in bad_nesting),
        )

        missing = sorted(set(self.order) - set(self.face_ids))
        extra = sorted(set(self.face_ids) - set(self.order))
        rep.add(
            "faces match comparable pairs",
            not missing and not extra,
            "; ".join(
                filter(None, [
                    "missing " + ", ".join(f"{a}<{b}" for a, b in missing) if missing else "",
                    "extraneous " + ", ".join(f"{a}<{b}" for a, b in extra) if extra else "",
                ])
            ),
        )
        names = list(self.face_ids.values())
        rep.add(
            "face names distinct",
            len(names) == len(set(names)),
            "" if len(names) == len(set(names)) else "duplicate face identifiers",
        )

        bad_chains = []
        for chain in self.corner_chains:
            if len(chain) < 3:
                bad_chains.append((chain, "needs at least three nodes"))
                continue
            if any(n not in self.nodes for n in chain):
                bad_chains.append((chain, "unknown node"))
                continue
            ordered = all(
                self.less(chain[i], chain[j])
                for i in range(len(chain))
                for j in range(i + 1, len(chain))
            )
            if not ordered:
                bad_chains.append((chain, "not totally ordered"))
        rep.add(
            "corner chains totally ordered",
            not bad_chains,
            "" if not bad_chains else "; ".join(
                f"{'<'.join(c)}: {why}" for c, why in bad_chains),
        )

        if not bad_nesting and len(ambients) == 1:
            bad_edges = []
            for a, b in sorted(self.order):
                try:
                    self.edge_restriction(a, b)
                except ValueError as exc:
                    bad_edges.append(f"{a}<{b} ({exc})")
            rep.add(
                "edge restrictions derivable",
                not bad_edges,
                "; ".join(bad_edges),
            )

        return rep

    def __repr__(self) -> str:
        return f"IsotropyTree({sorted(self.nodes)}, root={self.root!r})"


def downward_closed(tree: IsotropyTree, kept: Iterable[str]) -> FrozenSet[str]:
    """A kept node set as a frozenset, after checking it is a downward-closed subtree."""
    kept_set = frozenset(kept)
    unknown = kept_set - set(tree.nodes)
    if unknown:
        raise ValueError(f"pruning keeps unknown nodes {sorted(unknown)}")
    for b in sorted(kept_set):
        for a, b2 in tree.comparable_pairs():
            if b2 == b and a not in kept_set:
                raise ValueError(
                    f"kept set is not downward-closed: {b!r} kept but {a!r} is not"
                )
    return kept_set
