"""The aggregate object tying a whole resolved action together.

A `ResolvedAction` bundles the ambient dual group, the isotropy tree, the
per-node space models, per-face maps, optional corner data, window rules,
and optional reduced-bundle / Chern-representative tables.  It owns the
cross-module consistency checks (everything `validate` on the parts cannot
see alone, like window saturation along edges) and materializes finite
character windows for the computational pipelines.

Windows truncate the finitely supported character direction.  Four rules:

- ``explicit``: a fixed list of distinct characters; refuses resizing.
- ``full``: every character of a finite dual.
- ``ball``: free coordinates bounded by a radius, torsion coordinates full.
- ``residue_ball``: rank-one duals whose characters track a residue mod n;
  the window is {j + n*t : 0 <= j < n, |t| <= radius}, so each residue
  class keeps a symmetric range.  Plain balls are wrong for such nodes:
  the sector over a residue needs the same count for every residue.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .basespace import (
    CornerData,
    FaceMaps,
    NodeSpaceData,
    unintertwined,
    validate_corner,
    validate_face,
    validate_node,
)
from .chargroup import Character, SectionSystem, edge_image, section
from .fgab import FgAbGroup, _integer, _ints
from .itspace import IsotropyTree
from .ratmat import RationalMatrix
from .report import ValidationReport


class WindowError(ValueError):
    """Raised when a window rule cannot be materialized as requested."""


class WindowRule:
    """Recipe for the finite character window of one node."""

    __slots__ = ("kind", "chars", "radius", "modulus")

    KINDS = ("explicit", "full", "ball", "residue_ball")

    def __init__(
        self,
        kind: str,
        chars: Sequence[Sequence[int]] = (),
        radius: int = 0,
        modulus: int = 0,
    ):
        if kind not in self.KINDS:
            raise ValueError(f"unknown window kind {kind!r}")
        if kind == "explicit" and not chars:
            raise ValueError("explicit window needs characters")
        chars = tuple(_ints(c) for c in chars)
        radius = _integer(radius, "window radius")
        modulus = _integer(modulus, "window modulus")
        if kind in ("ball", "residue_ball") and radius < 0:
            raise ValueError("window radius must be nonnegative")
        if kind == "residue_ball" and modulus < 1:
            raise ValueError("residue window needs a positive modulus")
        self.kind = kind
        self.chars = chars
        self.radius = radius
        self.modulus = modulus

    @classmethod
    def explicit(cls, chars: Sequence[Sequence[int]]) -> "WindowRule":
        return cls("explicit", chars=chars)

    @classmethod
    def full(cls) -> "WindowRule":
        return cls("full")

    @classmethod
    def ball(cls, radius: int) -> "WindowRule":
        return cls("ball", radius=radius)

    @classmethod
    def residue_ball(cls, modulus: int, radius: int) -> "WindowRule":
        return cls("residue_ball", modulus=modulus, radius=radius)

    def materialize(self, group: FgAbGroup, radius: Optional[int] = None) -> List[Character]:
        """Finite character list; `radius` overrides a stored ball radius.

        Full windows are already canonical and ignore a nonnegative override;
        explicit windows are a fixed commitment and refuse it, and refuse a
        character they list twice after reduction.  No other kind can repeat one.
        """
        if self.kind == "explicit":
            if radius is not None:
                raise WindowError("explicit windows cannot be resized")
            chars = [Character(group, c) for c in self.chars]
            for i, ch in enumerate(chars):
                if ch in chars[:i]:
                    raise WindowError(f"explicit window repeats the character {ch.coords}")
            return chars
        r = self.radius if radius is None else _integer(radius, "window radius")
        if r < 0:
            raise WindowError("window radius must be nonnegative")
        if self.kind == "full":
            if not group.is_finite:
                raise WindowError("full window requested on an infinite dual")
            return [Character(group, c) for c in group.elements()]
        if self.kind == "ball":
            out = [[]]
            for _ in range(group.free_rank):
                out = [c + [v] for c in out for v in range(-r, r + 1)]
            for d in group.torsion:
                out = [c + [v] for c in out for v in range(d)]
            return [Character(group, c) for c in out]
        # residue_ball
        if group.free_rank != 1 or group.torsion:
            raise WindowError("residue window requires an infinite cyclic dual")
        n = self.modulus
        return [
            Character(group, (j + n * t,))
            for j in range(n)
            for t in range(-r, r + 1)
        ]

    def __repr__(self) -> str:
        if self.kind == "explicit":
            return f"WindowRule.explicit({list(self.chars)})"
        if self.kind == "full":
            return "WindowRule.full()"
        if self.kind == "ball":
            return f"WindowRule.ball({self.radius})"
        return f"WindowRule.residue_ball({self.modulus}, {self.radius})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WindowRule) and (
            (self.kind, self.chars, self.radius, self.modulus)
            == (other.kind, other.chars, other.radius, other.modulus)
        )


class ChernData:
    """Even-cochain representatives of the K0 generators per node.

    `reps[node][i]` is a vector in the node complex (total coordinates,
    even slots only) representing the Chern character of the i-th K0
    generator.  Torsion generators must be represented by zero: their
    classes die rationally.
    """

    __slots__ = ("reps",)

    def __init__(self, reps: Mapping[str, Sequence[Sequence]]):
        self.reps = {node: tuple(tuple(v) for v in vecs) for node, vecs in reps.items()}


class ResolvedAction:
    """Validated container for a resolved abelian action."""

    __slots__ = (
        "tree",
        "spaces",
        "faces",
        "corners",
        "window_rules",
        "bundles",
        "chern",
        "notes",
        "expected",
        "shared",
        "_report",
    )

    def __init__(
        self,
        tree: IsotropyTree,
        spaces: Mapping[str, NodeSpaceData],
        faces: Mapping[Tuple[str, str], FaceMaps],
        window_rules: Mapping[str, WindowRule],
        corners: Mapping[Tuple[str, ...], CornerData] = (),
        bundles: Optional[Mapping[str, Mapping[str, Mapping[Tuple[int, ...], Sequence[int]]]]] = None,
        chern: Optional[ChernData] = None,
        notes: Sequence[str] = (),
        expected: Optional[Mapping] = None,
    ):
        self.tree = tree
        self.spaces = dict(spaces)
        self.faces = dict(faces)
        self.corners = dict(corners) if corners else {}
        self.window_rules = dict(window_rules)
        self.bundles = {k: dict(v) for k, v in bundles.items()} if bundles else {}
        self.chern = chern
        self.notes = tuple(notes)
        self.expected = dict(expected) if expected else {}
        # the sector sharing table of every complex assembled from this action
        self.shared: Dict = {}
        self._report: Optional[ValidationReport] = None

    @property
    def group(self) -> FgAbGroup:
        """The ambient dual group shared by all nodes."""
        return next(iter(self.tree.nodes.values())).ambient

    # -- windows -------------------------------------------------------------

    def windows(self, radius: Optional[int] = None) -> Dict[str, List[Character]]:
        """Materialize every node window, sorted for determinism."""
        out = {}
        for label in self.tree.nodes:
            rule = self.window_rules.get(label)
            if rule is None:
                raise WindowError(f"no window rule for node {label!r}")
            target = self.tree.nodes[label].target
            out[label] = sorted(rule.materialize(target, radius), key=lambda c: c.coords)
        return out

    def window_rows(
        self, radius: Optional[int] = None
    ) -> Tuple[Optional[Dict[str, List[Character]]], ValidationReport]:
        """The windows at `radius` (None when they do not materialize) and their rows.

        The rows are `windows materialize` and, when it holds, the saturation
        row: edge restrictions must map deep windows into shallow windows.
        `validate` reports them; the input gate raises the first failing one.
        """
        rep = ValidationReport()
        try:
            windows, detail = self.windows(radius), ""
        except WindowError as exc:
            windows, detail = None, str(exc)
        rep.add("windows materialize", windows is not None, detail)
        if windows is None:
            return None, rep
        bad = []
        for a, b in self.tree.comparable_pairs():
            shallow = set(windows[a])
            edge = self.tree.edge_restriction(a, b)
            for ch in windows[b]:
                if edge_image(edge, ch) not in shallow:
                    bad.append(f"{a}<{b} at {ch.coords}")
                    break
        rep.add(
            "windows saturated under edge restrictions",
            not bad,
            "" if not bad else "unsaturated on " + ", ".join(bad),
        )
        return windows, rep

    def sections(
        self, windows: Mapping[str, Sequence[Character]]
    ) -> Dict[str, SectionSystem]:
        """Canonical section per node over its window."""
        return {
            label: section(self.tree.nodes[label], windows[label])
            for label in self.tree.nodes
        }

    def chern_matrix(self, label: str) -> RationalMatrix:
        """A node's Chern representatives as the columns of one matrix."""
        dim = self.spaces[label].complex.total_dim
        return RationalMatrix.from_columns(self.chern.reps[label], nrows=dim)

    # -- validation ----------------------------------------------------------

    def descriptor_report(self) -> ValidationReport:
        """The descriptor rows, made once per action (which is not edited after).

        In order: the tree, the space and face data matching it, then each
        node, face and corner, which follow only when the first rows hold.
        Computing commands raise the first failing row; `validate` reports all.
        """
        if self._report is None:
            self._report = self._descriptor_rows()
        return self._report

    def _descriptor_rows(self) -> ValidationReport:
        rep = ValidationReport()
        rep.merge(self.tree.validate(), prefix="tree: ")

        for name, want, have in (
            ("space data matches node set", set(self.tree.nodes), set(self.spaces)),
            ("face data matches comparable pairs", set(self.tree.order), set(self.faces)),
        ):
            missing, extra = sorted(want - have), sorted(have - want)
            rep.add(name, not missing and not extra, "; ".join(filter(None, [
                f"missing {missing}" if missing else "",
                f"extraneous {extra}" if extra else "",
            ])))
        if not rep.ok:
            return rep

        for label in sorted(self.tree.nodes):
            rep.merge(
                validate_node(
                    self.spaces[label],
                    kernel_rank=self.tree.nodes[label].kernel_rank,
                ),
                prefix=f"node {label}: ",
            )
        for a, b in self.tree.comparable_pairs():
            rep.merge(
                validate_face(
                    self.faces[(a, b)],
                    self.tree.nodes[a],
                    self.tree.nodes[b],
                    self.spaces[a],
                    self.spaces[b],
                ),
                prefix=f"face {a}<{b}: ",
            )

        rep.add_failing(
            "corner data only on declared chains",
            sorted(set(self.corners) - set(self.tree.corner_chains)),
            "undeclared",
        )
        for chain in sorted(self.corners):
            a, b, g = chain[0], chain[1], chain[2]
            rep.merge(
                validate_corner(
                    self.corners[chain],
                    self.faces[(a, b)],
                    self.faces[(a, g)],
                    self.faces[(b, g)],
                ),
                prefix=f"corner {'<'.join(chain)}: ",
            )
        return rep

    def validate(self, radius: Optional[int] = None) -> ValidationReport:
        """Every row: descriptor, windows at `radius`, bundles, then Chern data.

        The window rows read the tree, so they follow only when its rows
        hold.  The Chern rows (`validate_chern_data`) read the node shifts
        and K-data, so they follow only when every descriptor row holds.
        """
        rep = ValidationReport()
        rep.merge(self.descriptor_report())
        if not self.tree.validate().ok:
            return rep

        windows, rows = self.window_rows(radius)
        rep.merge(rows)
        if windows is None:
            return rep

        for name, per_node in sorted(self.bundles.items()):
            rep.add_failing(
                f"bundle {name!r} node labels known",
                sorted(set(per_node) - set(self.tree.nodes)),
                "unknown nodes",
            )
            bad_entries = []
            for node, table in per_node.items():
                if node not in self.spaces:
                    continue
                k0 = self.spaces[node].kdata.k0
                for coords, cls in table.items():
                    if len(coords) != self.group.ngens or len(cls) != k0.ngens:
                        bad_entries.append(f"{name}/{node}@{coords}")
            rep.add(
                f"bundle {name!r} entry shapes",
                not bad_entries,
                "" if not bad_entries else "bad " + ", ".join(bad_entries),
            )

        if self.chern is not None and self.descriptor_report().ok:
            rep.merge(validate_chern_data(self))
        return rep


def validate_chern_data(action: ResolvedAction) -> ValidationReport:
    """The Chern rows: shapes, then per node closedness, torsion and twisting laws.

    The per-node rows follow only when the shape rows hold, and they read one
    shift per kernel generator: callers run them after the descriptor rows.
    """
    rep = ValidationReport()
    if action.chern is None:
        rep.add("Chern data present", False, "action carries no Chern data")
        return rep
    rep.add_failing(
        "Chern representatives cover all nodes",
        sorted(set(action.tree.nodes) - set(action.chern.reps)),
        "missing",
    )
    bad_shape = []
    for node, vecs in sorted(action.chern.reps.items()):
        space = action.spaces.get(node)
        if space is None:
            bad_shape.append(f"{node} (unknown node)")
        elif len(vecs) != space.kdata.k0.ngens:
            bad_shape.append(f"{node} (one vector per K0 generator)")
        else:
            odd = space.complex.parity_slots(1)
            bad_shape += [
                f"{node}[{i}]" for i, vec in enumerate(vecs)
                if len(vec) != space.complex.total_dim or any(vec[j] != 0 for j in odd)
            ]
    rep.add(
        "Chern representatives shaped and even",
        not bad_shape,
        "" if not bad_shape else "bad " + ", ".join(bad_shape),
    )
    if not rep.ok:
        return rep

    for label in sorted(action.tree.nodes):
        space = action.spaces[label]
        kdata = space.kdata
        c = action.chern_matrix(label)
        rep.add_failing(
            f"node {label}: representatives are closed",
            sorted({j for _, j, _ in (space.complex.d @ c).entries()}),
            "generators",
        )
        rep.add_failing(
            f"node {label}: torsion classes have zero representative",
            [
                j for j in range(kdata.k0.free_rank, kdata.k0.ngens)
                if any(x != 0 for x in action.chern.reps[label][j])
            ],
            "generators",
        )
        # the twisting laws at kernel generator i: sigma_i on K0, exp(L_i) on
        # cochains; with one of each per generator they hold for every kernel
        # element (docs/representation-ring.md)
        n = action.tree.nodes[label].kernel_rank
        units = [[int(j == i) for j in range(n)] for i in range(n)]
        rep.add_failing(
            f"node {label}: shift automorphisms match exponential twists",
            unintertwined(
                c, [kdata.twist(u).matrix for u in units], [space.twist(u) for u in units]
            ),
            "kernel generators",
        )
    return rep
