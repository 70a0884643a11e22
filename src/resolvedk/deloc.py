"""The delocalized cochain model over an isotropy tree.

A global element assigns to every kept node and every window character a
cochain of that node's complex, subject to one compatibility condition per
face: the restriction of the shallow data equals the twisted, fiberwise
summed pullback of the deep data.  Pruned nodes contribute nothing and
force the corresponding restrictions to vanish, which is what makes the
relative complexes of a pruning step literally sub- and quotient complexes.

Each face condition is the forms side of `redbun.augmented_pullback`, the
table model this assembly is checked against: a face row block holds the
face restriction on the shallow block and minus exp(L(h)) @ pullback on
each deep block of the fiber.  All linear algebra is exact and rational;
the character twists are exponentials of the nilpotent shift operators, so
every exponential is a finite sum, and each node space builds each one
once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .action import ResolvedAction, WindowError
from .basespace import NodeSpaceData, _exp_nilpotent
from .chargroup import Character, SectionSystem, SubgroupDatum, fiber_support, lift, lift_offset
from .itspace import Pruning, prune_step
from .ktheory import SixTermInstance, hexagon_check
from .ratmat import (
    Exact,
    QuotientSpace,
    RationalMatrix,
    exact,
    nullspace_basis,
    rank,
    rref,
    solve,
)
from .report import ValidationReport

LES_LABELS = (
    "even relative",
    "even total",
    "even quotient",
    "odd relative",
    "odd total",
    "odd quotient",
)


# -- small exact-linear-algebra helpers and character exponentials --------------


def _select(vec: Sequence, idx: Sequence[int]) -> Tuple:
    return tuple(vec[i] for i in idx)


def _scatter(vec: Sequence[Exact], idx: Sequence[int], total: int) -> Tuple[Exact, ...]:
    out = [0] * total
    for x, i in zip(vec, idx):
        out[i] = x
    return tuple(out)


def _placed_rows(mat: RationalMatrix, idx: Sequence[int], total: int) -> RationalMatrix:
    """The matrix with `total` rows whose row idx[i] is row i of `mat`, the rest zero."""
    rows: List[Dict[int, Fraction]] = [{} for _ in range(total)]
    for i, j, x in mat.entries():
        rows[idx[i]][j] = x
    return RationalMatrix.from_row_maps(rows, mat.ncols)


def _column_space_basis(mat: RationalMatrix) -> RationalMatrix:
    """Independent columns of `mat` spanning its column space."""
    _, pivots = rref(mat)
    return mat.submatrix(range(mat.nrows), pivots)


def ch_of_character(hhat, datum: SubgroupDatum, space: NodeSpaceData) -> RationalMatrix:
    """Even chain operator of a kernel character: exponential of its shift."""
    if not isinstance(hhat, Character):
        if isinstance(hhat, int):
            hhat = (hhat,)
        hhat = Character(datum.ambient, hhat)
    return space.twist(datum.kernel_coordinates(hhat))


# -- the assembled global complex ----------------------------------------------


class TwoPeriodicComplex:
    """A two-periodic subcomplex: parity subspace bases and a differential."""

    __slots__ = ("d", "_bases", "_cocycles", "_boundaries", "_class")

    def __init__(self, d: RationalMatrix, basis_even: RationalMatrix, basis_odd: RationalMatrix):
        self.d = d
        self._bases = (basis_even, basis_odd)
        self._cocycles: List[Optional[RationalMatrix]] = [None, None]
        self._boundaries: List[Optional[RationalMatrix]] = [None, None]
        self._class: List[Optional[QuotientSpace]] = [None, None]

    def basis(self, parity: int) -> RationalMatrix:
        return self._bases[parity % 2]

    def cocycles(self, parity: int) -> RationalMatrix:
        p = parity % 2
        if self._cocycles[p] is None:
            b = self.basis(p)
            self._cocycles[p] = b @ nullspace_basis(self.d @ b)
        return self._cocycles[p]

    def boundaries(self, parity: int) -> RationalMatrix:
        p = parity % 2
        if self._boundaries[p] is None:
            self._boundaries[p] = _column_space_basis(self.d @ self.basis(1 - p))
        return self._boundaries[p]

    def h_dim(self, parity: int) -> int:
        return self.cocycles(parity).ncols - self.boundaries(parity).ncols

    def _class_space(self, parity: int) -> QuotientSpace:
        p = parity % 2
        if self._class[p] is None:
            try:
                self._class[p] = QuotientSpace(self.boundaries(p), self.cocycles(p))
            except ValueError as exc:
                raise ArithmeticError("boundary escaped the cocycle space") from exc
        return self._class[p]

    def class_coords(self, vecs: Sequence[Sequence], parity: int) -> List[Tuple[Fraction, ...]]:
        """Cohomology-class coordinates of each cocycle in `vecs`."""
        try:
            return self._class_space(parity).coords(vecs)
        except ValueError as exc:
            raise ArithmeticError("vector is not a cocycle of the subcomplex") from exc

    def class_representatives(self, parity: int) -> RationalMatrix:
        """One cocycle per cohomology class of a distinguished basis."""
        return self._class_space(parity).representatives


class SectorComplex:
    """One root-character sector of the assembled delocalized complex."""

    __slots__ = (
        "chi", "blocks", "spans", "total", "constraint", "row_origins",
        "row_chars", "diff", "even_idx", "odd_idx", "_two",
    )

    def __init__(self, chi, blocks, spans, total, constraint, row_origins,
                 row_chars, diff, even_idx, odd_idx):
        self.chi = chi
        self.blocks = blocks        # (label, window char, start, stop)
        self.spans = spans
        self.total = total
        self.constraint = constraint
        self.row_origins = row_origins  # (description, shallow node, start, stop)
        self.row_chars = row_chars  # the shallow window character of each row block
        self.diff = diff
        self.even_idx = even_idx
        self.odd_idx = odd_idx
        self._two: Optional[TwoPeriodicComplex] = None

    def parity_indices(self, parity: int) -> List[int]:
        return self.even_idx if parity % 2 == 0 else self.odd_idx

    def basis(self, parity: int) -> RationalMatrix:
        """Basis of the compatible subspace in the given parity, as columns."""
        idx = self.parity_indices(parity)
        restricted = self.constraint.submatrix(range(self.constraint.nrows), idx)
        return _placed_rows(nullspace_basis(restricted), idx, self.total)

    @property
    def two_periodic(self) -> TwoPeriodicComplex:
        if self._two is None:
            self._two = TwoPeriodicComplex(self.diff, self.basis(0), self.basis(1))
        return self._two

    def membership_failure(self, vec: Sequence) -> Optional[str]:
        """None if the vector satisfies every constraint, else a diagnostic."""
        res = self.constraint.apply(vec)
        for i, x in enumerate(res):
            if x != 0:
                for desc, _, start, stop in self.row_origins:
                    if start <= i < stop:
                        return desc
                return f"constraint row {i}"
        return None

    def select(self, keep: Callable[[str, Character], bool]) -> "SectorComplex":
        """The sector on the blocks whose (node, window character) passes `keep`.

        Keeps the columns of those blocks and the face row blocks whose
        shallow (node, window character) passes; order is preserved
        throughout.  Over a downward-closed kept set of nodes, a face to a
        pruned deep node then only asks its shallow data to vanish.  Over
        smaller nested windows with the same lifts, the kept row blocks are
        exactly those of the smaller windows, and the deep characters outside
        them lose their columns, which leaves each block's fiber sum over
        the smaller window.
        """
        blocks, spans, cols = [], {}, []
        for label, khat, s0, s1 in self.blocks:
            if keep(label, khat):
                start = len(cols)
                blocks.append((label, khat, start, start + s1 - s0))
                spans[(label, khat)] = (start, start + s1 - s0)
                cols.extend(range(s0, s1))
        row_origins, row_chars, rows = [], [], []
        for (desc, a, r0, r1), khat in zip(self.row_origins, self.row_chars):
            if keep(a, khat):
                row_origins.append((desc, a, len(rows), len(rows) + r1 - r0))
                row_chars.append(khat)
                rows.extend(range(r0, r1))
        position = {old: new for new, old in enumerate(cols)}
        return SectorComplex(
            self.chi, tuple(blocks), spans, len(cols),
            self.constraint.submatrix(rows, cols), tuple(row_origins), tuple(row_chars),
            self.diff.submatrix(cols, cols),
            [position[i] for i in self.even_idx if i in position],
            [position[i] for i in self.odd_idx if i in position],
        )


class AssembledComplex:
    """Delocalized complex of a resolved action, split by root sector."""

    __slots__ = ("action", "kept", "radius", "windows", "sections", "sectors", "_full")

    def __init__(self, action, kept, radius, windows, sections, sectors, full=None):
        self.action = action
        self.kept = kept
        self.radius = radius
        self.windows = windows
        self.sections = sections
        self.sectors = sectors
        self._full = full   # None on the complex over every node, so no cycle

    @property
    def full(self) -> "AssembledComplex":
        """The complex over every node that this one restricts."""
        return self if self._full is None else self._full

    def lift(self, label: str, khat: Character) -> Character:
        section = self.sections.get(label) if self.sections else None
        return lift(self.action.tree.nodes[label], section, khat)

    def restrict(self, kept) -> "AssembledComplex":
        """The subcomplex over a downward-closed kept set of nodes."""
        kept = Pruning(self.action.tree, kept).kept
        if kept == self.kept:
            return self
        full = self.full
        return AssembledComplex(
            self.action, kept, self.radius, self.windows, self.sections,
            {chi: sec.select(lambda label, _: label in kept) for chi, sec in full.sectors.items()},
            full,
        )

    def at_radius(
        self, radius: Optional[int], windows: Mapping[str, Sequence[Character]]
    ) -> "AssembledComplex":
        """This complex over the smaller windows of `radius`, by index selection.

        `windows` are the action's windows at `radius`.  Each must lie inside
        the window this complex was assembled on (checked), as they do for
        every resizable rule: ball windows grow with the radius and full
        windows ignore it.  Lifts are per character, so the selection equals
        a fresh assembly at `radius` with the same sections, kept set and
        block and row order.
        """
        tree = self.action.tree
        inside = {label: frozenset(windows[label]) for label in tree.nodes}
        for label in sorted(tree.nodes):
            if not inside[label] <= set(self.windows[label]):
                raise ValueError(
                    f"window of node {label} at radius {radius} is not inside "
                    f"the assembled window at radius {self.radius}"
                )
        full = self.full
        at = AssembledComplex(
            self.action, full.kept, radius, dict(windows), self.sections,
            {
                chi: full.sectors[chi].select(lambda label, khat: khat in inside[label])
                for chi in windows[tree.root]
            },
        )
        return at.restrict(self.kept)


def _checked_kept(action: ResolvedAction, prune: Sequence[str]) -> frozenset:
    """The kept node set of a prune list, after checking the tree and the list."""
    tree = action.tree
    tree.require_valid()
    prune_set = frozenset(prune)
    unknown = sorted(prune_set - set(tree.nodes))
    if unknown:
        raise ValueError(f"cannot prune unknown nodes {unknown}")
    return Pruning(tree, frozenset(tree.nodes) - prune_set).kept


def _checked_windows(action: ResolvedAction, radius: Optional[int]) -> Dict[str, List[Character]]:
    """The windows at `radius`, after checking that they are saturated."""
    windows = action.windows(radius)
    sat = action.check_window_saturation(windows)
    if not sat.ok:
        raise WindowError(
            "; ".join(f"{name}: {detail}" for name, detail in sat.failures())
        )
    return windows


def _check_face_maps(action: ResolvedAction) -> None:
    """Raise unless every face restriction and pullback is a chain map."""
    for pair in sorted(action.faces):
        fm = action.faces[pair]
        if not fm.rho.commutes_with_differentials():
            raise ValueError(f"face {pair[0]}<{pair[1]}: restriction is not a chain map")
        if not fm.pullback.commutes_with_differentials():
            raise ValueError(f"face {pair[0]}<{pair[1]}: pullback is not a chain map")


def assemble_complex(
    action: ResolvedAction,
    prune: Sequence[str] = (),
    radius: Optional[int] = None,
    sections: Optional[Mapping[str, SectionSystem]] = None,
) -> AssembledComplex:
    """Build the compatible-tuple complex over the kept subtree.

    The complex over every node is assembled and the pruned one is its
    restriction: pruned nodes are omitted and their faces contribute pure
    vanishing constraints on the kept side.  The result splits as a direct
    sum over the root window characters.
    """
    tree = action.tree
    # checked before the windows, so a bad prune set is reported first
    kept = _checked_kept(action, prune)
    windows = _checked_windows(action, radius)
    _check_face_maps(action)

    # every lift a face asks for, once: a table per node over its window
    lifts = {}
    for label in sorted({node for pair in tree.comparable_pairs() for node in pair}):
        datum = tree.nodes[label]
        given = sections.get(label) if sections else None
        lifts[label] = SectionSystem(datum, {b: lift(datum, given, b) for b in windows[label]})
    faces = [
        (a, b, fiber_support(tree.edge_restriction(a, b), windows[b]))
        for a, b in tree.comparable_pairs()
    ]
    # every window character sorted into its root sector in one pass, in
    # node order and then window order
    members: Dict[Character, List[Tuple[str, Character]]] = {
        chi: [] for chi in windows[tree.root]
    }
    for label in sorted(tree.nodes):
        for khat in windows[label]:
            chi = khat if label == tree.root else tree.root_image(label, khat)
            if chi in members:
                members[chi].append((label, khat))
    sectors = {
        chi: _build_sector(action, chi, members[chi], lifts, faces)
        for chi in windows[tree.root]
    }
    full = AssembledComplex(
        action, frozenset(tree.nodes), radius, windows, dict(sections or {}), sectors
    )
    return full.restrict(kept)


def _build_sector(action, chi, members, lifts, faces) -> SectorComplex:
    """One root sector: its blocks, face constraints, differential and parities.

    `members` lists the sector's (label, window character) pairs in block
    order.  Each face row block states that the face restriction of the
    shallow data equals the augmented pullback of the deep data, as
    `redbun.augmented_pullback` computes it on the face's forms side: every
    deep character in the fiber over the shallow one contributes
    exp(L(h)) @ pullback, with h given by the twisting law.  Rows are built
    as `{column: value}` maps, so only nonzero entries are ever stored.
    """
    tree = action.tree
    blocks = []
    spans = {}
    by_node: Dict[str, List[Character]] = {}
    offset = 0
    for label, khat in members:
        dim = action.spaces[label].complex.total_dim
        blocks.append((label, khat, offset, offset + dim))
        spans[(label, khat)] = (offset, offset + dim)
        by_node.setdefault(label, []).append(khat)
        offset += dim
    total = offset

    rows: List[Dict[int, Fraction]] = []
    row_origins = []
    row_chars = []
    for a, b, fibers in faces:
        forms = action.faces[(a, b)].forms
        fdim = len(forms.coefficients.zero)
        for khat in by_node.get(a, ()):
            s0, _ = spans[(a, khat)]
            block: List[Dict[int, Fraction]] = [{} for _ in range(fdim)]
            for i, j, x in forms.restriction.entries():
                block[i][s0 + j] = x
            for bhat in fibers.get(khat, ()):
                t0, _ = spans[(b, bhat)]
                _, coords = lift_offset(tree.nodes[a], lifts[a], khat, lifts[b](bhat))
                for i, j, x in forms.pulled(coords).entries():
                    block[i][t0 + j] = block[i].get(t0 + j, 0) - x
            start = len(rows)
            rows.extend(block)
            row_origins.append(
                (f"face {a}<{b} at sector {khat.coords}", a, start, start + fdim)
            )
            row_chars.append(khat)
    constraint = RationalMatrix.from_row_maps(rows, total)

    diff_rows: List[Dict[int, Fraction]] = [{} for _ in range(total)]
    even_idx: List[int] = []
    odd_idx: List[int] = []
    for label, khat, s0, _ in blocks:
        cx = action.spaces[label].complex
        for i, j, x in cx.d.entries():
            diff_rows[s0 + i][s0 + j] = x
        even_idx.extend(s0 + i for i in cx.parity_slots(0))
        odd_idx.extend(s0 + i for i in cx.parity_slots(1))
    diff = RationalMatrix.from_row_maps(diff_rows, total)

    return SectorComplex(
        chi, tuple(blocks), spans, total, constraint, tuple(row_origins),
        tuple(row_chars), diff, even_idx, odd_idx,
    )


class DelocDims:
    """Even/odd cohomology dimensions, per root sector and total."""

    __slots__ = ("sectors", "even", "odd")

    def __init__(self, sectors: Dict[Character, Tuple[int, int]]):
        self.sectors = sectors
        self.even = sum(e for e, _ in sectors.values())
        self.odd = sum(o for _, o in sectors.values())

    def __repr__(self) -> str:
        return f"DelocDims(even={self.even}, odd={self.odd})"


def deloc_cohomology(assembled: AssembledComplex) -> DelocDims:
    """Exact rational cohomology dimensions of the assembled complex."""
    return DelocDims({
        chi: (sec.two_periodic.h_dim(0), sec.two_periodic.h_dim(1))
        for chi, sec in assembled.sectors.items()
    })


# -- pruning long exact sequences ----------------------------------------------


class PruningLES:
    """Six-term data of one pruning step, with its verification report."""

    __slots__ = ("kept", "alpha", "sector_instances", "instance", "report")

    def __init__(self, kept, alpha, sector_instances, instance, report):
        self.kept = kept
        self.alpha = alpha
        self.sector_instances = sector_instances
        self.instance = instance
        self.report = report

    def __repr__(self) -> str:
        return f"PruningLES(+{self.alpha}, dims={self.instance.dims})"


def les_of_pruning(sub: AssembledComplex, total: AssembledComplex) -> PruningLES:
    """Six-term sequence of adding one node to a kept subtree.

    `sub` and `total` are restrictions of one assembled complex, and `total`
    keeps exactly one node `alpha` more than `sub`.  The third term is the
    image of the projection onto the alpha sectors with its induced
    differential.  All six cohomology maps (including the connecting ones)
    are computed explicitly and exactness is verified, not assumed.
    """
    if sub.full is not total.full:
        raise ValueError("a pruning step needs two restrictions of one assembled complex")
    added = sorted(total.kept - sub.kept)
    if len(added) != 1 or prune_step(total.action.tree, sub.kept, added[0]).kept != total.kept:
        raise ValueError(
            f"no single pruning step leads from {sorted(sub.kept)} to {sorted(total.kept)}"
        )
    (alpha,) = added

    report = ValidationReport()
    sector_instances = {}
    for chi in sorted(total.sectors, key=lambda c: c.coords):
        inst, rep = _sector_les(sub.sectors[chi], total.sectors[chi], alpha)
        sector_instances[chi] = inst
        report.merge(rep, prefix=f"sector {chi.coords}: ")

    insts = list(sector_instances.values())
    dims = tuple(sum(i.dims[k] for i in insts) for k in range(6))
    ranks = tuple(sum(i.ranks[k] for i in insts) for k in range(6))
    instance = SixTermInstance(dims, ranks, labels=LES_LABELS)
    return PruningLES(sub.kept, alpha, sector_instances, instance, report)


def pruning_walk(sub: AssembledComplex, total: AssembledComplex) -> Iterator[PruningLES]:
    """Six-term sequences of the steps that lead from `sub` to `total`.

    Both are restrictions of one assembled complex.  The nodes `total`
    keeps beyond `sub` are added one at a time in depth-then-label order,
    so every step is a pruning step and the last one ends at `total`.
    """
    added = total.kept - sub.kept
    for alpha in (n for n in total.action.tree.labels_by_depth() if n in added):
        step = sub.full.restrict(sub.kept | {alpha})
        yield les_of_pruning(sub, step)
        sub = step


def _sector_les(sa: SectorComplex, sb: SectorComplex, alpha: str):
    # embedding of the sub sector into the total sector, as an index map
    emb: List[int] = []
    for label, khat, s0, s1 in sa.blocks:
        t0, t1 = sb.spans[(label, khat)]
        emb.extend(range(t0, t1))
    # quotient: the alpha components of the total sector
    q_idx: List[int] = []
    for label, khat, s0, s1 in sb.blocks:
        if label == alpha:
            q_idx.extend(range(s0, s1))
    d_alpha = sb.diff.submatrix(q_idx, q_idx)

    two_a, two_b = sa.two_periodic, sb.two_periodic
    q_images = []
    for p in (0, 1):
        vb = two_b.basis(p)
        q_images.append(_column_space_basis(vb.submatrix(q_idx)))
    two_q = TwoPeriodicComplex(d_alpha, q_images[0], q_images[1])

    maps = {}
    for p in (0, 1):
        # induced inclusion on cohomology
        ra = two_a.class_representatives(p)
        cols = two_b.class_coords([_scatter(col, emb, sb.total) for col in ra.columns()], p)
        maps[("incl", p)] = RationalMatrix.from_columns(cols, nrows=two_b.h_dim(p))
        # induced projection on cohomology
        rb = two_b.class_representatives(p)
        cols = two_q.class_coords([_select(col, q_idx) for col in rb.columns()], p)
        maps[("proj", p)] = RationalMatrix.from_columns(cols, nrows=two_q.h_dim(p))
        # connecting map: lift each quotient cocycle, apply the differential,
        # pull the result back into the sub sector
        rq = two_q.class_representatives(p)
        vb = two_b.basis(p)
        lifts = solve(vb.submatrix(q_idx), rq.columns())
        if None in lifts:
            raise ArithmeticError("quotient cocycle has no total-space lift")
        backs = []
        for x in lifts:
            image = sb.diff.apply(vb.apply(x))
            if any(image[i] != 0 for i in q_idx):
                raise ArithmeticError("connecting image does not vanish on the quotient")
            backs.append(_select(image, emb))
        cols = two_a.class_coords(backs, (p + 1) % 2)
        maps[("conn", p)] = RationalMatrix.from_columns(
            cols, nrows=two_a.h_dim((p + 1) % 2)
        )

    dims = (
        two_a.h_dim(0), two_b.h_dim(0), two_q.h_dim(0),
        two_a.h_dim(1), two_b.h_dim(1), two_q.h_dim(1),
    )
    ranks = (
        rank(maps[("incl", 0)]), rank(maps[("proj", 0)]), rank(maps[("conn", 0)]),
        rank(maps[("incl", 1)]), rank(maps[("proj", 1)]), rank(maps[("conn", 1)]),
    )
    instance = SixTermInstance(dims, ranks, labels=LES_LABELS)

    rep = hexagon_check(instance)
    composites = [
        ("total->quotient->total", maps[("proj", 0)] @ maps[("incl", 0)]),
        ("quotient->connecting (even)", maps[("conn", 0)] @ maps[("proj", 0)]),
        ("connecting->inclusion (even)", maps[("incl", 1)] @ maps[("conn", 0)]),
        ("total->quotient->total (odd)", maps[("proj", 1)] @ maps[("incl", 1)]),
        ("quotient->connecting (odd)", maps[("conn", 1)] @ maps[("proj", 1)]),
        ("connecting->inclusion (odd)", maps[("incl", 0)] @ maps[("conn", 1)]),
    ]
    bad = [name for name, m in composites if not m.is_zero()]
    rep.add(
        "consecutive maps compose to zero",
        not bad,
        "" if not bad else "nonzero: " + ", ".join(bad),
    )
    return instance, rep


# -- Chern characters ------------------------------------------------------------


def validate_chern_data(action: ResolvedAction) -> ValidationReport:
    """Closedness, torsion vanishing, and shift compatibility of Chern data."""
    rep = ValidationReport()
    if action.chern is None:
        rep.add("Chern data present", False, "action carries no Chern data")
        return rep
    for label in sorted(action.tree.nodes):
        space = action.spaces[label]
        kdata = space.kdata
        reps = action.chern.reps.get(label)
        if reps is None or len(reps) != kdata.k0.ngens:
            rep.add(
                f"node {label}: one representative per K0 generator",
                False,
                f"got {0 if reps is None else len(reps)}, need {kdata.k0.ngens}",
            )
            continue
        d = space.complex.d
        not_closed = [j for j, v in enumerate(reps) if any(d.apply(v))]
        rep.add(
            f"node {label}: representatives are closed",
            not not_closed,
            "" if not not_closed else f"generators {not_closed}",
        )
        tors = [
            j for j in range(kdata.k0.free_rank, kdata.k0.ngens)
            if any(Fraction(x) != 0 for x in reps[j])
        ]
        rep.add(
            f"node {label}: torsion classes have zero representative",
            not tors,
            "" if not tors else f"generators {tors}",
        )
        dim = space.complex.total_dim
        c = RationalMatrix.from_columns([list(v) for v in reps], nrows=dim) \
            if reps else RationalMatrix.zeros(dim, 0)
        bad_twists = []
        for i, (sigma, shift) in enumerate(zip(kdata.sigma0, space.shifts)):
            e = _exp_nilpotent(shift.matrix)
            lhs = c @ RationalMatrix.from_integer(sigma.matrix)
            if lhs != e @ c:
                bad_twists.append(i)
        rep.add(
            f"node {label}: shift automorphisms match exponential twists",
            not bad_twists,
            "" if not bad_twists else f"kernel generators {bad_twists}",
        )
    return rep


class ChernCocycle:
    """Closed, compatible tuple representing the Chern character of a bundle."""

    __slots__ = ("assembled", "name", "vectors")

    def __init__(self, assembled: AssembledComplex, name: str, vectors):
        self.assembled = assembled
        self.name = name
        self.vectors = vectors

    def node_value(self, label: str, khat: Character) -> Tuple[Exact, ...]:
        chi = self.assembled.action.tree.root_image(label, khat)
        s0, s1 = self.assembled.sectors[chi].spans[(label, khat)]
        return self.vectors[chi][s0:s1]


def chern_character(
    action: ResolvedAction,
    name: str,
    prune: Sequence[str] = (),
    radius: Optional[int] = None,
    sections: Optional[Mapping[str, SectionSystem]] = None,
) -> ChernCocycle:
    """Chern character of a named bundle as an element of the assembled complex.

    K-class coordinates are contracted with the node's Chern representatives
    sector by sector; the result is checked to be closed and to satisfy every
    face compatibility, and the offending face is named otherwise.
    """
    from .redbun import canonical_bundle

    validate_chern_data(action).raise_if_failed("Chern data")
    bundles = canonical_bundle(action, name, sections)
    assembled = assemble_complex(action, prune=prune, radius=radius, sections=sections)
    tree = action.tree

    for label in sorted(assembled.kept):
        window_set = set(assembled.windows[label])
        for ghat in bundles[label].table:
            k = tree.nodes[label].restrict(ghat)
            if k not in window_set:
                raise WindowError(
                    f"bundle {name!r} has support at {ghat.coords} on node "
                    f"{label}, outside the window; enlarge the radius"
                )

    vectors = {}
    for chi, sec in assembled.sectors.items():
        vec = [0] * sec.total
        for label, khat, s0, s1 in sec.blocks:
            cls = bundles[label].table.get(assembled.lift(label, khat))
            if cls is None:
                continue
            reps = action.chern.reps[label]
            for coeff, representative in zip(cls, reps):
                if coeff:
                    for i, x in enumerate(representative):
                        vec[s0 + i] += coeff * x
        if any(sec.diff.apply(vec)):
            raise ValueError(
                f"Chern cocycle of {name!r} is not closed in sector {chi.coords}"
            )
        bad = sec.membership_failure(vec)
        if bad is not None:
            raise ValueError(
                f"Chern cocycle of {name!r} breaks compatibility in sector "
                f"{chi.coords}: {bad}"
            )
        vectors[chi] = tuple(map(exact, vec))
    return ChernCocycle(assembled, name, vectors)


# -- comparisons and scans -------------------------------------------------------


def node_parity_dims(space: NodeSpaceData) -> Tuple[int, int]:
    """Even/odd cohomology of a single node complex.

    This is exactly the delocalized answer of the one-node tree in any
    sector: with no faces there are no constraints.
    """
    per_degree = space.complex.cohomology()
    even = sum(c for k, c in enumerate(per_degree) if k % 2 == 0)
    odd = sum(c for k, c in enumerate(per_degree) if k % 2 == 1)
    return even, odd


def compare_ranks(
    action: ResolvedAction,
    prune: Sequence[str] = (),
    radius: Optional[int] = None,
):
    """Rational rank equality between the K side and the delocalized side.

    Per node: every window sector contributes the free ranks of (K0, K1),
    which must equal the node's even/odd cohomology.  Globally: the
    dimensions must survive every pruning hexagon, and match the action's
    declared expectations when those cover the requested radius.  Returns
    the report and the global rational K it computed (None when a hexagon
    failed).
    """
    from .ktheory import rational_global_k

    rep = ValidationReport()
    for label in sorted(action.tree.nodes):
        kdata = action.spaces[label].kdata
        even, odd = node_parity_dims(action.spaces[label])
        ok = kdata.k0.free_rank == even and kdata.k1.free_rank == odd
        rep.add(
            f"node {label}: K ranks match node cohomology",
            ok,
            "" if ok else
            f"K gives ({kdata.k0.free_rank}, {kdata.k1.free_rank}), "
            f"cohomology gives ({even}, {odd})",
        )
    try:
        global_k = rational_global_k(action, prune=prune, radius=radius)
    except ArithmeticError as exc:
        rep.add("pruning hexagons consistent", False, str(exc))
        return rep, None
    rep.add("pruning hexagons consistent", True, "")

    expected = (action.expected or {}).get("deloc_dims_by_radius")
    if expected is not None and radius is not None and not prune:
        declared = expected.get(str(radius))
        if declared is not None:
            got = [global_k.even, global_k.odd]
            rep.add(
                f"dimensions at radius {radius} match declared values",
                got == list(declared),
                "" if got == list(declared) else f"computed {got}, declared {list(declared)}",
            )
    return rep, global_k


class WindowScan:
    """Dimensions across a sequence of window radii."""

    __slots__ = ("rows", "support_bound", "stabilized")

    def __init__(self, rows, support_bound, stabilized):
        self.rows = rows            # (radius, even, odd)
        self.support_bound = support_bound
        self.stabilized = stabilized

    def __repr__(self) -> str:
        return f"WindowScan(rows={self.rows}, stabilized={self.stabilized})"


def window_stabilization(
    action: ResolvedAction,
    radii: Sequence[int],
    prune: Sequence[str] = (),
    support_bound: Optional[int] = None,
) -> WindowScan:
    """Scan dimensions over growing windows and flag stabilization.

    The complex is assembled once, at the largest radius, and every radius
    reads its complex from that one by selection (`AssembledComplex.at_radius`);
    the checks a fresh assembly makes run for each radius in the given order
    first, so a failing input raises the error its first failing radius
    would.  With a declared support bound, stabilization means all
    dimensions for radii at or past the bound agree; otherwise the last two
    rows are compared.
    """
    radii = list(radii)
    rows = []
    if radii:
        _checked_kept(action, prune)
        windows = {}
        for i, r in enumerate(radii):
            windows[r] = _checked_windows(action, r)
            if i == 0:
                # radius-independent: made once, where a fresh assembly makes it first
                _check_face_maps(action)
        top = assemble_complex(action, prune=prune, radius=max(radii))
        for r in radii:
            dims = deloc_cohomology(top.at_radius(r, windows[r]))
            rows.append((r, dims.even, dims.odd))
    stabilized: Optional[bool] = None
    if support_bound is not None:
        tail = [(e, o) for r, e, o in rows if r >= support_bound]
        stabilized = len(tail) >= 1 and len(set(tail)) == 1
    elif len(rows) >= 2:
        stabilized = rows[-1][1:] == rows[-2][1:]
    return WindowScan(tuple(rows), support_bound, stabilized)
