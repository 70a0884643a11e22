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
each deep block of the fiber.  A Chern character is not assembled: it is
one table of twisted forms per node, nonzero only on the bundle's finite
support, and `redbun.face_comparisons` checks the same face conditions on
those tables.  All linear algebra is exact and rational; the character
twists are exponentials of the nilpotent shift operators, so every
exponential is a finite sum, and each node space builds each one once.

Sectors whose window characters are translates often carry equal
constraint and differential matrices.  Every complex assembled from one
parsed action (with every restriction and radius selection made from it)
shares one table keyed by the full sector content, so each distinct
sector's cohomology and each distinct sector six-term sequence of a pruning
step is computed once per action, across section systems and repeated
assemblies: one table per parsed action, freed with it.

A batch of vectors is a `RationalMatrix` whose columns are the vectors:
class coordinates, the maps of a six-term sequence and a node's Chern forms
are matrices, and `RationalMatrix.apply` is the one single-vector operation
(kept for the connecting map's lifts and the entries of twisted tables).
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .action import ResolvedAction, WindowError
from .basespace import NodeSpaceData, shift_count_mismatch
from .chargroup import Character, SectionSystem, fiber_support, lift, lift_offset
from .itspace import downward_closed
from .ktheory import SixTermInstance, hexagon_check
from .ratmat import (
    Exact,
    QuotientSpace,
    RationalMatrix,
    Row,
    nullspace_basis,
    pivot_columns,
    rank,
    reduced_nullspace,
    rref,
    solve,
)
from .report import ValidationReport


# -- small exact-linear-algebra helpers and character exponentials --------------


def _shared(table: Dict, key: Tuple, build: Callable):
    """The value of `key` in a sharing table, built by `build()` on first use.

    A value is a deterministic function of its key; a `build` that raises
    stores nothing.
    """
    value = table.get(key)
    if value is None:
        value = table[key] = build()
    return value


def _placed_rows(mat: RationalMatrix, idx: Sequence[int], total: int) -> RationalMatrix:
    """The matrix with `total` rows whose row idx[i] is row i of `mat`, the rest zero.

    `idx` needs one target per row of `mat` (ValueError otherwise).  The
    stored rows of `mat` are canonical, so each is placed as it is.
    """
    if len(idx) != mat.nrows:
        raise ValueError(f"{len(idx)} row targets for {mat.nrows} rows")
    rows: List[Row] = [()] * total
    for i, row in zip(idx, mat.sparse_rows()):
        rows[i] = row
    return RationalMatrix._of(tuple(rows), mat.ncols)


def _column_space_basis(mat: RationalMatrix) -> RationalMatrix:
    """Independent columns of `mat` spanning its column space: its pivot columns."""
    return mat.submatrix(range(mat.nrows), pivot_columns(mat))


# -- the assembled global complex ----------------------------------------------


class TwoPeriodicComplex:
    """A two-periodic subcomplex: parity subspace bases and a differential.

    One product d @ basis(p) and one elimination per parity give both the
    cocycles of parity p (its nullspace) and the boundaries of parity 1 - p
    (its pivot columns).
    """

    __slots__ = ("d", "_bases", "_kernels", "_cocycles", "_boundaries", "_class", "__weakref__")

    def __init__(self, d: RationalMatrix, basis_even: RationalMatrix, basis_odd: RationalMatrix):
        self.d = d
        self._bases = (basis_even, basis_odd)
        self._kernels: List[Optional[RationalMatrix]] = [None, None]
        self._cocycles: List[Optional[RationalMatrix]] = [None, None]
        self._boundaries: List[Optional[RationalMatrix]] = [None, None]
        self._class: List[Optional[QuotientSpace]] = [None, None]

    def basis(self, parity: int) -> RationalMatrix:
        return self._bases[parity % 2]

    def _eliminate(self, p: int) -> None:
        """Fill the boundaries of parity 1 - p; keep the nullspace `cocycles(p)` takes."""
        image = self.d @ self.basis(p)
        red, pivots = rref(image)
        self._boundaries[1 - p] = image.submatrix(range(image.nrows), pivots)
        self._kernels[p] = reduced_nullspace(red, pivots)

    def cocycles(self, parity: int) -> RationalMatrix:
        p = parity % 2
        if self._cocycles[p] is None:
            if self._kernels[p] is None:
                self._eliminate(p)
            self._cocycles[p] = self.basis(p) @ self._kernels[p]
            self._kernels[p] = None
        return self._cocycles[p]

    def boundaries(self, parity: int) -> RationalMatrix:
        p = parity % 2
        if self._boundaries[p] is None:
            self._eliminate(1 - p)
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

    def class_coords(self, vecs: RationalMatrix, parity: int) -> RationalMatrix:
        """Cohomology-class coordinates of each cocycle column of `vecs`, as columns."""
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
        "row_chars", "diff", "even_idx", "odd_idx", "shared", "_two",
    )

    def __init__(self, chi, blocks, spans, total, constraint, row_origins,
                 row_chars, diff, even_idx, odd_idx, shared):
        self.chi = chi
        self.blocks = blocks        # (label, window char, start, stop)
        self.spans = spans
        self.total = total
        self.constraint = constraint
        self.row_origins = row_origins  # (description, shallow node, start, stop)
        self.row_chars = row_chars  # the shallow window character of each row block
        self.diff = diff
        self.even_idx = even_idx    # tuples of column indices
        self.odd_idx = odd_idx
        self.shared = shared        # the sharing table of the action
        self._two: Optional[TwoPeriodicComplex] = None

    def parity_indices(self, parity: int) -> Tuple[int, ...]:
        return self.even_idx if parity % 2 == 0 else self.odd_idx

    def basis(self, parity: int) -> RationalMatrix:
        """Basis of the compatible subspace in the given parity, as columns."""
        idx = self.parity_indices(parity)
        restricted = self.constraint.submatrix(range(self.constraint.nrows), idx)
        return _placed_rows(nullspace_basis(restricted), idx, self.total)

    @property
    def two_periodic(self) -> TwoPeriodicComplex:
        """The sector's two-periodic complex, one per distinct sector content."""
        if self._two is None:
            key = ("two", self.constraint, self.diff, self.even_idx, self.odd_idx)
            self._two = _shared(
                self.shared, key,
                lambda: TwoPeriodicComplex(self.diff, self.basis(0), self.basis(1)),
            )
        return self._two

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
            tuple(position[i] for i in self.even_idx if i in position),
            tuple(position[i] for i in self.odd_idx if i in position),
            self.shared,
        )


class AssembledComplex:
    """Delocalized complex of a resolved action, split by root sector."""

    __slots__ = ("action", "kept", "radius", "windows", "sectors", "_full")

    def __init__(self, action, kept, radius, windows, sectors, full=None):
        self.action = action
        self.kept = kept
        self.radius = radius
        self.windows = windows
        self.sectors = sectors
        self._full = full   # None on the complex over every node, so no cycle

    @property
    def full(self) -> "AssembledComplex":
        """The complex over every node that this one restricts."""
        return self if self._full is None else self._full

    def restrict(self, kept) -> "AssembledComplex":
        """The subcomplex over a downward-closed kept set of nodes."""
        kept = downward_closed(self.action.tree, kept)
        if kept == self.kept:
            return self
        full = self.full
        return AssembledComplex(
            self.action, kept, self.radius, self.windows,
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
        block and row order.  The selected sectors keep this complex's sharing
        table, so a sector content already met at another radius reuses its
        cohomology.
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
            self.action, full.kept, radius, dict(windows),
            {
                chi: full.sectors[chi].select(lambda label, khat: khat in inside[label])
                for chi in windows[tree.root]
            },
        )
        return at.restrict(self.kept)


def _checked_input(
    action: ResolvedAction, prune: Sequence[str], radius: Optional[int]
) -> Tuple[frozenset, Dict[str, List[Character]]]:
    """The kept node set and the windows at `radius`, after every input check.

    The one check order of every computing command, whose first failure
    raises naming its node or face: (1) the tree is valid, the prune list
    names known nodes and the kept set is downward-closed; (2) the windows
    at `radius` materialize and are saturated; (3) the twisting law holds:
    every node differential squares to zero, every node has one chain shift
    and one K shift per kernel generator, and every face restriction and
    pullback is a chain map.
    """
    tree = action.tree
    tree.require_valid()
    prune_set = frozenset(prune)
    unknown = sorted(prune_set - set(tree.nodes))
    if unknown:
        raise ValueError(f"cannot prune unknown nodes {unknown}")
    kept = downward_closed(tree, frozenset(tree.nodes) - prune_set)

    windows = action.windows(radius)
    sat = action.check_window_saturation(windows)
    if not sat.ok:
        raise WindowError(
            "; ".join(f"{name}: {detail}" for name, detail in sat.failures())
        )

    for label in sorted(tree.nodes):
        for name, detail in action.spaces[label].complex.validate().failures():
            raise ValueError(f"node {label}: {name}: {detail}")
        mismatch = shift_count_mismatch(action.spaces[label], tree.nodes[label].kernel_rank)
        if mismatch:
            raise ValueError(f"node {label}: one shift per kernel generator: {mismatch}")
    for pair in sorted(action.faces):
        fm = action.faces[pair]
        if not fm.rho.commutes_with_differentials():
            raise ValueError(f"face {pair[0]}<{pair[1]}: restriction is not a chain map")
        if not fm.pullback.commutes_with_differentials():
            raise ValueError(f"face {pair[0]}<{pair[1]}: pullback is not a chain map")
    return kept, windows


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
    sum over the root window characters.  `_checked_input` runs first.
    """
    tree = action.tree
    kept, windows = _checked_input(action, prune, radius)

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
    full = AssembledComplex(action, frozenset(tree.nodes), radius, windows, sectors)
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
        tuple(row_chars), diff, tuple(even_idx), tuple(odd_idx), action.shared,
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
    if len(added) != 1 or not sub.kept < total.kept:
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
    instance = SixTermInstance(dims, ranks)
    return PruningLES(sub.kept, alpha, sector_instances, instance, report)


def pruning_walk(sub: AssembledComplex, total: AssembledComplex) -> Iterator[PruningLES]:
    """Six-term sequences of the steps that lead from `sub` to `total`.

    Both are restrictions of one assembled complex.  The nodes `total`
    keeps beyond `sub` are added one at a time in depth-then-label order,
    so every step is a pruning step and the last one is `total` itself,
    which reuses whatever cohomology `total` has already computed.  Sectors
    of one step, or of different steps, with equal content share one
    cohomology and one six-term sequence.
    """
    added = total.kept - sub.kept
    for alpha in (n for n in total.action.tree.labels_by_depth() if n in added):
        kept = sub.kept | {alpha}
        step = total if kept == total.kept else sub.full.restrict(kept)
        yield les_of_pruning(sub, step)
        sub = step


def _sector_les(sa: SectorComplex, sb: SectorComplex, alpha: str):
    """(six-term instance, report) of one sector of the step adding `alpha`.

    Computed once per distinct (sub complex, total complex, embedding,
    quotient indices) in the sectors' sharing table.
    """
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
    two_a, two_b = sa.two_periodic, sb.two_periodic
    key = ("les", two_a, two_b, tuple(emb), tuple(q_idx))
    return _shared(sb.shared, key, lambda: _les_of(two_a, two_b, emb, q_idx, sb.shared))


def _les_of(two_a: TwoPeriodicComplex, two_b: TwoPeriodicComplex, emb, q_idx, shared):
    """The (instance, report) `_sector_les` shares; the quotient complex is shared too."""
    d_alpha = two_b.d.submatrix(q_idx, q_idx)
    q_images = [_column_space_basis(two_b.basis(p).submatrix(q_idx)) for p in (0, 1)]
    two_q = _shared(
        shared, ("quotient", d_alpha, *q_images),
        lambda: TwoPeriodicComplex(d_alpha, *q_images),
    )
    total = two_b.d.nrows

    maps = {}
    for p in (0, 1):
        # induced inclusion and projection on cohomology
        ra = _placed_rows(two_a.class_representatives(p), emb, total)
        maps[("incl", p)] = two_b.class_coords(ra, p)
        rb = two_b.class_representatives(p).submatrix(q_idx)
        maps[("proj", p)] = two_q.class_coords(rb, p)
        # connecting map: lift each quotient cocycle, apply the differential,
        # pull the images back into the sub sector
        vb = two_b.basis(p)
        lifts = solve(vb.submatrix(q_idx), two_q.class_representatives(p).columns())
        if None in lifts:
            raise ArithmeticError("quotient cocycle has no total-space lift")
        images = RationalMatrix.from_columns(
            [two_b.d.apply(vb.apply(x)) for x in lifts], nrows=total
        )
        if not images.submatrix(q_idx).is_zero():
            raise ArithmeticError("connecting image does not vanish on the quotient")
        maps[("conn", p)] = two_a.class_coords(images.submatrix(emb), (p + 1) % 2)

    dims = (
        two_a.h_dim(0), two_b.h_dim(0), two_q.h_dim(0),
        two_a.h_dim(1), two_b.h_dim(1), two_q.h_dim(1),
    )
    ranks = (
        rank(maps[("incl", 0)]), rank(maps[("proj", 0)]), rank(maps[("conn", 0)]),
        rank(maps[("incl", 1)]), rank(maps[("proj", 1)]), rank(maps[("conn", 1)]),
    )
    instance = SixTermInstance(dims, ranks)

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
        c = _representatives(action, label)
        not_closed = sorted({j for _, j, _ in (space.complex.d @ c).entries()})
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
        # the twisting laws at kernel generator i: sigma_i on K0, exp(L_i) on
        # cochains; with one of each per generator they hold for every kernel
        # element (docs/representation-ring.md)
        n = action.tree.nodes[label].kernel_rank
        detail = shift_count_mismatch(space, n)
        if not detail:
            bad_twists = []
            for i in range(n):
                unit = [int(j == i) for j in range(n)]
                if c @ kdata.twist(unit).matrix != space.twist(unit) @ c:
                    bad_twists.append(i)
            detail = f"kernel generators {bad_twists}" if bad_twists else ""
        rep.add(
            f"node {label}: shift automorphisms match exponential twists",
            not detail,
            detail,
        )
    return rep


def _representatives(action: ResolvedAction, label: str) -> RationalMatrix:
    """A node's Chern representatives as the columns of one matrix."""
    dim = action.spaces[label].complex.total_dim
    reps = action.chern.reps[label]
    return RationalMatrix.from_columns([list(v) for v in reps], nrows=dim) \
        if reps else RationalMatrix.zeros(dim, 0)


class ChernCocycle:
    """Closed, compatible family of twisted node forms: the Chern character of a bundle.

    `values[label][khat]` is the Chern form of a kept node at each window
    character `khat` of the requested radius, on its section lift.
    """

    __slots__ = ("name", "kept", "windows", "values")

    def __init__(self, name: str, kept, windows, values):
        self.name = name
        self.kept = kept
        self.windows = windows
        self.values = values

    def node_value(self, label: str, khat: Character) -> Tuple[Exact, ...]:
        return self.values[label][khat]


def chern_character(
    action: ResolvedAction,
    names: Sequence[str],
    prune: Sequence[str] = (),
    radius: Optional[int] = None,
    sections: Optional[Mapping[str, SectionSystem]] = None,
) -> List[ChernCocycle]:
    """Chern characters of the named bundles, one family of twisted node forms each.

    K-class coordinates are contracted with the node's Chern representatives
    on each bundle's support, which must lie inside the windows of `radius`.
    `names` must be a sequence of names, not one string (TypeError, before
    any check).  The checks run once for all bundles: `validate_chern_data`
    (when a name is given), each bundle's canonical table, then
    `_checked_input`.  Every representative is closed, so every contraction
    of them is closed too; what is left per bundle, in the given order, is
    its window support and the face conditions of the complex
    `assemble_complex` would build, checked face by face without assembling.
    A bundle's first failure is the one that complex would meet first: by
    root sector, then by face and shallow window character.
    """
    from .redbun import TwistedTable, canonical_bundle, face_comparisons

    if isinstance(names, str):
        raise TypeError(f"expected a sequence of bundle names, got the string {names!r}")
    if names:
        validate_chern_data(action).raise_if_failed("Chern data")
    tables = [canonical_bundle(action, name, sections) for name in names]
    kept, windows = _checked_input(action, prune, radius)
    tree = action.tree
    reps = {label: _representatives(action, label) for label in kept} if names else {}
    sector_order = {chi: i for i, chi in enumerate(windows[tree.root])}

    cocycles = []
    for name, bundle in zip(names, tables):
        forms, values = {}, {}
        for label in sorted(kept):
            datum, space, table = tree.nodes[label], action.spaces[label], bundle[label].table
            values[label] = dict.fromkeys(windows[label], space.zero)
            for ghat in table:
                if datum.restrict(ghat) not in values[label]:
                    raise WindowError(
                        f"bundle {name!r} has support at {ghat.coords} on node "
                        f"{label}, outside the window; enlarge the radius"
                    )
            support = list(table)
            contracted = {}
            if support:
                chern = reps[label] @ RationalMatrix.from_columns(
                    [list(table[g]) for g in support], nrows=reps[label].ncols
                )
                contracted = dict(zip(support, chern.columns()))
            forms[label] = TwistedTable(label, datum, space, contracted)
            values[label].update((datum.restrict(g), v) for g, v in forms[label].table.items())

        # each failure keyed by (root sector, face, shallow character)
        failures = []
        faces = face_comparisons(action, attrgetter("forms"), forms, sections)
        for p, (a, b, restriction, pullback) in enumerate(faces):
            for g in restriction.table.keys() | pullback.table.keys():
                if restriction.get(g) != pullback.get(g):
                    khat = tree.nodes[a].restrict(g)
                    chi = tree.root_image(a, khat)
                    failures.append((
                        sector_order[chi], p, windows[a].index(khat),
                        f"breaks compatibility in sector {chi.coords}: "
                        f"face {a}<{b} at sector {khat.coords}",
                    ))
        if failures:
            raise ValueError(f"Chern cocycle of {name!r} {min(failures)[-1]}")
        cocycles.append(ChernCocycle(name, kept, windows, values))
    return cocycles


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

    # first, so that its input checks run before any node cohomology
    try:
        global_k, failure = rational_global_k(action, prune=prune, radius=radius), ""
    except ArithmeticError as exc:
        global_k, failure = None, str(exc)
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
    rep.add("pruning hexagons consistent", global_k is not None, failure)
    if global_k is None:
        return rep, None

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

    __slots__ = ("rows", "stabilized")

    def __init__(self, rows, stabilized):
        self.rows = rows            # (radius, even, odd)
        self.stabilized = stabilized

    def __repr__(self) -> str:
        return f"WindowScan(rows={self.rows}, stabilized={self.stabilized})"


def window_stabilization(
    action: ResolvedAction,
    radii: Sequence[int],
    prune: Sequence[str] = (),
) -> WindowScan:
    """Scan dimensions over growing windows and flag stabilization.

    The complex is assembled once, at the largest radius, and every radius
    reads its complex from that one by selection (`AssembledComplex.at_radius`).
    Each radius, in the given order, passes the input checks of a fresh
    assembly, so a failing input raises the error of its first failing
    radius.  Stabilization compares the last two rows; with fewer rows it
    is None.
    """
    radii = list(radii)
    peak = max(radii, default=None)
    windows = {}
    top = None
    for r in radii:
        if top is None and r == peak:
            top = assemble_complex(action, prune=prune, radius=r)
            windows[r] = top.windows
        else:
            windows[r] = _checked_input(action, prune, r)[1]
    rows = []
    for r in radii:
        dims = deloc_cohomology(top.at_radius(r, windows[r]))
        rows.append((r, dims.even, dims.odd))
    stabilized = rows[-1][1:] == rows[-2][1:] if len(rows) >= 2 else None
    return WindowScan(tuple(rows), stabilized)
