"""Character-graded equivariant K-groups and six-term rank arithmetic.

At a fixed-isotropy node the graded K-group is one copy of the node's
integral (K0, K1) pair per window character, with the ambient dual acting
by grading translation composed with the kernel shift automorphisms.
Globally only rational dimensions are emitted; the six-term sequence of
each pruning step comes with all six dimensions and map ranks computed,
and is checked at that level, never by guessing an unproved integral
extension.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .basespace import KData
from .chargroup import Character, SectionSystem, SubgroupDatum, lift, lift_offset
from .fgab import AbHom, FgAbGroup
from .report import ValidationReport


class WindowExceeded(ValueError):
    """Raised when an action translates a sector outside the window."""

    def __init__(self, char: Character):
        super().__init__(
            f"translated sector {char.coords} leaves the window; enlarge it"
        )
        self.char = char


class GradedKGroup:
    """One (K0, K1) sector per window character of a node."""

    __slots__ = ("label", "datum", "kdata", "window", "section", "_window_set")

    def __init__(
        self,
        datum: SubgroupDatum,
        kdata: KData,
        window: Sequence,
        section: Optional[SectionSystem] = None,
        label: str = "",
    ):
        chars = []
        for b in window:
            if not isinstance(b, Character):
                b = Character(datum.target, b)
            elif b.group != datum.target:
                raise ValueError(f"window character {b!r} is not in the node dual")
            chars.append(b)
        self.datum = datum
        self.kdata = kdata
        self.window = tuple(sorted(set(chars), key=lambda c: c.coords))
        self.section = section
        self.label = label
        self._window_set = frozenset(self.window)

    # -- structure ------------------------------------------------------------

    def __contains__(self, b: Character) -> bool:
        return b in self._window_set

    def sector(self, b: Character) -> Tuple[FgAbGroup, FgAbGroup]:
        if b not in self._window_set:
            raise WindowExceeded(b)
        return self.kdata.k0, self.kdata.k1

    def total_ranks(self) -> Tuple[int, int]:
        even = len(self.window) * self.kdata.k0.free_rank
        odd = len(self.window) * self.kdata.k1.free_rank
        return even, odd

    def table(self) -> List[Tuple[Tuple[int, ...], Tuple[int, Tuple[int, ...]], Tuple[int, Tuple[int, ...]]]]:
        """Rows (character coords, (even rank, even torsion), (odd ...))."""
        k0, k1 = self.kdata.k0, self.kdata.k1
        return [
            (b.coords, (k0.free_rank, k0.torsion), (k1.free_rank, k1.torsion))
            for b in self.window
        ]

    def validate_element(self, x: Mapping) -> None:
        for b, (ev, od) in x.items():
            if b not in self._window_set:
                raise WindowExceeded(b)
            if len(ev) != self.kdata.k0.ngens or len(od) != self.kdata.k1.ngens:
                raise ValueError(f"element coordinates at {b.coords} have wrong shape")


def action_node_k(action, label: str, radius: Optional[int] = None) -> GradedKGroup:
    """Graded K-group of one node of a resolved action."""
    windows = action.windows(radius)
    return GradedKGroup(
        action.tree.nodes[label],
        action.spaces[label].kdata,
        windows[label],
        label=label,
    )


def rg_action(
    ghat,
    x: Mapping[Character, Tuple[Sequence[int], Sequence[int]]],
    k: GradedKGroup,
) -> Dict[Character, Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Representation-ring action of an ambient character on an element.

    The grading translates by the restriction of the character; the classes
    are twisted by the kernel element connecting the translated lifts.
    """
    if not isinstance(ghat, Character):
        if isinstance(ghat, int):
            ghat = (ghat,)
        ghat = Character(k.datum.ambient, ghat)
    k.validate_element(x)
    shift = k.datum.restrict(ghat)
    out: Dict[Character, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
    for b, (ev, od) in x.items():
        b2 = b + shift
        if b2 not in k._window_set:
            raise WindowExceeded(b2)
        # the entry at b sits at ghat + lift(b) over b2 once translated
        _, coords = lift_offset(k.datum, k.section, b2, ghat + lift(k.datum, k.section, b))
        ev2 = k.kdata.twist(coords).apply(ev)
        od2 = k.kdata.odd.twist(coords).apply(od)
        if b2 in out:
            prev = out[b2]
            ev2 = k.kdata.k0.add(prev[0], ev2)
            od2 = k.kdata.k1.add(prev[1], od2)
        out[b2] = (ev2, od2)
    return out


def _product_group(old: FgAbGroup, extra: FgAbGroup) -> Tuple[FgAbGroup, AbHom]:
    """Canonical form of old x extra with the projection from raw coordinates.

    The projection maps concatenated (old, extra) coordinate vectors onto the
    invariant-factor presentation of the product.
    """
    n, m = old.ngens, extra.ngens
    cover = FgAbGroup.free(n + m)
    rel_cols = []
    for j, d in enumerate(old.torsion):
        col = [0] * (n + m)
        col[old.free_rank + j] = d
        rel_cols.append(col)
    for j, d in enumerate(extra.torsion):
        col = [0] * (n + m)
        col[n + extra.free_rank + j] = d
        rel_cols.append(col)
    rel = AbHom.from_columns(FgAbGroup.free(len(rel_cols)), cover, rel_cols)
    return rel.cokernel()


def product_with_trivial_factor(a_dual: FgAbGroup, k: GradedKGroup) -> GradedKGroup:
    """Extend the grading over the dual of a finite trivially-acting factor.

    Every new sector is a copy of the corresponding old sector, so each
    graded dimension multiplies by the order of the extra dual.  The
    combined groups are put back into invariant-factor form, so any finite
    extra dual is accepted.
    """
    if not a_dual.is_finite:
        raise ValueError("the extra factor must have a finite dual")
    amb, tgt = k.datum.ambient, k.datum.target
    new_amb, amb_proj = _product_group(amb, a_dual)
    new_tgt, tgt_proj = _product_group(tgt, a_dual)

    def pair_amb(x: Sequence[int], y: Sequence[int]) -> Tuple[int, ...]:
        return amb_proj.apply(tuple(x) + tuple(y))

    def pair_tgt(b: Sequence[int], y: Sequence[int]) -> Tuple[int, ...]:
        return tgt_proj.apply(tuple(b) + tuple(y))

    old_r = k.datum.restriction
    cols = []
    for e in new_amb.generators():
        raw = amb_proj.preimage_representative(e)
        cols.append(pair_tgt(old_r.apply(raw[: amb.ngens]), raw[amb.ngens:]))
    new_restriction = AbHom.from_columns(new_amb, new_tgt, cols)
    # the kernel is unchanged: keep the generator order so the shift
    # automorphisms stay indexed consistently
    kernel_basis = [
        pair_amb(h.coords, (0,) * a_dual.ngens) for h in k.datum.kernel_basis
    ]
    new_datum = SubgroupDatum(new_restriction, kernel_basis=kernel_basis or None)

    window = [
        Character(new_tgt, pair_tgt(b.coords, extra))
        for extra in a_dual.elements()
        for b in k.window
    ]
    section = None
    if k.section is not None:
        table = {}
        for extra in a_dual.elements():
            for b, lift in k.section.table.items():
                nb = Character(new_tgt, pair_tgt(b.coords, extra))
                table[nb] = Character(new_amb, pair_amb(lift.coords, extra))
        section = SectionSystem(new_datum, table, None)
    return GradedKGroup(new_datum, k.kdata, window, section=section, label=k.label)


# -- six-term sequences --------------------------------------------------------


LES_LABELS = (
    "even relative",
    "even total",
    "even quotient",
    "odd relative",
    "odd total",
    "odd quotient",
)


class SixTermInstance:
    """Dimensions and map ranks around the six-term sequence of a pruning step.

    Position i, labelled `LES_LABELS[i]`, carries a dimension `dims[i]`;
    `ranks[i]` is the rank of the map from position i to position i+1
    (indices mod 6).  Both are computed, so all twelve are nonnegative ints.
    Exactness at position i reads dims[i] = ranks[i-1] + ranks[i].
    """

    __slots__ = ("dims", "ranks")

    labels = LES_LABELS

    def __init__(self, dims: Sequence[int], ranks: Sequence[int]):
        dims, ranks = tuple(dims), tuple(ranks)
        if len(dims) != 6:
            raise ValueError("a six-term instance needs exactly six dimensions")
        if len(ranks) != 6:
            raise ValueError("a six-term instance needs exactly six map ranks")
        for v in dims + ranks:
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"dimensions and ranks must be nonnegative ints, got {v!r}")
        self.dims = dims
        self.ranks = ranks

    def alternating_sum(self) -> int:
        return sum(d if i % 2 == 0 else -d for i, d in enumerate(self.dims))

    def __repr__(self) -> str:
        return f"SixTermInstance(dims={self.dims}, ranks={self.ranks})"


def hexagon_check(h: SixTermInstance) -> ValidationReport:
    """Exactness verdict for a hexagon of known dimensions and ranks.

    One row for the alternating dimension sum, then one row per position i
    for dims[i] = ranks[i-1] + ranks[i] with ranks[i] <= min(dims[i], dims[i+1]);
    a failing row's detail names each of the two conditions that fails.
    """
    rep = ValidationReport()
    alt = h.alternating_sum()
    rep.add(
        "alternating dimension sum vanishes",
        alt == 0,
        "" if alt == 0 else f"sum = {alt}",
    )
    for i in range(6):
        dim, rank_in, rank_out = h.dims[i], h.ranks[i - 1], h.ranks[i]
        next_dim = h.dims[(i + 1) % 6]
        faults = []
        if rank_in + rank_out != dim:
            faults.append(f"dim {dim} != rank-in {rank_in} + rank-out {rank_out}")
        if rank_out > min(dim, next_dim):
            faults.append(f"rank-out {rank_out} > min(dim {dim}, next dim {next_dim})")
        rep.add(f"exact at {h.labels[i]}", not faults, "; ".join(faults))
    return rep


class GlobalRationalK:
    """Rational global K-dimensions, per root sector and total."""

    __slots__ = ("sectors", "even", "odd", "checks")

    def __init__(self, sectors: Dict, even: int, odd: int, checks: ValidationReport):
        self.sectors = sectors
        self.even = even
        self.odd = odd
        self.checks = checks

    def __repr__(self) -> str:
        return f"GlobalRationalK(even={self.even}, odd={self.odd})"


def rational_global_k(
    action,
    prune: Sequence[str] = (),
    radius: Optional[int] = None,
) -> GlobalRationalK:
    """Global K-dimensions over the rationals, via the delocalized model.

    The dimensions are those of the delocalized cohomology of the kept
    complex.  Every step of the pruning sequence that builds that complex
    from its root must yield an exact six-term sequence, in every sector
    and summed, otherwise the computation aborts with the failing rows.
    """
    from . import deloc

    assembled = deloc.assemble_complex(action, prune=prune, radius=radius)
    dims = deloc.deloc_cohomology(assembled)

    checks = ValidationReport()
    start = assembled.full.restrict(assembled.kept & {action.tree.root})
    for les in deloc.pruning_walk(start, assembled):
        if not les.report.ok:
            raise ArithmeticError(
                f"pruning step +{les.alpha} is not exact:\n"
                + "\n".join(f"{n}: {d}" if d else n for n, d in les.report.failures())
            )
        checks.merge(hexagon_check(les.instance), prefix=f"step +{les.alpha}: ")
    if not checks.ok:
        raise ArithmeticError(
            "pruning hexagons are inconsistent with the computed dimensions:\n"
            + "\n".join(f"{n}: {d}" if d else n for n, d in checks.failures())
        )
    return GlobalRationalK(dims.sectors, dims.even, dims.odd, checks)
