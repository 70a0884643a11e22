"""Character-graded equivariant K-groups and six-term rank arithmetic.

At a fixed-isotropy node the graded K-group is one copy of the node's
integral (K0, K1) pair per window character, with the ambient dual acting
by grading translation composed with the kernel shift automorphisms.
Globally only rational dimensions are emitted; the six-term sequences
coming from pruning are checked (and solved) at the level of dimensions
and ranks, never by guessing an unproved integral extension.
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


def node_equivariant_k(
    datum: SubgroupDatum,
    kdata: KData,
    window: Sequence,
    section: Optional[SectionSystem] = None,
    label: str = "",
) -> GradedKGroup:
    """Graded K-group of a single node over a finite window."""
    return GradedKGroup(datum, kdata, window, section=section, label=label)


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


class SixTermInstance:
    """Dimensions and map ranks around a six-periodic exact sequence.

    Position i carries a dimension `dims[i]`; `ranks[i]` is the rank of the
    map from position i to position i+1 (indices mod 6).  `None` marks an
    unknown.  Exactness at position i reads dims[i] = ranks[i-1] + ranks[i].
    """

    __slots__ = ("dims", "ranks", "labels")

    def __init__(
        self,
        dims: Sequence[Optional[int]],
        ranks: Optional[Sequence[Optional[int]]] = None,
        labels: Optional[Sequence[str]] = None,
    ):
        dims = tuple(dims)
        if len(dims) != 6:
            raise ValueError("a six-term instance needs exactly six dimensions")
        ranks = tuple(ranks) if ranks is not None else (None,) * 6
        if len(ranks) != 6:
            raise ValueError("a six-term instance needs exactly six map ranks")
        for v in dims + ranks:
            if v is not None and (not isinstance(v, int) or v < 0):
                raise ValueError(f"dimensions and ranks must be nonnegative ints, got {v!r}")
        labels = tuple(labels) if labels is not None else tuple(
            f"position {i + 1}" for i in range(6)
        )
        if len(labels) != 6:
            raise ValueError("six labels required")
        self.dims = dims
        self.ranks = ranks
        self.labels = labels

    def alternating_sum(self) -> Optional[int]:
        if any(d is None for d in self.dims):
            return None
        return sum(d if i % 2 == 0 else -d for i, d in enumerate(self.dims))

    def __repr__(self) -> str:
        return f"SixTermInstance(dims={self.dims}, ranks={self.ranks})"


class HexagonSolution:
    """Outcome of propagating exactness constraints over a hexagon."""

    __slots__ = ("status", "dims", "ranks", "bounds", "notes")

    def __init__(self, status, dims, ranks, bounds, notes):
        self.status = status  # "determined" | "underdetermined" | "infeasible"
        self.dims = dims
        self.ranks = ranks
        self.bounds = bounds  # name -> (lo, hi or None)
        self.notes = notes

    def __repr__(self) -> str:
        return f"HexagonSolution({self.status}, dims={self.dims}, ranks={self.ranks})"


_INF = None  # open upper bound


def _meet(iv: Tuple[int, Optional[int]], lo=None, hi=None):
    a, b = iv
    if lo is not None and lo > a:
        a = lo
    if hi is not None and (b is None or hi < b):
        b = hi
    return (a, b)


def hexagon_solve(h: SixTermInstance) -> HexagonSolution:
    """Propagate exactness through a hexagon with unknowns.

    Interval arithmetic over dims[i] = ranks[i-1] + ranks[i] and
    ranks[i] <= min(dims[i], dims[i+1]); values are only reported when
    forced, and contradictory constraints yield a refutation.
    """
    dim_iv = [
        (d, d) if d is not None else (0, _INF) for d in h.dims
    ]
    rank_iv = [
        (r, r) if r is not None else (0, _INF) for r in h.ranks
    ]
    notes = ["alternating dimension sum must vanish"]
    refuted: Optional[str] = None

    def empty(iv):
        return iv[1] is not None and iv[0] > iv[1]

    def min_hi(*vals):
        known = [v for v in vals if v is not None]
        return min(known) if known else None

    # a position whose dimension exceeds what its neighbourhood can carry is
    # inexact on its own, before any global propagation
    for i in range(6):
        in_hi = min_hi(dim_iv[i - 1][1], dim_iv[i][1], rank_iv[i - 1][1])
        out_hi = min_hi(dim_iv[i][1], dim_iv[(i + 1) % 6][1], rank_iv[i][1])
        if in_hi is not None and out_hi is not None and dim_iv[i][0] > in_hi + out_hi:
            refuted = (
                f"exactness cannot hold at {h.labels[i]}: dimension at least "
                f"{dim_iv[i][0]} but adjoining ranks at most {in_hi} + {out_hi}"
            )
            return HexagonSolution("infeasible", None, None, {}, notes + [refuted])
    if all(d is not None for d in h.dims):
        alt = h.alternating_sum()
        if alt != 0:
            return HexagonSolution(
                "infeasible", None, None, {},
                notes + [f"alternating dimension sum is {alt}, not zero"],
            )

    changed = True
    while changed and refuted is None:
        changed = False
        for i in range(6):
            before = (dim_iv[i], rank_iv[i], rank_iv[i - 1])
            # rank bounds from neighbouring dimensions
            if dim_iv[i][1] is not None:
                rank_iv[i] = _meet(rank_iv[i], hi=dim_iv[i][1])
                rank_iv[i - 1] = _meet(rank_iv[i - 1], hi=dim_iv[i][1])
            # exactness: dim_i = rank_{i-1} + rank_i
            rin, rout = rank_iv[i - 1], rank_iv[i]
            lo = rin[0] + rout[0]
            hi = None if rin[1] is None or rout[1] is None else rin[1] + rout[1]
            dim_iv[i] = _meet(dim_iv[i], lo=lo, hi=hi)
            # back-propagate: rank = dim - other rank
            if dim_iv[i][1] is not None:
                if rout[1] is not None:
                    rank_iv[i - 1] = _meet(rank_iv[i - 1], lo=dim_iv[i][0] - rout[1])
                rank_iv[i - 1] = _meet(rank_iv[i - 1], hi=dim_iv[i][1] - rout[0])
                if rin[1] is not None:
                    rank_iv[i] = _meet(rank_iv[i], lo=dim_iv[i][0] - rin[1])
                rank_iv[i] = _meet(rank_iv[i], hi=dim_iv[i][1] - rin[0])
            if empty(dim_iv[i]) or empty(rank_iv[i]) or empty(rank_iv[i - 1]):
                refuted = (
                    f"exactness cannot hold at {h.labels[i]}: "
                    f"dim in {dim_iv[i]}, incoming rank in {rank_iv[i - 1]}, "
                    f"outgoing rank in {rank_iv[i]}"
                )
                break
            if before != (dim_iv[i], rank_iv[i], rank_iv[i - 1]):
                changed = True

    if refuted is not None:
        return HexagonSolution("infeasible", None, None, {}, notes + [refuted])

    dims = tuple(iv[0] if iv[0] == iv[1] else None for iv in dim_iv)
    ranks = tuple(iv[0] if iv[0] == iv[1] else None for iv in rank_iv)
    bounds = {}
    for i, iv in enumerate(dim_iv):
        if iv[0] != iv[1]:
            bounds[f"dim {h.labels[i]}"] = iv
    for i, iv in enumerate(rank_iv):
        if iv[0] != iv[1]:
            bounds[f"rank {h.labels[i]}->{h.labels[(i + 1) % 6]}"] = iv
    status = "determined" if not bounds else "underdetermined"
    return HexagonSolution(status, dims, ranks, bounds, notes)


def hexagon_check(h: SixTermInstance) -> ValidationReport:
    """Exactness verdict for a hexagon whose dimensions are all known."""
    if any(d is None for d in h.dims):
        raise ValueError("dimension unknowns present; use hexagon_solve")
    rep = ValidationReport()
    alt = h.alternating_sum()
    rep.add(
        "alternating dimension sum vanishes",
        alt == 0,
        "" if alt == 0 else f"sum = {alt}",
    )
    if all(r is not None for r in h.ranks):
        for i in range(6):
            need = h.ranks[i - 1] + h.ranks[i]
            ok = need == h.dims[i] and h.ranks[i] <= min(h.dims[i], h.dims[(i + 1) % 6])
            rep.add(
                f"exact at {h.labels[i]}",
                ok,
                "" if ok else
                f"dim {h.dims[i]} != rank-in {h.ranks[i - 1]} + rank-out {h.ranks[i]}",
            )
        return rep
    sol = hexagon_solve(h)
    if sol.status == "infeasible":
        rep.add("an exact rank assignment exists", False, sol.notes[-1])
    else:
        rep.add(
            "an exact rank assignment exists",
            True,
            "ranks " + ("forced" if sol.status == "determined" else "not unique")
            + f": {sol.ranks}",
        )
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
    from its root must yield an exact six-term sequence, otherwise the
    computation aborts with the failing hexagon.
    """
    from . import deloc

    assembled = deloc.assemble_complex(action, prune=prune, radius=radius)
    dims = deloc.deloc_cohomology(assembled)

    checks = ValidationReport()
    start = assembled.full.restrict(assembled.kept & {action.tree.root})
    for les in deloc.pruning_walk(start, assembled):
        checks.merge(hexagon_check(les.instance), prefix=f"step +{les.alpha}: ")
    if not checks.ok:
        raise ArithmeticError(
            "pruning hexagons are inconsistent with the computed dimensions:\n"
            + "\n".join(f"{n}: {d}" if d else n for n, d in checks.failures())
        )
    return GlobalRationalK(dims.sectors, dims.even, dims.odd, checks)
