"""Node K ranks, six-term rank arithmetic, and the global check of an assembled complex.

At a fixed-isotropy node the graded K-group is one copy of the node's
integral (K0, K1) pair per window character, so its rank as a module over
the representation ring is the window size times the free ranks
(`action_node_k`).  How an ambient character acts on it, and
why the Chern character commutes with that action, is derived in
`docs/representation-ring.md`; nothing here computes the action.
Globally only rational dimensions are emitted (`rational_global_k`): the
six-term sequence of each pruning step comes with all six dimensions and
map ranks computed, and is checked at that level, never by guessing an
unproved integral extension.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

from .report import ValidationReport


def action_node_k(action, label: str, windows: Mapping[str, Sequence]) -> Tuple[int, int]:
    """(even, odd) K ranks of one node over its materialized window."""
    kdata = action.spaces[label].kdata
    size = len(windows[label])
    return size * kdata.k0.free_rank, size * kdata.k1.free_rank


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


def rational_global_k(assembled):
    """(DelocDims, ValidationReport): global rational K of an assembled complex, checked.

    The dimensions are those of the delocalized cohomology of `assembled`.
    Every step of the pruning sequence that builds it from its root must
    yield an exact six-term sequence in every sector, otherwise the
    computation aborts with the failing rows.  The summed rows reported per
    step then hold: the sectors' d_i = r_{i-1} + r_i add up to
    D_i = R_{i-1} + R_i (so the alternating sum is 0), and
    R_i <= sum of min(d_i, d_{i+1}) <= min(D_i, D_{i+1}).
    """
    from . import deloc

    dims = deloc.deloc_cohomology(assembled)
    checks = ValidationReport()
    start = assembled.full.restrict(assembled.kept & {assembled.action.tree.root})
    for les in deloc.pruning_walk(start, assembled):
        if not les.report.ok:
            raise ArithmeticError(
                f"pruning step +{les.alpha} is not exact:\n"
                + "\n".join(f"{n}: {d}" if d else n for n, d in les.report.failures())
            )
        checks.merge(hexagon_check(les.instance), prefix=f"step +{les.alpha}: ")
    return dims, checks
