"""Exact rational linear algebra over `fractions.Fraction`.

Storage is dense: a matrix is an immutable tuple of rows of Fractions, which
is what equality and hashing compare.  The matrices the assembly produces are
nearly all zeros, so every kernel visits only nonzero entries: a product
builds each row from the nonzeros of the left row times the nonzero entries of
the matching right rows, `apply` sums over nonzero pairs, and Gauss-Jordan
elimination touches only the nonzero columns of a pivot row and the rows with
a nonzero in the pivot column.  On that elimination: `rref`, rank,
nullspaces, `solve`, which eliminates once for a whole batch of right-hand
sides, and `QuotientSpace`, coordinates on a quotient of two column spans
from one elimination with the identity riding along.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .fgab import IntegerMatrix

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class RationalMatrix:
    """Immutable matrix of Fractions."""

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, rows: Iterable[Iterable], *, ncols: Optional[int] = None):
        data = tuple(tuple(_frac(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with rows")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs explicit ncols")
            width = ncols
        self.nrows = len(data)
        self.ncols = width
        self._rows = data

    @classmethod
    def _of(cls, rows: Tuple[Tuple[Fraction, ...], ...], ncols: int) -> "RationalMatrix":
        """Wrap rows a kernel built: equal-length tuples of Fractions."""
        mat = object.__new__(cls)
        mat.nrows = len(rows)
        mat.ncols = ncols
        mat._rows = rows
        return mat

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._of(tuple(_unit(n, i) for i in range(n)), n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls._of(((_ZERO,) * ncols,) * nrows, ncols)

    @classmethod
    def from_integer(cls, mat: IntegerMatrix) -> "RationalMatrix":
        return cls(mat.to_lists(), ncols=mat.ncols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], nrows: Optional[int] = None) -> "RationalMatrix":
        cols = [tuple(_frac(x) for x in c) for c in columns]
        if cols:
            nrows = len(cols[0])
            if any(len(c) != nrows for c in cols):
                raise ValueError("ragged columns")
        elif nrows is None:
            raise ValueError("empty column list needs nrows")
        return cls._of(tuple(zip(*cols)) if cols else ((),) * nrows, len(cols))

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, key: Tuple[int, int]) -> Fraction:
        return self._rows[key[0]][key[1]]

    def row(self, i: int) -> Tuple[Fraction, ...]:
        return self._rows[i]

    def column(self, j: int) -> Tuple[Fraction, ...]:
        return tuple(r[j] for r in self._rows)

    def columns(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return tuple(self.column(j) for j in range(self.ncols))

    def to_lists(self) -> list:
        return [list(r) for r in self._rows]

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._rows for x in r)

    def apply(self, vec: Sequence) -> Tuple[Fraction, ...]:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        terms = [(k, x) for k, x in enumerate(_frac(x) for x in vec) if x]
        return tuple(
            sum([row[k] * x for k, x in terms if row[k]], _ZERO) for row in self._rows
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        n = other.ncols
        right = [[(j, b) for j, b in enumerate(row) if b] for row in other._rows]
        out = []
        for row in self._rows:
            acc = [_ZERO] * n
            for a, terms in zip(row, right):
                if a and terms:
                    for j, b in terms:
                        acc[j] += a * b
            out.append(tuple(acc))
        return RationalMatrix._of(tuple(out), n)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return RationalMatrix._of(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self._rows, other._rows)),
            self.ncols,
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._of(tuple(tuple(-x for x in r) for r in self._rows), self.ncols)

    def __mul__(self, scalar) -> "RationalMatrix":
        s = _frac(scalar)
        return RationalMatrix._of(tuple(tuple(s * x for x in r) for r in self._rows), self.ncols)

    __rmul__ = __mul__

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(self.columns(), ncols=self.nrows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.ncols, self._rows))

    def __repr__(self) -> str:
        return f"RationalMatrix({[[str(x) for x in r] for r in self._rows]!r})"


def _unit(n: int, i: int) -> Tuple[Fraction, ...]:
    return (_ZERO,) * i + (_ONE,) + (_ZERO,) * (n - i - 1)


def _eliminate(rows: List[List[Fraction]], width: int) -> List[int]:
    """Gauss-Jordan elimination in place, with pivots among the first `width` columns.

    The columns after `width` ride along: they undergo the same row
    operations but never hold a pivot.  Returns the pivot columns; pivot row
    `r` holds a one in column `pivots[r]` and every other row a zero there.
    """
    m = len(rows)
    pivots: List[int] = []
    r = 0
    for c in range(width):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        # entries left of c are zero in every row from r on
        nz = [j for j in range(c, len(prow)) if prow[j]]
        pv = prow[c]
        if pv != 1:
            for j in nz:
                prow[j] /= pv
        for i in range(m):
            row = rows[i]
            f = row[c]
            if f and i != r:
                for j in nz:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
    return pivots


def rref(mat: RationalMatrix) -> Tuple[RationalMatrix, Tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    rows = [list(r) for r in mat._rows]
    pivots = _eliminate(rows, mat.ncols)
    return RationalMatrix._of(tuple(map(tuple, rows)), mat.ncols), tuple(pivots)


def rank(mat: RationalMatrix) -> int:
    return len(rref(mat)[1])


def nullspace_basis(mat: RationalMatrix) -> list:
    """Basis (list of length-ncols tuples) of the right nullspace."""
    red, pivots = rref(mat)
    pivot_set = set(pivots)
    free_cols = [j for j in range(mat.ncols) if j not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [_ZERO] * mat.ncols
        vec[fc] = _ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r, fc]
        basis.append(tuple(vec))
    return basis


def solve(mat: RationalMatrix, rhs: Sequence[Sequence]) -> List[Optional[Tuple[Fraction, ...]]]:
    """One solution of mat @ x = b for each column b of the batch `rhs`.

    Eliminates `[mat | rhs...]` once.  A column with no solution gets None;
    a consistent one gets the solution whose free coordinates are zero, the
    same one it gets when solved alone.

    >>> solve(RationalMatrix([[1, 0], [1, 0]]), [[3, 3], [1, 2]])
    [(Fraction(3, 1), Fraction(0, 1)), None]
    """
    cols = [tuple(_frac(x) for x in b) for b in rhs]
    if any(len(b) != mat.nrows for b in cols):
        raise ValueError("rhs length mismatch")
    n = mat.ncols
    rows = [list(row) + [b[i] for b in cols] for i, row in enumerate(mat._rows)]
    pivots = _eliminate(rows, n)
    zero_rows = rows[len(pivots):]
    out: List[Optional[Tuple[Fraction, ...]]] = []
    for j in range(n, n + len(cols)):
        if any(row[j] for row in zero_rows):
            out.append(None)
            continue
        x = [_ZERO] * n
        for row, pc in zip(rows, pivots):
            x[pc] = row[j]
        out.append(tuple(x))
    return out


class QuotientSpace:
    """Coordinates on span(span)/span(sub), in ambient coordinates.

    Eliminates `[sub | span | I]` once, with pivots among the first
    `sub.ncols + span.ncols` columns; the identity columns ride along and
    record the row operations.  Every `sub` column must be a pivot (the
    sub-basis is independent) and the pivot count must be `span.ncols` (the
    span columns are a basis containing span(sub)).  The representatives are
    the `span` columns whose pivots come after `sub`, chosen greedily in
    column order; `coords` gives the representative part of a vector written
    in the basis `[sub | representatives]`.
    """

    __slots__ = ("dim", "representatives", "_proj", "_outside")

    def __init__(self, sub: RationalMatrix, span: RationalMatrix):
        n, k = sub.shape
        if span.nrows != n:
            raise ValueError("row count mismatch")
        width = k + span.ncols
        rows = [list(a + b + _unit(n, i)) for i, (a, b) in enumerate(zip(sub._rows, span._rows))]
        pivots = _eliminate(rows, width)
        if sum(1 for p in pivots if p < k) != k:
            raise ValueError("sub-basis columns are dependent")
        if len(pivots) != span.ncols:
            raise ValueError("sub-basis is not inside the span")
        self.dim = len(pivots) - k
        self.representatives = RationalMatrix.from_columns(
            [span.column(p - k) for p in pivots[k:]], nrows=n
        )
        # ride-along rows: those of the representative pivots give the
        # coordinates, those below the rank annihilate exactly the span
        self._proj = RationalMatrix._of(tuple(tuple(row[width:]) for row in rows[k:len(pivots)]), n)
        self._outside = RationalMatrix._of(tuple(tuple(row[width:]) for row in rows[len(pivots):]), n)

    def coords(self, vecs: Sequence[Sequence]) -> List[Tuple[Fraction, ...]]:
        """Class coordinates of each vector in `vecs`; each must lie in the span."""
        out = []
        for v in vecs:
            if any(self._outside.apply(v)):
                raise ValueError("vector is not in the span")
            out.append(self._proj.apply(v))
        return out
