"""Exact rational linear algebra over `fractions.Fraction`.

Small dense matrices only; everything the assembly and long-exact-sequence
machinery needs: reduced row echelon form, rank, nullspaces, solving, matrix
inverse, and quotient-space coordinates (choose a complement of a subspace
and project onto it).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .fgab import IntegerMatrix


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
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls([[Fraction(0)] * ncols for _ in range(nrows)], ncols=ncols)

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
        return cls([[c[i] for c in cols] for i in range(nrows)], ncols=len(cols))

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
        v = [_frac(x) for x in vec]
        return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in self._rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        ocols = other.columns()
        return RationalMatrix(
            [
                [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in ocols]
                for row in self._rows
            ],
            ncols=other.ncols,
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return RationalMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)],
            ncols=self.ncols,
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-x for x in r] for r in self._rows], ncols=self.ncols)

    def __mul__(self, scalar) -> "RationalMatrix":
        s = _frac(scalar)
        return RationalMatrix([[s * x for x in r] for r in self._rows], ncols=self.ncols)

    __rmul__ = __mul__

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(self.columns(), ncols=self.nrows)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return RationalMatrix(
            [r1 + r2 for r1, r2 in zip(self._rows, other._rows)], ncols=self.ncols + other.ncols
        )

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


def rref(mat: RationalMatrix) -> Tuple[RationalMatrix, Tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    rows = [list(r) for r in mat._rows]
    m, n = mat.shape
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return RationalMatrix(rows, ncols=n), tuple(pivots)


def rank(mat: RationalMatrix) -> int:
    return len(rref(mat)[1])


def nullspace_basis(mat: RationalMatrix) -> list:
    """Basis (list of length-ncols tuples) of the right nullspace."""
    red, pivots = rref(mat)
    pivot_set = set(pivots)
    free_cols = [j for j in range(mat.ncols) if j not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * mat.ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r, fc]
        basis.append(tuple(vec))
    return basis


def solve(mat: RationalMatrix, rhs: Sequence) -> Optional[Tuple[Fraction, ...]]:
    """One solution of mat @ x = rhs, or None."""
    if len(rhs) != mat.nrows:
        raise ValueError("rhs length mismatch")
    aug = mat.hstack(RationalMatrix.from_columns([list(rhs)], nrows=mat.nrows))
    red, pivots = rref(aug)
    if pivots and pivots[-1] == mat.ncols:
        return None
    x = [Fraction(0)] * mat.ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r, mat.ncols]
    return tuple(x)


def inverse(mat: RationalMatrix) -> RationalMatrix:
    if mat.nrows != mat.ncols:
        raise ValueError("inverse of non-square matrix")
    n = mat.nrows
    red, pivots = rref(mat.hstack(RationalMatrix.identity(n)))
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return RationalMatrix([red.row(i)[n:] for i in range(n)], ncols=n)


def column_space_contains(mat: RationalMatrix, vec: Sequence) -> bool:
    return solve(mat, vec) is not None


class QuotientSpace:
    """Coordinates on ambient/sub for a distinguished complement.

    Given an independent sub-basis S (columns), picks the deterministic
    complement E made of standard unit vectors (greedy by rref pivots), so
    that [S | E] is a basis of the ambient space.  `project` returns the
    E-coordinates of a vector (its class in ambient/sub), `lift` maps class
    coordinates back to the ambient representative in E.
    """

    __slots__ = ("ambient_dim", "sub_dim", "dim", "_tinv", "_comp_cols")

    def __init__(self, sub_basis: RationalMatrix):
        n, k = sub_basis.shape
        if rank(sub_basis) != k:
            raise ValueError("sub-basis columns are dependent")
        aug = sub_basis.hstack(RationalMatrix.identity(n))
        _, pivots = rref(aug)
        comp_cols = [p - k for p in pivots if p >= k]
        ext = RationalMatrix.from_columns(
            [[Fraction(int(i == c)) for i in range(n)] for c in comp_cols], nrows=n
        )
        t = sub_basis.hstack(ext)
        self.ambient_dim = n
        self.sub_dim = k
        self.dim = n - k
        self._comp_cols = tuple(comp_cols)
        self._tinv = inverse(t) if n else RationalMatrix.zeros(0, 0)

    def full_coords(self, vec: Sequence) -> Tuple[Fraction, ...]:
        return self._tinv.apply(vec)

    def project(self, vec: Sequence) -> Tuple[Fraction, ...]:
        return self.full_coords(vec)[self.sub_dim:]

    def sub_coords(self, vec: Sequence) -> Tuple[Fraction, ...]:
        """Coordinates in the sub-basis; requires vec to lie in the subspace."""
        full = self.full_coords(vec)
        if any(x != 0 for x in full[self.sub_dim:]):
            raise ValueError("vector is not in the subspace")
        return full[: self.sub_dim]

    def lift(self, qcoords: Sequence) -> Tuple[Fraction, ...]:
        if len(qcoords) != self.dim:
            raise ValueError("class coordinate length mismatch")
        vec = [Fraction(0)] * self.ambient_dim
        for c, x in zip(self._comp_cols, qcoords):
            vec[c] = _frac(x)
        return tuple(vec)
