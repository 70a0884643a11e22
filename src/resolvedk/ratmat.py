"""Exact rational linear algebra over `int` and `fractions.Fraction`.

An entry is an `int` when it is integral and a `Fraction` only when it is
not: never a `float`, and never a `Fraction` with denominator 1.  The
matrices the assembly builds are integral, so their kernels run on plain
ints and make no `Fraction` at all; since an int and the equal Fraction
compare and hash equal, matrices built either way are equal.  Every public
accessor (`row`, `column`, `columns`, `entries`, `sparse_rows`, indexing)
and every result (`apply`, `solve`, products) holds entries in that form.
A batch of vectors is a matrix whose columns are the vectors: products,
`submatrix`, `is_zero` and `QuotientSpace.coords` act on the whole batch,
and `apply` is the one single-vector operation (`solve` still takes and
returns its right-hand sides as a list).  The same type carries the integer
matrices of `fgab` (hom matrices, relation matrices, Smith transforms): an
integer matrix is one whose entries are all ints, and `fgab` applies it to
int vectors over its `sparse_rows` itself.

Storage is sparse: a matrix keeps each row as a tuple of `(column, value)`
pairs sorted by column, with no zero values.  That form is canonical, so
equality and hashing compare it directly.  The matrices the assembly
produces are nearly all zeros, and every kernel visits only nonzero entries:
a product builds each row from the nonzeros of the left row times the rows
they select on the right, and `apply` sums over nonzero pairs.

There is one elimination, `_eliminate`, for both rings.  It runs on
`{column: value}` rows, touching only the nonzero columns of a pivot row
and, through a column-to-rows index, only the rows with a nonzero in the
pivot column, and it picks pivots by one rule: the smallest |pivot|, then
the fewest nonzeros, then the lowest row.  Over Q it is Gauss-Jordan, for
`rref`, rank, nullspaces, `solve`, which eliminates once for a whole batch
of right-hand sides, and `QuotientSpace`, coordinates on a quotient of two
column spans from one elimination with the identity riding along.  Over Z
it is the row Hermite form, for `fgab`'s Hermite and Smith forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from operator import is_not, itemgetter
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

Exact = Union[int, Fraction]
Row = Tuple[Tuple[int, Exact], ...]

_ZERO = 0
_ONE = 1
_INT = frozenset((int,))
_value = itemgetter(1)


def exact(x) -> Exact:
    """`x` as an exact entry: an int when integral, else a Fraction.

    Raises TypeError on anything but an int or a Fraction (floats included).
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _exacts(values: Iterable) -> Tuple[Exact, ...]:
    """The values as a tuple of exact entries, every one type-checked.

    A tuple of plain ints is recognised at C speed and returned as it is.
    """
    values = tuple(values)
    if _INT.issuperset(map(type, values)):
        return values
    return tuple(map(exact, values))


def _exact_map(row: Dict[int, Exact]) -> Dict[int, Exact]:
    """A `{column: value}` row with any integral Fraction turned into an int."""
    if _INT.issuperset(map(type, row.values())):
        return row
    return {j: exact(x) for j, x in row.items()}


def _quotient(x: Exact, y: Exact) -> Exact:
    """x / y as an exact entry; an int when y divides x."""
    if type(x) is int and type(y) is int:
        q, rem = divmod(x, y)
        return Fraction(x, y) if rem else q
    return exact(x / y)


def _nonzero(values: Sequence[Exact]) -> Iterator[Tuple[int, Exact]]:
    """(index, value) of each nonzero entry of a sequence of exact entries.

    Entries that are the shared zero are skipped by identity, at C speed;
    only the others are tested.
    """
    candidates = compress(enumerate(values), map(is_not, values, repeat(_ZERO)))
    return ((j, x) for j, x in candidates if x)


def _canon(row: Dict[int, Exact]) -> Row:
    """The canonical row of a `{column: value}` map: sorted, zeros dropped."""
    return tuple(sorted(filter(_value, _exact_map(row).items())))


class RationalMatrix:
    """Immutable matrix of exact entries, stored as sparse rows."""

    __slots__ = ("nrows", "ncols", "_data")

    def __init__(self, rows: Iterable[Iterable], *, ncols: Optional[int] = None):
        dense = [_exacts(row) for row in rows]
        if dense:
            width = len(dense[0])
            if any(len(r) != width for r in dense):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with rows")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs explicit ncols")
            width = ncols
        self.nrows = len(dense)
        self.ncols = width
        self._data = tuple(tuple(_nonzero(r)) for r in dense)

    @classmethod
    def _of(cls, data: Tuple[Row, ...], ncols: int) -> "RationalMatrix":
        """Wrap rows a kernel built, already in canonical sparse form."""
        mat = object.__new__(cls)
        mat.nrows = len(data)
        mat.ncols = ncols
        mat._data = data
        return mat

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._of(tuple(((i, _ONE),) for i in range(n)), n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls._of(((),) * nrows, ncols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], nrows: Optional[int] = None) -> "RationalMatrix":
        cols = [_exacts(c) for c in columns]
        if cols:
            height = len(cols[0])
            if any(len(c) != height for c in cols):
                raise ValueError("ragged columns")
            if nrows is not None and nrows != height:
                raise ValueError("nrows disagrees with columns")
            nrows = height
        elif nrows is None:
            raise ValueError("empty column list needs nrows")
        rows: List[List[Tuple[int, Exact]]] = [[] for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, x in _nonzero(col):
                rows[i].append((j, x))
        return cls._of(tuple(map(tuple, rows)), len(cols))

    @classmethod
    def from_row_maps(cls, rows: Sequence[Mapping[int, object]], ncols: int) -> "RationalMatrix":
        """Matrix whose row i holds the `{column: value}` entries of `rows[i]`.

        Missing columns are zero and zero values are dropped.
        """
        data = []
        for row in rows:
            if any(not 0 <= j < ncols for j in row):
                raise ValueError("column index out of range")
            data.append(_canon({j: exact(x) for j, x in row.items()}))
        return cls._of(tuple(data), ncols)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def _rows(self) -> Tuple[Tuple[Exact, ...], ...]:
        """Dense rows, built on every access (perfbench's tracer reads them)."""
        return tuple(self.row(i) for i in range(self.nrows))

    def _column_index(self, j: int) -> int:
        if not -self.ncols <= j < self.ncols:
            raise IndexError("column index out of range")
        return j % self.ncols

    def __getitem__(self, key: Tuple[int, int]) -> Exact:
        row = self._data[key[0]]
        j = self._column_index(key[1])
        for c, x in row:
            if c >= j:
                return x if c == j else _ZERO
        return _ZERO

    def row(self, i: int) -> Tuple[Exact, ...]:
        out = [_ZERO] * self.ncols
        for j, x in self._data[i]:
            out[j] = x
        return tuple(out)

    def column(self, j: int) -> Tuple[Exact, ...]:
        j = self._column_index(j)
        return tuple(self[i, j] for i in range(self.nrows))

    def columns(self) -> Tuple[Tuple[Exact, ...], ...]:
        cols = [[_ZERO] * self.nrows for _ in range(self.ncols)]
        for i, row in enumerate(self._data):
            for j, x in row:
                cols[j][i] = x
        return tuple(map(tuple, cols))

    def sparse_rows(self) -> Tuple[Row, ...]:
        """The stored rows: per row, its nonzero `(column, value)` pairs by column."""
        return self._data

    def entries(self) -> Iterator[Tuple[int, int, Exact]]:
        """The nonzero entries as (row, column, value), in row-major order."""
        for i, row in enumerate(self._data):
            for j, x in row:
                yield i, j, x

    def submatrix(self, rows: Iterable[int], cols: Optional[Sequence[int]] = None) -> "RationalMatrix":
        """The given rows, restricted to the given distinct columns in their order.

        `cols=None` keeps every column.
        """
        if cols is None:
            return RationalMatrix._of(tuple(self._data[i] for i in rows), self.ncols)
        pos = {c: k for k, c in enumerate(cols)}
        if len(pos) != len(cols):
            raise ValueError("repeated column in a submatrix selection")
        ascending = all(a < b for a, b in zip(cols, cols[1:]))
        out = []
        for i in rows:
            picked = [(pos[j], x) for j, x in self._data[i] if j in pos]
            if not ascending:
                picked.sort()
            out.append(tuple(picked))
        return RationalMatrix._of(tuple(out), len(pos))

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.nrows)]

    def is_zero(self) -> bool:
        return not any(self._data)

    def apply(self, vec: Sequence) -> Tuple[Exact, ...]:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        v = _exacts(vec)
        return _exacts(sum([x * v[j] for j, x in row if v[j]], _ZERO) for row in self._data)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        right = other._data
        out = []
        for row in self._data:
            acc: Dict[int, Exact] = {}
            for k, a in row:
                for j, b in right[k]:
                    acc[j] = acc.get(j, _ZERO) + a * b
            out.append(_canon(acc))
        return RationalMatrix._of(tuple(out), other.ncols)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        out = []
        for r1, r2 in zip(self._data, other._data):
            if not r1 or not r2:
                out.append(r1 or r2)
                continue
            acc = dict(r1)
            for j, x in r2:
                acc[j] = acc.get(j, _ZERO) + x
            out.append(_canon(acc))
        return RationalMatrix._of(tuple(out), self.ncols)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._of(
            tuple(tuple((j, -x) for j, x in row) for row in self._data), self.ncols
        )

    def __mul__(self, scalar) -> "RationalMatrix":
        s = exact(scalar)
        if not s:
            return RationalMatrix.zeros(self.nrows, self.ncols)
        return RationalMatrix._of(
            tuple(tuple((j, exact(s * x)) for j, x in row) for row in self._data), self.ncols
        )

    __rmul__ = __mul__

    def transpose(self) -> "RationalMatrix":
        cols: List[List[Tuple[int, Exact]]] = [[] for _ in range(self.ncols)]
        for i, row in enumerate(self._data):
            for j, x in row:
                cols[j].append((i, x))
        return RationalMatrix._of(tuple(map(tuple, cols)), self.nrows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.ncols == other.ncols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.ncols, self._data))

    def __repr__(self) -> str:
        return f"RationalMatrix({[[str(x) for x in r] for r in self.to_lists()]!r})"


def _eliminate(rows: List[Dict[int, Exact]], width: int, integral: bool = False) -> List[int]:
    """Exact elimination in place on `{column: value}` rows, over Q or over Z.

    Pivots lie among the first `width` columns; the later columns ride
    along.  The pivot of a column is, among the rows from the current one
    down with a nonzero there, the smallest |value| (over Z: the fewest
    Euclid steps), then the fewest nonzeros (the least fill-in), then the
    lowest index.  Over Q the pivot row is divided by its pivot and the
    column cleared in every other row: pivot row `r` holds a one in column
    `pivots[r]` and every other row nothing there.  With `integral` the rows
    hold ints: the rows below subtract floor multiples of the pivot row
    until one is left, its pivot is made positive and the rows above are
    reduced into [0, pivot), the row Hermite form.  A column keeps the set
    of rows with a nonzero in it, in step with every swap, fill-in and
    cancellation.  Returns the pivot columns; the rows past their count
    vanish on the first `width` columns.
    """
    m = len(rows)
    where: Dict[int, Set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(i)

    def reduce_by(p: int, others: List[int]) -> None:
        """Subtract from every other row its quotient multiple of row p in column c."""
        prow = rows[p]
        pv = prow[c]
        pairs = [(j, x, where[j]) for j, x in prow.items()]
        for i in others:
            if i == p:
                continue
            row = rows[i]
            f = row[c] // pv if integral else row[c]
            if not f:
                continue
            for j, x, held in pairs:
                y = row.get(j)
                if y is None:
                    row[j] = -f * x
                    held.add(i)
                else:
                    y -= f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                        held.discard(i)

    pivots: List[int] = []
    r = 0
    for c in sorted(j for j in where if j < width):
        if r == m:
            break
        below = [i for i in where[c] if i >= r]
        if not below:
            continue
        while True:
            pivot_row = below[0] if len(below) == 1 else min(
                below, key=lambda i: (abs(rows[i][c]), len(rows[i]), i)
            )
            if len(below) == 1 or not integral:
                break
            reduce_by(pivot_row, below)  # Euclid: the others keep their remainders
            below = [i for i in below if c in rows[i]]
        if pivot_row != r:
            upper, lower = rows[r], rows[pivot_row]
            for j in upper.keys() ^ lower.keys():
                where[j] ^= {r, pivot_row}
            rows[r], rows[pivot_row] = lower, upper
        prow = rows[r]
        pv = prow[c]
        if integral and pv < 0:
            for j, x in prow.items():
                prow[j] = -x
        elif not integral and pv != 1:
            for j, x in prow.items():
                prow[j] = _quotient(x, pv)
        # entries left of c are zero in every row from r on, so this leaves
        # the earlier pivot columns alone
        if len(where[c]) > 1:
            reduce_by(r, list(where[c]))
        pivots.append(c)
        r += 1
    return pivots


def rref(mat: RationalMatrix) -> Tuple[RationalMatrix, Tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    rows = [dict(r) for r in mat._data]
    pivots = _eliminate(rows, mat.ncols)
    return RationalMatrix._of(tuple(map(_canon, rows)), mat.ncols), tuple(pivots)


def rank(mat: RationalMatrix) -> int:
    return len(rref(mat)[1])


def nullspace_basis(mat: RationalMatrix) -> RationalMatrix:
    """Basis of the right nullspace, as the columns of an ncols-row matrix.

    Column k belongs to the k-th free column f of the reduced form: a one in
    row f, and in the row of each pivot column minus that pivot row's entry
    at f.  The rows are read straight off the sparse pivot rows.
    """
    return reduced_nullspace(*rref(mat))


def reduced_nullspace(red: RationalMatrix, pivots: Sequence[int]) -> RationalMatrix:
    """`nullspace_basis` of a matrix, read off its `rref` (reduced form and pivots)."""
    pivot_set = set(pivots)
    free = {j: k for k, j in enumerate(j for j in range(red.ncols) if j not in pivot_set)}
    rows: List[Row] = [()] * red.ncols
    for j, k in free.items():
        rows[j] = ((k, _ONE),)
    for row, pc in zip(red._data, pivots):
        rows[pc] = tuple((free[j], -x) for j, x in row if j in free)
    return RationalMatrix._of(tuple(rows), len(free))


def solve(mat: RationalMatrix, rhs: Sequence[Sequence]) -> List[Optional[Tuple[Exact, ...]]]:
    """One solution of mat @ x = b for each column b of the batch `rhs`.

    Eliminates `[mat | rhs...]` once.  A column with no solution gets None;
    a consistent one gets the solution whose free coordinates are zero, the
    same one it gets when solved alone.

    >>> solve(RationalMatrix([[1, 0], [1, 0]]), [[3, 3], [1, 2]])
    [(3, 0), None]
    """
    cols = [_exacts(b) for b in rhs]
    if any(len(b) != mat.nrows for b in cols):
        raise ValueError("rhs length mismatch")
    n = mat.ncols
    rows = []
    for i, row in enumerate(mat._data):
        entries = dict(row)
        for t, b in enumerate(cols):
            if b[i]:
                entries[n + t] = b[i]
        rows.append(entries)
    pivots = _eliminate(rows, n)
    # below the rank only ride-along columns are left: the inconsistent ones
    inconsistent = {j for row in rows[len(pivots):] for j in row}
    out: List[Optional[Tuple[Exact, ...]]] = []
    for j in range(n, n + len(cols)):
        if j in inconsistent:
            out.append(None)
            continue
        x = [_ZERO] * n
        for row, pc in zip(rows, pivots):
            x[pc] = row.get(j, _ZERO)
        out.append(_exacts(x))
    return out


def _ride_along(row: Dict[int, Exact], width: int) -> Row:
    """The entries of a row from column `width` on, shifted to start at 0."""
    return tuple(sorted((j - width, x) for j, x in _exact_map(row).items() if j >= width))


class QuotientSpace:
    """Coordinates on span(span)/span(sub), in ambient coordinates.

    Eliminates `[sub | span | I]` once, with pivots among the first
    `sub.ncols + span.ncols` columns; the identity columns ride along and
    record the row operations.  Every `sub` column must be a pivot (the
    sub-basis is independent) and the pivot count must be `span.ncols` (the
    span columns are a basis containing span(sub)).  The representatives are
    the `span` columns whose pivots come after `sub`, chosen greedily in
    column order; `coords` gives the representative part of each column of
    a matrix written in the basis `[sub | representatives]`.
    """

    __slots__ = ("dim", "representatives", "_proj", "_outside")

    def __init__(self, sub: RationalMatrix, span: RationalMatrix):
        n, k = sub.shape
        if span.nrows != n:
            raise ValueError("row count mismatch")
        width = k + span.ncols
        rows = []
        for i, (a, b) in enumerate(zip(sub._data, span._data)):
            entries = dict(a)
            for j, x in b:
                entries[k + j] = x
            entries[width + i] = _ONE
            rows.append(entries)
        pivots = _eliminate(rows, width)
        if sum(1 for p in pivots if p < k) != k:
            raise ValueError("sub-basis columns are dependent")
        if len(pivots) != span.ncols:
            raise ValueError("sub-basis is not inside the span")
        self.dim = len(pivots) - k
        self.representatives = span.submatrix(range(n), [p - k for p in pivots[k:]])
        # ride-along rows: those of the representative pivots give the
        # coordinates, those below the rank annihilate exactly the span
        self._proj = RationalMatrix._of(
            tuple(_ride_along(row, width) for row in rows[k:len(pivots)]), n
        )
        self._outside = RationalMatrix._of(
            tuple(_ride_along(row, width) for row in rows[len(pivots):]), n
        )

    def coords(self, vecs: RationalMatrix) -> RationalMatrix:
        """Class coordinates of the columns of `vecs`, as the columns of a `dim`-row matrix.

        Every column must lie in the span.  The check and the coordinates are
        two sparse products for the whole batch.
        """
        if vecs.nrows != self._proj.ncols:
            raise ValueError(f"batch nrows disagrees: {vecs.nrows} != {self._proj.ncols}")
        if not (self._outside @ vecs).is_zero():
            raise ValueError("vector is not in the span")
        return self._proj @ vecs
