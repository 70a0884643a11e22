"""Exact integer linear algebra and finitely generated abelian groups.

Everything here is arbitrary-precision.  A matrix is a
`ratmat.RationalMatrix` whose entries are all Python ints.  Nothing here
eliminates: the row Hermite form is `ratmat._eliminate` over Z, the sparse
elimination that also serves Q, under the same pivot rule.  Entries past
the reduced width ride along with every row operation, so reducing the
rows of [a | I] gives [h | u] with u @ a = h.  The Smith normal form
alternates the row Hermite forms of [s | u] and [s^T | v^T] on sparse
rows until s is diagonal (Kannan and Bachem); a lattice reduces vectors
against its Hermite basis and reads their coordinates off the same
reduction; and the inverse of a unimodular u is the transform that takes
[u | I] to [I | u^-1].  Group homomorphisms are integer matrices acting
on chosen generators.  Groups are kept in invariant-factor form (free
rank plus a divisibility chain of torsion factors); subgroups, kernels,
images and cokernels are computed through integer lattices.  A hom
decomposes its graph [matrix | relations] once, the first time a preimage,
kernel or section asks for it, and computes its inverse once; both are
kept on the (immutable) hom.

Coordinate convention: a group with free rank f and torsion factors
(d_1 | d_2 | ... | d_t) has f + t generators, free generators first.  An
element is a tuple of plain ints with the torsion coordinates reduced into
[0, d_i).  `FgAbGroup.reduce` and `Lattice` are the boundary: they
type-check their input once (an integral Fraction becomes an int; a float
or a non-integral Fraction is refused), and everything past it, hom applies
and solves included, is integer arithmetic over the sparse rows of integer
matrices.
"""

from __future__ import annotations

from operator import mod
from typing import Iterable, Optional, Sequence, Tuple

from .ratmat import _INT, RationalMatrix, Row, _eliminate, exact


def _integer(x, what: str = "coordinate") -> int:
    """`x` as an int; TypeError on a float, ValueError on a non-integral rational.

    `what` names the value in the error message.
    """
    x = exact(x)
    if type(x) is not int:
        raise ValueError(f"{what} {x} is not an integer")
    return x


def _ints(vec: Iterable, what: str = "coordinate") -> Tuple[int, ...]:
    """The values as a tuple of ints; a tuple of ints is recognised at C speed."""
    vec = tuple(vec)
    if _INT.issuperset(map(type, vec)):
        return vec
    return tuple(_integer(x, what) for x in vec)


def _int_apply(rows: Tuple[Row, ...], x: Sequence[int]) -> Tuple[int, ...]:
    """The integer matrix with these sparse rows applied to an int vector.

    Plain loops: the rows are short, and a comprehension per row costs
    more than its sum.
    """
    out = []
    for row in rows:
        acc = 0
        for j, a in row:
            acc += a * x[j]
        out.append(acc)
    return tuple(out)


def _require_integral(mat: RationalMatrix) -> None:
    if any(type(x) is not int for _, _, x in mat.entries()):
        raise ValueError("integer matrix has a non-integral entry")


def _hstack(left: RationalMatrix, right: RationalMatrix) -> RationalMatrix:
    """The columns of `left` followed by those of `right`."""
    return RationalMatrix.from_columns(left.columns() + right.columns(), nrows=left.nrows)


def det_int(mat: RationalMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination.

    >>> det_int(RationalMatrix([[2, 4], [6, 8]]))
    -8
    """
    if mat.nrows != mat.ncols:
        raise ValueError("determinant of non-square matrix")
    n = mat.nrows
    if n == 0:
        return 1
    a = mat.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class SmithDecomposition:
    """Smith normal form with transforms: u @ a @ v == s.

    `s` is diagonal with nonnegative entries satisfying the divisibility
    chain d_1 | d_2 | ..., and `u`, `v` are unimodular.
    """

    __slots__ = ("u", "s", "v", "_diagonal")

    def __init__(self, u: RationalMatrix, s: RationalMatrix, v: RationalMatrix):
        self.u = u
        self.s = s
        self.v = v
        self._diagonal = tuple(s[i, i] for i in range(min(s.nrows, s.ncols)))

    def diagonal(self) -> Tuple[int, ...]:
        return self._diagonal

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)

    def verify(self, a: RationalMatrix) -> bool:
        if self.u @ a @ self.v != self.s:
            return False
        if abs(det_int(self.u)) != 1 or abs(det_int(self.v)) != 1:
            return False
        diag = self.diagonal()
        if any(i != j for i, j, _ in self.s.entries()):
            return False
        for i, d in enumerate(diag):
            if d < 0:
                return False
            if i + 1 < len(diag):
                nxt = diag[i + 1]
                if d == 0 and nxt != 0:
                    return False
                if d != 0 and nxt % d != 0:
                    return False
        return True

    def solve(self, rhs: Sequence[int]) -> Optional[Tuple[int, ...]]:
        """One integer solution x of a @ x = rhs for the decomposed a, or None.

        >>> smith_normal_form(RationalMatrix([[2, 3]])).solve([1])
        (-1, 1)
        >>> smith_normal_form(RationalMatrix([[2]])).solve([3]) is None
        True
        """
        if len(rhs) != self.s.nrows:
            raise ValueError("rhs length mismatch")
        c = _int_apply(self.u.sparse_rows(), _ints(rhs))
        diag = self._diagonal
        if any(c[len(diag):]):
            return None
        y = [0] * self.s.ncols
        for i, d in enumerate(diag):
            if d:
                y[i], rem = divmod(c[i], d)
                if rem:
                    return None
            elif c[i]:
                return None
        return _int_apply(self.v.sparse_rows(), y)

    def kernel_basis(self) -> list:
        """Basis of the integer kernel of the decomposed matrix: v's last columns."""
        return list(self.v.columns()[self.rank:])


def _transposed(rows: list, ncols: int) -> list:
    """The columns of `{column: value}` rows of width `ncols`, as such rows."""
    cols: list = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return cols


def _of_maps(rows: list, ncols: int) -> RationalMatrix:
    """The matrix with these `{column: value}` rows of nonzero ints, unchecked."""
    return RationalMatrix._of(tuple([tuple(sorted(row.items())) for row in rows]), ncols)


def smith_normal_form(mat: RationalMatrix) -> SmithDecomposition:
    """Smith normal form over the integers, with unimodular transforms.

    Alternating Hermite forms (Kannan and Bachem, SIAM J. Comput. 8, 1979):
    the row Hermite form of [s | u] is a row step with its transform riding
    along, and the row Hermite form of [s^T | v^T] a column step.  The two
    alternate until s is diagonal; where d_i does not divide d_(i+1), column
    i+1 is added to column i and the row steps resume, which replaces d_i by
    gcd(d_i, d_(i+1)).

    Raises ValueError on a matrix with a non-integral entry.

    >>> d = smith_normal_form(RationalMatrix([[2, 4], [6, 8]]))
    >>> d.diagonal()
    (2, 4)
    >>> d.verify(RationalMatrix([[2, 4], [6, 8]]))
    True
    """
    _require_integral(mat)
    m, n = mat.shape
    # the sparse rows of the block matrix [[s, u], [v, 0]], transposed as a
    # whole while flipped: a row step reduces the top rows with u riding
    # along, a column step is a row step of the transpose, u @ mat @ v == s
    top = [dict(row) for row in mat.sparse_rows()]
    for i, row in enumerate(top):
        row[n + i] = 1
    bottom = [{j: 1} for j in range(n)]
    width, flipped = n, False
    while True:
        _eliminate(top, width, integral=True)
        if all(j == i or j >= width for i, row in enumerate(top) for j in row):
            diag = [top[i].get(i, 0) for i in range(min(len(top), width))]
            i = next((i for i, d in enumerate(diag[:-1]) if d and diag[i + 1] % d), None)
            if i is None and not flipped:
                break
            if i is not None:
                for row in top + bottom:  # column i + 1 added to column i
                    if i + 1 in row:
                        row[i] = row.get(i, 0) + row[i + 1]
                        if not row[i]:
                            del row[i]
                continue
        # flip for a column step, or to turn a finished s back
        rows = _transposed(top + bottom, len(top) + width)
        top, bottom, width, flipped = rows[:width], rows[width:], len(top), not flipped
    s = [{j: x for j, x in row.items() if j < n} for row in top]
    u = [{j - n: x for j, x in row.items() if j >= n} for row in top]
    return SmithDecomposition(_of_maps(u, m), _of_maps(s, n), _of_maps(bottom, n))


def kernel_basis(mat: RationalMatrix) -> list:
    """Basis (list of coordinate tuples) of the integer kernel lattice.

    >>> kernel_basis(RationalMatrix([[2, 3]]))
    [(3, -2)]
    """
    return smith_normal_form(mat).kernel_basis()


def row_hermite_form(rows: Iterable[Sequence[int]], width: int) -> list:
    """Row-style Hermite normal form of the rows on their first `width` entries.

    The Hermite rows come first, in echelon form: pivot columns strictly
    increase, each pivot is positive, and entries above a pivot are reduced
    into [0, pivot).  They are the unique such basis of the lattice the rows
    span.  Entries past `width` ride along with every row operation, so the
    Hermite rows are followed by the rows that vanish on the first `width`
    entries but not past them: reducing the rows of [a | I] gives [h | u]
    with u @ a equal to h stacked over zero rows, u unimodular.  Rows that
    vanish entirely are dropped.

    This is `ratmat._eliminate` over Z on the rows' nonzero entries.
    """
    rows = [tuple(r) for r in rows]
    work = [{j: x for j, x in enumerate(r) if x} for r in rows]
    _eliminate(work, width, integral=True)
    length = range(len(rows[0]) if rows else 0)
    return [[row.get(j, 0) for j in length] for row in work if row]


def lattice_reduce(hnf_rows: Sequence[Sequence[int]], vec: Sequence[int]) -> Tuple[list, list]:
    """Reduce `vec` into the Hermite fundamental domain of the lattice.

    `hnf_rows` must come from :func:`row_hermite_form`.  Returns
    (coefficients, remainder) with vec = sum of coefficient * row plus the
    remainder; two vectors in the same coset have the same remainder, and a
    lattice vector has remainder zero and its coordinates as coefficients.
    """
    v = list(vec)
    coeffs = []
    for row in hnf_rows:
        col = next(j for j, x in enumerate(row) if x)
        q = v[col] // row[col]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
        coeffs.append(q)
    return coeffs, v


class Lattice:
    """Sublattice of Z^n with a canonical coset-representative map.

    The representative rule pivots on the *last* coordinates first: the
    Hermite form is taken in reversed coordinate order, and reduction brings
    each pivot coordinate into [0, pivot).  This reproduces, e.g., the
    minimal lift 1 for 2Z in Z and the lift (-1, 1) for the kernel of
    (x, y) -> 2x + 3y.
    """

    __slots__ = ("ambient_dim", "_rev_hnf")

    def __init__(self, ambient_dim: int, generators: Iterable[Sequence[int]]):
        gens = [_ints(g, "generator entry") for g in generators]
        if any(len(g) != ambient_dim for g in gens):
            raise ValueError("generator length mismatch")
        self.ambient_dim = ambient_dim
        self._rev_hnf = row_hermite_form([g[::-1] for g in gens], ambient_dim)

    @property
    def rank(self) -> int:
        return len(self._rev_hnf)

    def basis(self) -> list:
        """Canonical basis, ordered by leading (original) coordinate."""
        rows = [tuple(r[::-1]) for r in self._rev_hnf]
        return rows[::-1]

    def reduce(self, vec: Sequence[int]) -> Tuple[int, ...]:
        vec = _ints(vec)
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        _, red = lattice_reduce(self._rev_hnf, vec[::-1])
        return tuple(red[::-1])

    def contains(self, vec: Sequence[int]) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Lattice)
            and self.ambient_dim == other.ambient_dim
            and [tuple(r) for r in self._rev_hnf] == [tuple(r) for r in other._rev_hnf]
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(tuple(r) for r in self._rev_hnf)))

    def is_sublattice_of(self, other: "Lattice") -> bool:
        return all(other.contains(b) for b in self.basis())


class FgAbGroup:
    """Finitely generated abelian group in invariant-factor form.

    >>> g = FgAbGroup(1, (2,))
    >>> g.ngens
    2
    >>> g.reduce((3, 5))
    (3, 1)
    >>> from fractions import Fraction
    >>> g.reduce((Fraction(6, 2), 5))
    (3, 1)
    >>> g.reduce((2.5, 0))
    Traceback (most recent call last):
    ...
    TypeError: not an exact rational: 2.5
    >>> g.reduce((Fraction(1, 2), 0))
    Traceback (most recent call last):
    ...
    ValueError: coordinate 1/2 is not an integer
    >>> str(FgAbGroup(2)), str(FgAbGroup(0, (2, 4))), str(FgAbGroup(0))
    ('Z^2', 'Z/2 + Z/4', '0')
    """

    __slots__ = ("free_rank", "torsion", "ngens")

    def __init__(self, free_rank: int, torsion: Sequence[int] = ()):
        free_rank = _integer(free_rank, "free rank")
        if free_rank < 0:
            raise ValueError("negative free rank")
        tor = _ints(torsion, "invariant factor")
        for d in tor:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(tor, tor[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors {tor} violate divisibility")
        self.free_rank = free_rank
        self.torsion = tor
        self.ngens = free_rank + len(tor)

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

    @property
    def is_trivial(self) -> bool:
        return self.ngens == 0

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> Optional[int]:
        if not self.is_finite:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def zero(self) -> Tuple[int, ...]:
        return (0,) * self.ngens

    def reduce(self, vec: Sequence[int]) -> Tuple[int, ...]:
        """Canonical coordinates: ints, torsion coordinates in [0, d_i).

        Raises TypeError on a float and ValueError on a non-integral
        Fraction or a wrong length.
        """
        vec = _ints(vec)
        if len(vec) != self.ngens:
            raise ValueError(f"coordinate length {len(vec)} != {self.ngens}")
        return self._wrap(vec)

    def _wrap(self, vec: Tuple[int, ...]) -> Tuple[int, ...]:
        """Canonical coordinates of a tuple of ints of the right length."""
        if not self.torsion:
            return vec
        f = self.free_rank
        return vec[:f] + tuple(map(mod, vec[f:], self.torsion))

    def add(self, a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
        return self.reduce([x + y for x, y in zip(a, b)])

    def generators(self) -> list:
        return [tuple(1 if i == j else 0 for j in range(self.ngens)) for i in range(self.ngens)]

    def relation_matrix(self) -> RationalMatrix:
        """Columns generate the relation lattice of the presentation."""
        cols = []
        for i, d in enumerate(self.torsion):
            col = [0] * self.ngens
            col[self.free_rank + i] = d
            cols.append(col)
        return RationalMatrix.from_columns(cols, nrows=self.ngens)

    def elements(self) -> Iterable[Tuple[int, ...]]:
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        def rec(i: int, prefix: Tuple[int, ...]):
            if i == len(self.torsion):
                yield prefix
                return
            for x in range(self.torsion[i]):
                yield from rec(i + 1, prefix + (x,))
        yield from rec(0, ())

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, FgAbGroup)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __hash__(self) -> int:
        return hash((self.free_rank, self.torsion))

    def __repr__(self) -> str:
        return f"FgAbGroup({self.free_rank}, {self.torsion!r})"

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


_UNKNOWN = object()   # an inverse or split not yet computed; None means "none exists"


class AbHom:
    """Homomorphism of finitely generated abelian groups.

    The matrix has shape (codomain.ngens, domain.ngens) and acts on
    coordinate columns: h(x) = M @ x, reduced in the codomain.  The
    constructor checks that the entries are integers (ValueError otherwise)
    and that torsion relations are respected; composites, sums, negatives
    and identities are homs by construction and skip both checks.  `images`
    is the table of character images that `chargroup.edge_image` keeps for
    this hom.

    >>> z = FgAbGroup.free(1); z2 = FgAbGroup(0, (2,))
    >>> mod2 = AbHom(z, z2, RationalMatrix([[1]]))
    >>> mod2.apply((5,))
    (1,)
    """

    __slots__ = ("domain", "codomain", "matrix", "images", "_graph", "_inverse", "_split")

    def __init__(self, domain: FgAbGroup, codomain: FgAbGroup, matrix):
        if not isinstance(matrix, RationalMatrix):
            matrix = RationalMatrix(matrix, ncols=domain.ngens)
        if matrix.shape != (codomain.ngens, domain.ngens):
            raise ValueError(
                f"matrix shape {matrix.shape} != ({codomain.ngens}, {domain.ngens})"
            )
        _require_integral(matrix)
        for j, d in enumerate(domain.torsion, domain.free_rank):
            if any(codomain.reduce([d * x for x in matrix.column(j)])):
                raise ValueError(f"matrix does not respect torsion relation {d} on generator {j}")
        self._bind(domain, codomain, matrix)

    def _bind(self, domain: FgAbGroup, codomain: FgAbGroup, matrix: RationalMatrix) -> None:
        # reduction into the codomain is the identity on ints without torsion
        if codomain.torsion:
            cols = [codomain._wrap(c) for c in matrix.columns()]
            matrix = RationalMatrix.from_columns(cols, nrows=codomain.ngens)
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self.images: dict = {}
        self._graph = None
        self._inverse = _UNKNOWN
        self._split = _UNKNOWN

    @classmethod
    def _of(cls, domain: FgAbGroup, codomain: FgAbGroup, matrix: RationalMatrix) -> "AbHom":
        """Wrap an integral matrix that respects the torsion relations (a derived hom)."""
        hom = object.__new__(cls)
        hom._bind(domain, codomain, matrix)
        return hom

    @classmethod
    def identity(cls, group: FgAbGroup) -> "AbHom":
        return cls._of(group, group, RationalMatrix.identity(group.ngens))

    @classmethod
    def from_columns(cls, domain: FgAbGroup, codomain: FgAbGroup, columns: Sequence[Sequence[int]]) -> "AbHom":
        return cls(domain, codomain, RationalMatrix.from_columns(columns, nrows=codomain.ngens))

    def apply(self, vec: Sequence[int]) -> Tuple[int, ...]:
        return self.codomain._wrap(_int_apply(self.matrix.sparse_rows(), self.domain.reduce(vec)))

    def compose(self, inner: "AbHom") -> "AbHom":
        """self o inner."""
        if inner.codomain != self.domain:
            raise ValueError("composition domain mismatch")
        return AbHom._of(inner.domain, self.codomain, self.matrix @ inner.matrix)

    def __matmul__(self, inner: "AbHom") -> "AbHom":
        return self.compose(inner)

    def __add__(self, other: "AbHom") -> "AbHom":
        if (self.domain, self.codomain) != (other.domain, other.codomain):
            raise ValueError("hom addition mismatch")
        return AbHom._of(self.domain, self.codomain, self.matrix + other.matrix)

    def __sub__(self, other: "AbHom") -> "AbHom":
        return self + (-other)

    def __neg__(self) -> "AbHom":
        return AbHom._of(self.domain, self.codomain, -self.matrix)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AbHom)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, self.matrix))

    def __repr__(self) -> str:
        return f"AbHom({self.domain} -> {self.codomain}, {self.matrix.to_lists()!r})"

    # -- lattice plumbing ---------------------------------------------------

    def _graph_data(self) -> Tuple[SmithDecomposition, tuple, Lattice]:
        """The graph [M | rel] decomposed once: (decomposition, basis, lattice).

        The basis spans {x in Z^n : M x lies in the codomain relation
        lattice}, read off the kernel columns of the decomposition, and the
        lattice is the one it spans.
        """
        if self._graph is None:
            dec = smith_normal_form(_hstack(self.matrix, self.codomain.relation_matrix()))
            n = self.domain.ngens
            basis = tuple(k[:n] for k in dec.kernel_basis())
            self._graph = (dec, basis, Lattice(n, basis))
        return self._graph

    def _graph_lattice_basis(self) -> tuple:
        """Basis of {x in Z^n : M x lies in the codomain relation lattice}."""
        return self._graph_data()[1]

    def kernel_lattice(self) -> Lattice:
        return self._graph_data()[2]

    def image_lattice(self) -> Lattice:
        cols = list(self.matrix.columns()) + list(self.codomain.relation_matrix().columns())
        return Lattice(self.codomain.ngens, cols)

    # -- derived groups ------------------------------------------------------

    def kernel(self) -> Tuple[FgAbGroup, "AbHom"]:
        """(K, inclusion) with inclusion : K -> domain onto ker(self)."""
        group, gens, _ = _lattice_quotient(
            self.domain.ngens,
            self._graph_lattice_basis(),
            list(self.domain.relation_matrix().columns()),
        )
        incl = AbHom.from_columns(group, self.domain, [self.domain.reduce(g) for g in gens])
        return group, incl

    def image(self) -> Tuple[FgAbGroup, "AbHom"]:
        """(I, inclusion) with inclusion : I -> codomain onto im(self)."""
        big = list(self.matrix.columns()) + list(self.codomain.relation_matrix().columns())
        group, gens, _ = _lattice_quotient(
            self.codomain.ngens,
            big,
            list(self.codomain.relation_matrix().columns()),
        )
        incl = AbHom.from_columns(group, self.codomain, [self.codomain.reduce(g) for g in gens])
        return group, incl

    def cokernel(self) -> Tuple[FgAbGroup, "AbHom"]:
        """(C, projection) with projection : codomain -> C."""
        m = self.codomain.ngens
        big = [tuple(1 if i == j else 0 for i in range(m)) for j in range(m)]
        small = list(self.matrix.columns()) + list(self.codomain.relation_matrix().columns())
        group, _, project = _lattice_quotient(m, big, small)
        cols = [project(e) for e in big]
        proj = AbHom.from_columns(self.codomain, group, cols)
        return group, proj

    def is_surjective(self) -> bool:
        """Whether M and the codomain relations span Z^m: m unit invariant factors."""
        diag = self._graph_data()[0].diagonal()
        return sum(1 for d in diag if d == 1) == self.codomain.ngens

    def is_injective(self) -> bool:
        """Whether the graph lattice is just the domain's relation lattice."""
        return not any(any(self.domain.reduce(b)) for b in self._graph_lattice_basis())

    def inverse(self) -> Optional["AbHom"]:
        """Two-sided inverse hom, or None when not an isomorphism."""
        if self._inverse is _UNKNOWN:
            self._inverse = self._compute_inverse()
        return self._inverse

    def _compute_inverse(self) -> Optional["AbHom"]:
        if not (self.is_surjective() and self.is_injective()):
            return None
        cols = [self.preimage_representative(e) for e in self.codomain.generators()]
        inv = AbHom.from_columns(self.codomain, self.domain, cols)
        if (self @ inv) != AbHom.identity(self.codomain):
            return None
        if (inv @ self) != AbHom.identity(self.domain):
            return None
        return inv

    def preimage_representative(self, y: Sequence[int]) -> Tuple[int, ...]:
        """Canonical x with self(x) = y; raises ValueError when y is not hit.

        The representative is the Hermite-reduced one: any particular
        solution is reduced modulo the full preimage-of-zero lattice with
        pivots taken from the last coordinate upward.

        >>> z2 = FgAbGroup.free(2); z = FgAbGroup.free(1)
        >>> h = AbHom(z2, z, RationalMatrix([[2, 3]]))
        >>> h.preimage_representative((1,))
        (-1, 1)
        """
        dec, _, lat = self._graph_data()
        sol = dec.solve(self.codomain.reduce(y))
        if sol is None:
            raise ValueError(f"{tuple(y)} is not in the image")
        return self.domain.reduce(lat.reduce(sol[: self.domain.ngens]))

    def try_split(self) -> Optional["AbHom"]:
        """Homomorphic section s with self o s = id, or None.

        Sections are built generator by generator; a torsion generator of
        order d needs a preimage killed by d, which is an integer solvability
        condition.  Absence is definitive.

        >>> z = FgAbGroup.free(1); z2t = FgAbGroup(0, (2,))
        >>> AbHom(z, z2t, RationalMatrix([[1]])).try_split() is None
        True
        >>> h = AbHom(FgAbGroup.free(2), z, RationalMatrix([[2, 3]]))
        >>> h.try_split().matrix.to_lists()
        [[-1], [1]]
        """
        if not self.is_surjective():
            raise ValueError("try_split requires a surjective homomorphism")
        if self._split is _UNKNOWN:
            self._split = self._compute_split()
        return self._split

    def _compute_split(self) -> Optional["AbHom"]:
        n = self.domain.ngens
        cod = self.codomain
        rel_dom = self.domain.relation_matrix()
        graph = self._graph_lattice_basis()
        cols = []
        for i, e in enumerate(cod.generators()):
            x = list(self.preimage_representative(e))
            if i >= cod.free_rank:
                d = cod.torsion[i - cod.free_rank]
                # Need x' = x + (graph combo) with d * x' in the domain
                # relation lattice.
                gmat = RationalMatrix.from_columns(graph, nrows=n)
                block_dec = smith_normal_form(_hstack(d * gmat, rel_dom))
                sol = block_dec.solve([-d * xi for xi in x])
                if sol is None:
                    return None
                g_rows = gmat.sparse_rows()
                corr = _int_apply(g_rows, sol[: len(graph)])
                x = [xi + ci for xi, ci in zip(x, corr)]
                # Deterministic representative: reduce modulo the lattice of
                # valid corrections {v in graph-lattice : d*v in relations}.
                cond_rows = [_int_apply(g_rows, k[: len(graph)]) for k in block_dec.kernel_basis()]
                x = list(Lattice(n, cond_rows).reduce(x))
            cols.append(self.domain.reduce(x))
        sec = AbHom.from_columns(cod, self.domain, cols)
        if (self @ sec) != AbHom.identity(cod):
            return None
        return sec


def _lattice_quotient(ambient: int, big_gens: Sequence[Sequence[int]], small_gens: Sequence[Sequence[int]]):
    """Quotient of the lattice spanned by big_gens by the span of small_gens.

    Returns (group, generator_vectors, project) where generator_vectors are
    ambient representatives of the group generators (free generators first)
    and project maps an ambient vector of the big lattice to canonical group
    coordinates.
    """
    big_rows = row_hermite_form(big_gens, ambient)
    k = len(big_rows)

    def in_basis(vec: Sequence[int]) -> list:
        coeffs, rem = lattice_reduce(big_rows, vec)
        if any(rem):
            raise ValueError("vector not in the big lattice")
        return coeffs

    dec = smith_normal_form(
        RationalMatrix.from_columns([in_basis(sg) for sg in small_gens], nrows=k)
    )
    diag = dec.diagonal()
    # u is unimodular, so the Hermite form of [u | I] is [I | u^-1]; group
    # generator i is column i of u^-1 in the basis big_rows
    inverse = row_hermite_form(_hstack(dec.u, RationalMatrix.identity(k)).to_lists(), k)
    uinv = RationalMatrix([r[k:] for r in inverse], ncols=k)
    gens = uinv.transpose() @ RationalMatrix(big_rows, ncols=ambient)

    free_idx = [i for i in range(k) if (i >= len(diag) or diag[i] == 0)]
    tors_idx = [i for i in range(k) if i < len(diag) and diag[i] >= 2]
    invariants = [diag[i] for i in tors_idx]
    group = FgAbGroup(len(free_idx), invariants)

    gen_vectors = [gens.row(i) for i in free_idx + tors_idx]

    def project(vec: Sequence[int]) -> Tuple[int, ...]:
        xb = in_basis(vec)
        y = _int_apply(dec.u.sparse_rows(), xb)
        coords = [y[i] for i in free_idx] + [y[i] for i in tors_idx]
        return group.reduce(coords)

    return group, gen_vectors, project


# -- module-level operations ----------------------------------------------


def is_exact_at(f: AbHom, g: AbHom) -> bool:
    """Whether im(f) = ker(g) as subgroups of the shared middle group.

    >>> z = FgAbGroup.free(1); z2 = FgAbGroup(0, (2,))
    >>> is_exact_at(AbHom(z, z, RationalMatrix([[2]])),
    ...             AbHom(z, z2, RationalMatrix([[1]])))
    True
    """
    if f.codomain != g.domain:
        raise ValueError("is_exact_at needs codomain(f) == domain(g)")
    return f.image_lattice() == g.kernel_lattice()
