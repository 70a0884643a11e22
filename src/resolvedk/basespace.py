"""Per-node quotient-space models: cochain complexes, shift data, K-data.

Each node of the isotropy tree carries a finite cochain complex over the
rationals standing in for twisted forms on the quotient, a family of
degree-two "shift" operators (cup products with first Chern classes of
descended character line bundles, one per kernel-lattice generator), and
exact integral K-groups with shift automorphisms.  Faces between comparable
nodes carry their own complex plus restriction and fibration-pullback maps,
whose compatibilities are validated here.

A node's K-data and its cochain model are the two coefficient systems of
`redbun`'s twisted tables (`Coefficients`); faces and corners expose each
system's restriction and pullback as a `TwistedMaps`.

All complexes are stored flat: one total coordinate space whose slots are
tagged with degrees, differentials and chain maps as single matrices.  That
keeps operators that mix degrees (exponentials of shifts) in the same
representation as everything else.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .fgab import AbHom, FgAbGroup
from .ratmat import Exact, RationalMatrix, exact, rank
from .report import ValidationReport


def _as_rational(matrix, nrows: int, ncols: int) -> RationalMatrix:
    if not isinstance(matrix, RationalMatrix):
        matrix = RationalMatrix(matrix, ncols=ncols)
    if matrix.shape != (nrows, ncols):
        raise ValueError(f"matrix shape {matrix.shape} != ({nrows}, {ncols})")
    return matrix


class CochainComplex:
    """Finite cochain complex over the rationals, stored flat.

    `dims[k]` is the dimension in degree k; the flat differential acts on
    the concatenation of all degrees and is built from the per-degree
    blocks d_k : degree k -> degree k+1.

    >>> interval = CochainComplex((2, 1), [[[-1, 1]]])
    >>> interval.cohomology()
    (1, 0)
    """

    __slots__ = ("dims", "slot_degrees", "d", "_offsets")

    def __init__(self, dims: Sequence[int], differentials: Sequence = ()):
        dims = tuple(int(n) for n in dims)
        if not dims or any(n < 0 for n in dims):
            raise ValueError("dimension vector must be nonempty and nonnegative")
        blocks = list(differentials)
        if len(blocks) not in (0, len(dims) - 1):
            raise ValueError(
                f"expected {len(dims) - 1} differential blocks, got {len(blocks)}"
            )
        offsets = [0]
        for n in dims:
            offsets.append(offsets[-1] + n)
        total = offsets[-1]
        slot_degrees = tuple(k for k, n in enumerate(dims) for _ in range(n))

        rows: List[Dict[int, Fraction]] = [{} for _ in range(total)]
        for k, block in enumerate(blocks):
            block = _as_rational(block, dims[k + 1], dims[k])
            for i, j, x in block.entries():
                rows[offsets[k + 1] + i][offsets[k] + j] = x
        self.dims = dims
        self.slot_degrees = slot_degrees
        self.d = RationalMatrix.from_row_maps(rows, total)
        self._offsets = tuple(offsets)

    @classmethod
    def point(cls) -> "CochainComplex":
        return cls((1,))

    @property
    def total_dim(self) -> int:
        return self._offsets[-1]

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def degree_slots(self, k: int) -> range:
        if not 0 <= k <= self.top_degree:
            return range(0)
        return range(self._offsets[k], self._offsets[k + 1])

    def parity_slots(self, parity: int) -> List[int]:
        return [i for i, g in enumerate(self.slot_degrees) if g % 2 == parity % 2]

    def differential_block(self, k: int) -> RationalMatrix:
        """d_k as a dims[k+1] x dims[k] matrix."""
        return self.d.submatrix(self.degree_slots(k + 1), self.degree_slots(k))

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        dd = self.d @ self.d
        bad = sorted({self.slot_degrees[j] for _, j, _ in dd.entries()})
        rep.add(
            "differential squares to zero",
            not bad,
            "" if not bad else "fails starting in degree " + ", ".join(map(str, bad)),
        )
        return rep

    def cohomology(self) -> Tuple[int, ...]:
        """Per-degree cohomology dimensions (exact rational ranks)."""
        self.validate().raise_if_failed("cochain complex")
        out = []
        prev_rank = 0
        for k in range(len(self.dims)):
            dk = self.differential_block(k) if k < self.top_degree else RationalMatrix.zeros(0, self.dims[k])
            rk = rank(dk)
            out.append(self.dims[k] - rk - prev_rank)
            prev_rank = rk
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CochainComplex)
            and self.dims == other.dims
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.dims, self.d))

    def __repr__(self) -> str:
        return f"CochainComplex(dims={self.dims})"


class ChainMap:
    """Degree-homogeneous linear map between flat complexes.

    The matrix acts on total coordinates; a nonzero entry must connect a
    source slot of degree k to a target slot of degree k + `degree`.
    Commutation with the differentials is a separate check so that
    validators can report rather than raise.
    """

    __slots__ = ("source", "target", "matrix", "degree")

    def __init__(self, source: CochainComplex, target: CochainComplex, matrix, degree: int = 0):
        matrix = _as_rational(matrix, target.total_dim, source.total_dim)
        for i, j, _ in matrix.entries():
            if target.slot_degrees[i] != source.slot_degrees[j] + degree:
                raise ValueError(
                    f"entry ({i},{j}) maps degree {source.slot_degrees[j]} "
                    f"into degree {target.slot_degrees[i]}, not +{degree}"
                )
        self.source = source
        self.target = target
        self.matrix = matrix
        self.degree = degree

    @classmethod
    def identity(cls, complex_: CochainComplex) -> "ChainMap":
        return cls(complex_, complex_, RationalMatrix.identity(complex_.total_dim))

    @classmethod
    def zero(cls, source: CochainComplex, target: CochainComplex, degree: int = 0) -> "ChainMap":
        return cls(source, target, RationalMatrix.zeros(target.total_dim, source.total_dim), degree)

    @classmethod
    def from_blocks(
        cls,
        source: CochainComplex,
        target: CochainComplex,
        blocks: Mapping[int, Sequence],
        degree: int = 0,
    ) -> "ChainMap":
        """Assemble from per-degree blocks {k: matrix degree k -> k+degree}."""
        rows: List[Dict[int, Fraction]] = [{} for _ in range(target.total_dim)]
        for k, block in blocks.items():
            src = source.degree_slots(k)
            tgt = target.degree_slots(k + degree)
            block = _as_rational(block, len(tgt), len(src))
            for i, j, x in block.entries():
                rows[tgt[i]][src[j]] = x
        return cls(source, target, RationalMatrix.from_row_maps(rows, source.total_dim), degree)

    def commutes_with_differentials(self) -> bool:
        return self.target.d @ self.matrix == self.matrix @ self.source.d

    def apply(self, vec: Sequence) -> Tuple[Fraction, ...]:
        return self.matrix.apply(vec)

    def compose(self, inner: "ChainMap") -> "ChainMap":
        if inner.target != self.source:
            raise ValueError("chain map composition mismatch")
        return ChainMap(
            inner.source, self.target, self.matrix @ inner.matrix, self.degree + inner.degree
        )

    def __matmul__(self, inner: "ChainMap") -> "ChainMap":
        return self.compose(inner)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ChainMap)
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.matrix))

    def __repr__(self) -> str:
        return f"ChainMap({self.source.dims} -> {self.target.dims}, degree {self.degree})"


def shift_for_character(
    shifts: Sequence[ChainMap], coeffs: Sequence[int], dim: int
) -> RationalMatrix:
    """Chain-level shift of a kernel character: L(h) = sum_i h_i L_i.

    First Chern classes are additive in the character, so the degree-two
    operator for a general kernel element is the integer combination of the
    generator operators.  `dim` is the total dimension of the complex they
    act on; an empty family gives the zero operator.
    """
    if len(shifts) != len(coeffs):
        raise ValueError("one coefficient per shift operator required")
    acc = RationalMatrix.zeros(dim, dim)
    for c, op in zip(coeffs, shifts):
        if c:
            acc = acc + op.matrix * int(c)
    return acc


def sigma_for_character(
    sigmas: Sequence[AbHom], coeffs: Sequence[int], group: FgAbGroup
) -> AbHom:
    """K-level shift automorphism of a kernel character: product of powers.

    `group` is the K-group the automorphisms act on; an empty family gives
    the identity.
    """
    if len(sigmas) != len(coeffs):
        raise ValueError("one coefficient per shift automorphism required")
    acc = AbHom.identity(group)
    for c, auto in zip(coeffs, sigmas):
        c = int(c)
        if c < 0:
            inv = auto.inverse()
            if inv is None:
                raise ValueError("shift automorphism is not invertible")
            auto, c = inv, -c
        for _ in range(c):
            acc = auto @ acc
    return acc


def _exp_nilpotent(m: RationalMatrix) -> RationalMatrix:
    if m.nrows != m.ncols:
        raise ValueError("exponential of a non-square matrix")
    acc = RationalMatrix.identity(m.nrows)
    term = acc
    for k in range(1, m.nrows + 2):
        term = (term @ m) * Fraction(1, k)
        if term.is_zero():
            return acc
        acc = acc + term
    raise ValueError("operator is not nilpotent")


def ch_operator(shifts: Sequence[ChainMap], coeffs: Sequence[int], dim: int) -> RationalMatrix:
    """exp of the combined shift operator for integer kernel coordinates."""
    return _exp_nilpotent(shift_for_character(shifts, coeffs, dim))


class Coefficients:
    """A coefficient system: the values a twisted table holds at a character.

    `zero` is the zero value, `normalize` brings a raw value to canonical
    form (raising ValueError on a malformed one) and `add` sums two
    canonical values.  `twist(h)` is the operator of the twisting law for
    the kernel element with coordinates h: an entry x at rep + h is the
    entry twist(h)(x) at rep.  Operators have `apply` and compose with `@`;
    each is built once per coordinate tuple and kept.

    Two systems occur: K-classes over Z twisted by sigma(h) (`KData` is the
    one of its K0), and cochains over Q twisted by exp(L(h))
    (`NodeSpaceData` is the one of its complex).
    """

    __slots__ = ("zero", "normalize", "add", "_build", "_twists")

    def __init__(self, zero, normalize, add, build):
        self.zero = zero
        self.normalize = normalize
        self.add = add
        self._build = build
        self._twists: Dict[Tuple[int, ...], object] = {}

    def twist(self, coords: Sequence[int]):
        key = tuple(int(c) for c in coords)
        op = self._twists.get(key)
        if op is None:
            op = self._twists[key] = self._build(key)
        return op


def _classes(group: FgAbGroup, sigmas: Sequence[AbHom]) -> tuple:
    """Coefficient-system parts for classes of `group`, twisted by `sigmas`."""
    twist = partial(sigma_for_character, tuple(sigmas), group=group)
    return group.zero(), group.reduce, group.add, twist


def _cochains(complex_: CochainComplex, shifts: Sequence[ChainMap]) -> tuple:
    """Coefficient-system parts for cochains of `complex_`, twisted by exp(L(h))."""
    dim = complex_.total_dim

    def normalize(vec: Sequence) -> Tuple[Exact, ...]:
        vec = tuple(map(exact, vec))
        if len(vec) != dim:
            raise ValueError(f"cochain length {len(vec)} != {dim}")
        return vec

    def add(x: Sequence[Exact], y: Sequence[Exact]) -> Tuple[Exact, ...]:
        return tuple(exact(a + b) for a, b in zip(x, y))

    return (0,) * dim, normalize, add, partial(ch_operator, tuple(shifts), dim=dim)


class KData(Coefficients):
    """Integral K-groups of a node with shift automorphisms.

    `sigma0[i]` / `sigma1[i]` act on K0 / K1 for the i-th kernel-lattice
    generator; `dim_hom` is the rank homomorphism K0 -> Z.  A KData is the
    coefficient system of K0 classes, so `twist(h)` is the shift
    automorphism of a kernel element on K0; `odd` is the one of K1.
    """

    __slots__ = ("k0", "k1", "sigma0", "sigma1", "dim_hom", "odd")

    def __init__(
        self,
        k0: FgAbGroup,
        k1: FgAbGroup,
        sigma0: Sequence[AbHom],
        sigma1: Sequence[AbHom],
        dim_hom: AbHom,
    ):
        for auto in sigma0:
            if auto.domain != k0 or auto.codomain != k0:
                raise ValueError("sigma0 entries must be endomorphisms of K0")
        for auto in sigma1:
            if auto.domain != k1 or auto.codomain != k1:
                raise ValueError("sigma1 entries must be endomorphisms of K1")
        if len(sigma0) != len(sigma1):
            raise ValueError("sigma0 and sigma1 need one entry per kernel generator")
        if dim_hom.domain != k0 or dim_hom.codomain != FgAbGroup.free(1):
            raise ValueError("dimension homomorphism must map K0 to Z")
        self.k0 = k0
        self.k1 = k1
        self.sigma0 = tuple(sigma0)
        self.sigma1 = tuple(sigma1)
        self.dim_hom = dim_hom
        super().__init__(*_classes(k0, self.sigma0))
        self.odd = Coefficients(*_classes(k1, self.sigma1))

    @classmethod
    def trivial_shifts(cls, k0: FgAbGroup, k1: FgAbGroup, dim_hom: AbHom, count: int) -> "KData":
        return cls(
            k0,
            k1,
            [AbHom.identity(k0) for _ in range(count)],
            [AbHom.identity(k1) for _ in range(count)],
            dim_hom,
        )

    @property
    def generator_count(self) -> int:
        return len(self.sigma0)

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        families = [("sigma0", self.sigma0), ("sigma1", self.sigma1)]
        for name, family in families:
            not_invertible = [i for i, a in enumerate(family) if a.inverse() is None]
            rep.add(
                f"{name} automorphisms invertible",
                not not_invertible,
                "" if not not_invertible else f"generators {not_invertible}",
            )
            clashes = [
                (i, j)
                for i in range(len(family))
                for j in range(i + 1, len(family))
                if family[i] @ family[j] != family[j] @ family[i]
            ]
            rep.add(
                f"{name} automorphisms commute",
                not clashes,
                "" if not clashes else f"pairs {clashes}",
            )
        bad_dim = [
            i for i, a in enumerate(self.sigma0) if self.dim_hom @ a != self.dim_hom
        ]
        rep.add(
            "shifts preserve the dimension homomorphism",
            not bad_dim,
            "" if not bad_dim else f"generators {bad_dim}",
        )
        return rep


class NodeSpaceData(Coefficients):
    """Everything attached to a single tree node.

    `shifts` holds one degree-two chain endomorphism per kernel-lattice
    generator of the node, in the order fixed by the node's SubgroupDatum.
    A NodeSpaceData is the coefficient system of the node's cochains, so
    `twist(h)` is exp(L(h)); `kdata` is the one of its K0 classes.
    """

    __slots__ = ("complex", "shifts", "kdata")

    def __init__(self, complex_: CochainComplex, shifts: Sequence[ChainMap], kdata: KData):
        for op in shifts:
            if op.source != complex_ or op.target != complex_:
                raise ValueError("shift operators must be endomorphisms of the node complex")
            if op.degree != 2:
                raise ValueError(f"shift operator has degree {op.degree}, expected 2")
        self.complex = complex_
        self.shifts = tuple(shifts)
        self.kdata = kdata
        super().__init__(*_cochains(complex_, self.shifts))


def validate_node(data: NodeSpaceData, kernel_rank: Optional[int] = None) -> ValidationReport:
    """All node-level invariants, reported rather than thrown."""
    rep = ValidationReport()
    rep.merge(data.complex.validate())
    stuck = [i for i, op in enumerate(data.shifts) if not op.commutes_with_differentials()]
    rep.add(
        "shift operators commute with d",
        not stuck,
        "" if not stuck else f"generators {stuck}",
    )
    clashes = [
        (i, j)
        for i in range(len(data.shifts))
        for j in range(i + 1, len(data.shifts))
        if data.shifts[i].matrix @ data.shifts[j].matrix
        != data.shifts[j].matrix @ data.shifts[i].matrix
    ]
    rep.add(
        "shift operators pairwise commute",
        not clashes,
        "" if not clashes else f"pairs {clashes}",
    )
    rep.merge(data.kdata.validate())
    if kernel_rank is not None:
        counts_ok = len(data.shifts) == kernel_rank and data.kdata.generator_count == kernel_rank
        rep.add(
            "one shift per kernel generator",
            counts_ok,
            ""
            if counts_ok
            else f"kernel rank {kernel_rank}, {len(data.shifts)} chain shifts, "
            f"{data.kdata.generator_count} K shifts",
        )
    return rep


class KPair:
    """K-group homomorphism in both degrees (K0 and K1 components)."""

    __slots__ = ("even", "odd")

    def __init__(self, even: AbHom, odd: AbHom):
        self.even = even
        self.odd = odd

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KPair) and self.even == other.even and self.odd == other.odd

    def __repr__(self) -> str:
        return f"KPair({self.even!r}, {self.odd!r})"


class TwistedMaps:
    """One coefficient system's side of a face or a corner.

    `coefficients` is the system of the face (or corner), `restriction`
    maps shallow values into it and `pullback` deep ones.  `pulled(h)` is
    twist(h) @ pullback, what the augmented pullback applies to a deep
    value at kernel offset h; each is built once per coordinate tuple.
    """

    __slots__ = ("coefficients", "restriction", "pullback", "_pulled")

    def __init__(self, coefficients: Coefficients, restriction, pullback):
        self.coefficients = coefficients
        self.restriction = restriction
        self.pullback = pullback
        self._pulled: Dict[Tuple[int, ...], object] = {}

    def pulled(self, coords: Tuple[int, ...]):
        op = self._pulled.get(coords)
        if op is None:
            op = self._pulled[coords] = self.coefficients.twist(coords) @ self.pullback
        return op


class FaceMaps:
    """Data of one boundary face between comparable nodes a < b.

    The face carries its own complex and node-style shift/K data indexed by
    the *shallow* node's kernel generators, a restriction chain map `rho`
    from the shallow node, and a fibration pullback `pullback` from the deep
    node, together with their K-group shadows.  `classes` and `forms` are
    the K0 and cochain sides of the face.
    """

    __slots__ = ("face", "rho", "pullback", "rho_k", "pullback_k", "classes", "forms")

    def __init__(
        self,
        face: NodeSpaceData,
        rho: ChainMap,
        pullback: ChainMap,
        rho_k: KPair,
        pullback_k: KPair,
    ):
        if rho.target != face.complex or pullback.target != face.complex:
            raise ValueError("face maps must land in the face complex")
        if rho.degree != 0 or pullback.degree != 0:
            raise ValueError("face maps must preserve degree")
        if rho_k.even.codomain != face.kdata.k0 or rho_k.odd.codomain != face.kdata.k1:
            raise ValueError("rho K-maps must land in the face K-groups")
        if pullback_k.even.codomain != face.kdata.k0 or pullback_k.odd.codomain != face.kdata.k1:
            raise ValueError("pullback K-maps must land in the face K-groups")
        self.face = face
        self.rho = rho
        self.pullback = pullback
        self.rho_k = rho_k
        self.pullback_k = pullback_k
        self.classes = TwistedMaps(face.kdata, rho_k.even, pullback_k.even)
        self.forms = TwistedMaps(face, rho.matrix, pullback.matrix)


def validate_face(
    face_maps: FaceMaps,
    shallow_datum,
    deep_datum,
    shallow: NodeSpaceData,
    deep: NodeSpaceData,
) -> ValidationReport:
    """Face invariants: chain maps, shift intertwining, K compatibility.

    `shallow_datum` / `deep_datum` are the SubgroupDatum objects of the two
    nodes; the deep node's kernel generators are re-expressed in the shallow
    node's kernel basis to state what the pullback must intertwine.
    """
    rep = ValidationReport()
    rep.merge(validate_node(face_maps.face, kernel_rank=shallow_datum.kernel_rank), prefix="face ")

    if face_maps.rho.source != shallow.complex:
        rep.add("rho source", False, "rho does not start at the shallow node complex")
        return rep
    if face_maps.pullback.source != deep.complex:
        rep.add("pullback source", False, "pullback does not start at the deep node complex")
        return rep

    rep.add("rho is a chain map", face_maps.rho.commutes_with_differentials())
    rep.add("pullback is a chain map", face_maps.pullback.commutes_with_differentials())

    bad = [
        i
        for i, (node_op, face_op) in enumerate(zip(shallow.shifts, face_maps.face.shifts))
        if face_maps.rho.matrix @ node_op.matrix != face_op.matrix @ face_maps.rho.matrix
    ]
    rep.add(
        "rho intertwines chain shifts",
        not bad,
        "" if not bad else f"generators {bad}",
    )
    bad0 = [
        i
        for i, (node_s, face_s) in enumerate(zip(shallow.kdata.sigma0, face_maps.face.kdata.sigma0))
        if face_maps.rho_k.even @ node_s != face_s @ face_maps.rho_k.even
    ]
    bad1 = [
        i
        for i, (node_s, face_s) in enumerate(zip(shallow.kdata.sigma1, face_maps.face.kdata.sigma1))
        if face_maps.rho_k.odd @ node_s != face_s @ face_maps.rho_k.odd
    ]
    rep.add(
        "rho intertwines K shifts",
        not bad0 and not bad1,
        "" if not (bad0 or bad1) else f"K0 generators {bad0}, K1 generators {bad1}",
    )

    # Pullback side: deep kernel generators, rewritten in the shallow basis.
    embed_ok = True
    coords: List[Tuple[int, ...]] = []
    for j, gen in enumerate(deep_datum.kernel_basis):
        try:
            coords.append(shallow_datum.kernel_coordinates(gen))
        except ValueError:
            rep.add(
                "deep kernel embeds in shallow kernel",
                False,
                f"generator {j} of the deep kernel is outside the shallow lattice",
            )
            embed_ok = False
            break
    if embed_ok:
        bad_chain = []
        bad_k = []
        for j, h in enumerate(coords):
            face_l = shift_for_character(
                face_maps.face.shifts, h, face_maps.face.complex.total_dim
            )
            if (
                face_maps.pullback.matrix @ deep.shifts[j].matrix
                != face_l @ face_maps.pullback.matrix
            ):
                bad_chain.append(j)
            if (
                face_maps.pullback_k.even @ deep.kdata.sigma0[j]
                != face_maps.face.kdata.twist(h) @ face_maps.pullback_k.even
            ) or (
                face_maps.pullback_k.odd @ deep.kdata.sigma1[j]
                != face_maps.face.kdata.odd.twist(h) @ face_maps.pullback_k.odd
            ):
                bad_k.append(j)
        rep.add(
            "pullback intertwines chain shifts",
            not bad_chain,
            "" if not bad_chain else f"deep generators {bad_chain}",
        )
        rep.add(
            "pullback intertwines K shifts",
            not bad_k,
            "" if not bad_k else f"deep generators {bad_k}",
        )
    return rep


class CornerData:
    """Supplied maps from the three faces of a declared chain a < b < c.

    `into_ab` and `into_ag` restrict the faces (a,b) and (a,c) to the
    corner; `pull_bg` pulls the face (b,c) back to it.  An optional K0
    block (`k0`, automorphisms `sigma0`, and the three K0 maps) enables the
    K-level factorization check.  `forms` and `classes` (None without the
    K0 block) are the cochain and K0 sides of the corner, restricting along
    `into_ag` and pulling back along `pull_bg`.
    """

    __slots__ = (
        "corner",
        "shifts",
        "into_ab",
        "into_ag",
        "pull_bg",
        "k0",
        "sigma0",
        "into_ab_k",
        "into_ag_k",
        "pull_bg_k",
        "forms",
        "classes",
    )

    def __init__(
        self,
        corner: CochainComplex,
        shifts: Sequence[ChainMap],
        into_ab: ChainMap,
        into_ag: ChainMap,
        pull_bg: ChainMap,
        k0: Optional[FgAbGroup] = None,
        sigma0: Sequence[AbHom] = (),
        into_ab_k: Optional[AbHom] = None,
        into_ag_k: Optional[AbHom] = None,
        pull_bg_k: Optional[AbHom] = None,
    ):
        for m in (into_ab, into_ag, pull_bg):
            if m.target != corner:
                raise ValueError("corner maps must land in the corner complex")
        for op in shifts:
            if op.source != corner or op.target != corner or op.degree != 2:
                raise ValueError("corner shifts must be degree-two endomorphisms")
        self.corner = corner
        self.shifts = tuple(shifts)
        self.into_ab = into_ab
        self.into_ag = into_ag
        self.pull_bg = pull_bg
        self.k0 = k0
        self.sigma0 = tuple(sigma0)
        self.into_ab_k = into_ab_k
        self.into_ag_k = into_ag_k
        self.pull_bg_k = pull_bg_k
        self.forms = TwistedMaps(
            Coefficients(*_cochains(corner, self.shifts)), into_ag.matrix, pull_bg.matrix
        )
        self.classes = None if k0 is None else TwistedMaps(
            Coefficients(*_classes(k0, self.sigma0)), into_ag_k, pull_bg_k
        )

    @property
    def has_k_level(self) -> bool:
        return self.k0 is not None


def validate_corner(
    corner: CornerData,
    face_ab: FaceMaps,
    face_ag: FaceMaps,
    face_bg: FaceMaps,
) -> ValidationReport:
    """Commutation of the corner square on a declared chain a < b < c."""
    rep = ValidationReport()
    rep.merge(corner.corner.validate(), prefix="corner ")

    wiring = [
        ("into_ab starts at face (a,b)", corner.into_ab.source == face_ab.face.complex),
        ("into_ag starts at face (a,c)", corner.into_ag.source == face_ag.face.complex),
        ("pull_bg starts at face (b,c)", corner.pull_bg.source == face_bg.face.complex),
    ]
    for name, ok in wiring:
        rep.add(name, ok)
    if not all(ok for _, ok in wiring):
        return rep

    for name, m in (
        ("into_ab", corner.into_ab),
        ("into_ag", corner.into_ag),
        ("pull_bg", corner.pull_bg),
    ):
        rep.add(f"{name} is a chain map", m.commutes_with_differentials())

    rep.add(
        "restrictions from the base node agree on the corner",
        corner.into_ab.matrix @ face_ab.rho.matrix
        == corner.into_ag.matrix @ face_ag.rho.matrix,
    )
    rep.add(
        "deep pullbacks agree on the corner",
        corner.into_ag.matrix @ face_ag.pullback.matrix
        == corner.pull_bg.matrix @ face_bg.pullback.matrix,
    )
    rep.add(
        "middle node routes agree on the corner",
        corner.into_ab.matrix @ face_ab.pullback.matrix
        == corner.pull_bg.matrix @ face_bg.rho.matrix,
    )

    if corner.has_k_level:
        have_maps = all(
            m is not None for m in (corner.into_ab_k, corner.into_ag_k, corner.pull_bg_k)
        )
        rep.add("corner K0 maps supplied", have_maps)
        if have_maps:
            rep.add(
                "K0 restrictions from the base node agree",
                corner.into_ab_k @ face_ab.rho_k.even == corner.into_ag_k @ face_ag.rho_k.even,
            )
            rep.add(
                "K0 deep pullbacks agree",
                corner.into_ag_k @ face_ag.pullback_k.even
                == corner.pull_bg_k @ face_bg.pullback_k.even,
            )
            rep.add(
                "K0 middle routes agree",
                corner.into_ab_k @ face_ab.pullback_k.even
                == corner.pull_bg_k @ face_bg.rho_k.even,
            )
    return rep
