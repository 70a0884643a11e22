"""Pontryagin-dual bookkeeping: subgroups given by dual surjections.

A closed subgroup B of the acting group G never appears directly; it is
presented by the restriction surjection r : G-hat -> B-hat.  The characters
of G/B form the kernel of r ("kernel lattice").  Splittings of r need not
exist as homomorphisms (Z/2 inside U(1) is the standard failure), so
sections are tabulated set-theoretic maps with a canonical
coset-representative rule; everything downstream is built to be independent
of the choice of section.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .fgab import AbHom, FgAbGroup, IntegerMatrix, Lattice, row_hermite_form, smith_normal_form

DualGroup = FgAbGroup


class Character:
    """Element of a dual group, stored in canonical coordinates."""

    __slots__ = ("group", "coords")

    def __init__(self, group: FgAbGroup, coords: Sequence[int]):
        self.group = group
        self.coords = group.reduce(coords)

    def __add__(self, other: "Character") -> "Character":
        self._check(other)
        return Character(self.group, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Character") -> "Character":
        self._check(other)
        return Character(self.group, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "Character":
        return Character(self.group, [-a for a in self.coords])

    def scale(self, n: int) -> "Character":
        return Character(self.group, [n * a for a in self.coords])

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    def _check(self, other: "Character") -> None:
        if self.group != other.group:
            raise ValueError("characters of different groups")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Character)
            and self.group == other.group
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.group, self.coords))

    def __lt__(self, other: "Character") -> bool:
        self._check(other)
        return self.coords < other.coords

    def __repr__(self) -> str:
        return f"Character{self.coords}"


def _free_kernel_lattice(restriction: AbHom) -> Lattice:
    """The kernel of a dual restriction, checked free and inside the free coordinates.

    The kernel is the restriction's graph lattice L = {x : M x in the target
    relations}, which its one graph decomposition already holds, modulo the
    ambient torsion relations R.  It has torsion exactly when L has more
    vectors with zero free part than R, and lies in the free part exactly
    when every vector of L has torsion coordinates in R; it is then the
    lattice of the free parts of L.
    """
    ambient = restriction.domain
    f = ambient.free_rank
    # echelon form pivoting on the free coordinates first: its rows with no
    # free entry span the vectors of L with zero free part
    graph = restriction.kernel_lattice().basis()
    echelon = [tuple(row) for row in row_hermite_form(graph, ambient.ngens)]
    relations = [
        tuple(d if i == j else 0 for j in range(len(ambient.torsion)))
        for i, d in enumerate(ambient.torsion)
    ]
    if [row[f:] for row in echelon if not any(row[:f])] != relations:
        raise ValueError(
            "kernel of the restriction has torsion; a free kernel lattice is required"
        )
    if any(x % d for row in echelon for x, d in zip(row[f:], ambient.torsion)):
        raise ValueError(
            "kernel lattice is not contained in the free part of the ambient dual"
        )
    return Lattice(ambient.ngens, [row[:f] + (0,) * len(ambient.torsion) for row in echelon])


class SubgroupDatum:
    """A closed subgroup presented by its dual surjection.

    Validates on construction: the restriction must be surjective, and its
    kernel must be a free lattice sitting inside the free coordinates of the
    ambient dual (torsion kernel directions carry no shift bookkeeping and
    are rejected).  The stored kernel basis fixes the order that shift
    operators refer to; if none is supplied, the canonical Hermite basis is
    used.
    """

    __slots__ = ("ambient", "restriction", "kernel_basis", "lattice", "_kernel_dec")

    def __init__(self, restriction: AbHom, kernel_basis: Optional[Sequence[Sequence[int]]] = None):
        ambient = restriction.domain
        if not restriction.is_surjective():
            raise ValueError("restriction to the subgroup dual is not surjective")
        lattice = _free_kernel_lattice(restriction)
        if kernel_basis is None:
            basis = lattice.basis()
        else:
            basis = [tuple(int(x) for x in b) for b in kernel_basis]
            if len(basis) != lattice.rank:
                raise ValueError(
                    f"kernel basis has {len(basis)} elements, kernel rank is {lattice.rank}"
                )
            if Lattice(ambient.ngens, basis) != lattice:
                raise ValueError("supplied kernel basis does not span the kernel lattice")
        self.ambient = ambient
        self.restriction = restriction
        self.kernel_basis = tuple(Character(ambient, b) for b in basis)
        self.lattice = lattice
        self._kernel_dec = smith_normal_form(
            IntegerMatrix.from_columns([list(b.coords) for b in self.kernel_basis], nrows=ambient.ngens)
        )

    @property
    def target(self) -> FgAbGroup:
        return self.restriction.codomain

    @property
    def kernel_rank(self) -> int:
        return len(self.kernel_basis)

    def restrict(self, ghat: Character) -> Character:
        return Character(self.target, self.restriction.apply(ghat.coords))

    def in_kernel(self, ghat: Character) -> bool:
        return self.lattice.contains(ghat.coords)

    def kernel_coordinates(self, ghat: Character) -> Tuple[int, ...]:
        """Integer coordinates of a kernel element in the stored basis."""
        sol = self._kernel_dec.solve(list(ghat.coords))
        if sol is None:
            raise ValueError(f"{ghat!r} is not in the kernel lattice")
        return sol

    def kernel_element(self, coeffs: Sequence[int]) -> Character:
        if len(coeffs) != self.kernel_rank:
            raise ValueError("coefficient length mismatch")
        acc = Character(self.ambient, self.ambient.zero())
        for c, b in zip(coeffs, self.kernel_basis):
            acc = acc + b.scale(c)
        return acc

    def canonical_representative(self, b: Character) -> Character:
        """The canonical lift of a target character to the ambient dual."""
        if b.group != self.target:
            raise ValueError("character is not in the subgroup dual")
        return Character(self.ambient, self.restriction.preimage_representative(b.coords))

    def __repr__(self) -> str:
        return f"SubgroupDatum({self.ambient} -> {self.target})"


# `SectionSystem` flag value: decide additivity of the table on first read
_ADDITIVE_IF_TABULATED = object()


class SectionSystem:
    """A tabulated set-theoretic section of a subgroup restriction.

    `homomorphic` records whether the table came from a homomorphic
    splitting (True), provably did not (False), or was not checked (None).
    """

    __slots__ = ("datum", "table", "_homomorphic")

    def __init__(
        self,
        datum: SubgroupDatum,
        table: Mapping[Character, Character],
        homomorphic: Optional[bool] = None,
    ):
        for b, ghat in table.items():
            if b.group != datum.target or ghat.group != datum.ambient:
                raise ValueError("section table has mismatched groups")
            if datum.restrict(ghat) != b:
                raise ValueError(f"table entry for {b!r} is not a lift (got {ghat!r})")
        self.datum = datum
        self.table = dict(table)
        self._homomorphic = homomorphic

    @property
    def homomorphic(self) -> Optional[bool]:
        if self._homomorphic is _ADDITIVE_IF_TABULATED:
            self._homomorphic = _table_additive(self.table)
        return self._homomorphic

    @property
    def support(self) -> Tuple[Character, ...]:
        return tuple(sorted(self.table, key=lambda c: c.coords))

    def __call__(self, b: Character) -> Character:
        try:
            return self.table[b]
        except KeyError:
            raise ValueError(f"character {b!r} is outside the tabulated section support")

    def __repr__(self) -> str:
        entries = ", ".join(f"{b.coords}->{g.coords}" for b, g in sorted(
            self.table.items(), key=lambda kv: kv[0].coords))
        return f"SectionSystem({entries})"


def lift(datum: SubgroupDatum, section: Optional[SectionSystem], b: Character) -> Character:
    """Lift of a subgroup character: the section's if given, else canonical."""
    if section is None:
        return datum.canonical_representative(b)
    return section(b)


def lift_offset(
    datum: SubgroupDatum, section: Optional[SectionSystem], b: Character, ghat: Character
) -> Tuple[Character, Tuple[int, ...]]:
    """The twisting law: where an entry at `ghat` over `b` moves, and its twist.

    An entry at the ambient character `ghat`, filed over the subgroup
    character `b`, is moved to the lift of `b` and twisted there by the
    kernel element between them.  Returns that lift and the kernel
    coordinates of `ghat` minus it; the twist itself is exp(L(h)) on
    cochains and sigma(h) on K-classes.
    """
    rep = lift(datum, section, b)
    return rep, datum.kernel_coordinates(ghat - rep)


def edge_image(edge: AbHom, b: Character) -> Character:
    """Image of a deep subgroup character under an edge restriction."""
    return Character(edge.codomain, edge.apply(b.coords))


def _table_additive(table: Mapping[Character, Character]) -> bool:
    """Whether tabulated lifts respect addition wherever it stays tabulated."""
    for b1, g1 in table.items():
        if b1.is_zero() and not g1.is_zero():
            return False
        for b2, g2 in table.items():
            s = b1 + b2
            if s in table and table[s] != g1 + g2:
                return False
    return True


def section(datum: SubgroupDatum, support: Iterable) -> SectionSystem:
    """Canonical section over a finite support set of target characters.

    The `homomorphic` flag is False when no homomorphic splitting exists at
    all (that absence is decided exactly), and otherwise records whether the
    tabulated entries are additive wherever sums stay inside the support;
    that quadratic check runs on the first read of the flag, not here.
    """
    table: Dict[Character, Character] = {}
    for b in support:
        if not isinstance(b, Character):
            b = Character(datum.target, b)
        table[b] = datum.canonical_representative(b)
    split = datum.restriction.try_split()
    homomorphic = False if split is None else _ADDITIVE_IF_TABULATED
    return SectionSystem(datum, table, homomorphic)


def offset_section(base: SectionSystem, offsets: Mapping[Character, Sequence[int]]) -> SectionSystem:
    """New section differing from `base` by kernel elements.

    `offsets` maps target characters to integer coefficient vectors in the
    kernel basis; unlisted characters keep their base lift.
    """
    datum = base.datum
    table = dict(base.table)
    for b, coeffs in offsets.items():
        if b not in table:
            raise ValueError(f"offset for {b!r} outside the section support")
        table[b] = table[b] + datum.kernel_element(coeffs)
    return SectionSystem(datum, table, None)


def fiber_support(
    edge: AbHom, support: Iterable[Character]
) -> Dict[Character, Tuple[Character, ...]]:
    """Partition a finite support by the value of an edge restriction.

    `edge` maps the deeper subgroup dual onto the shallower one; the result
    maps each hit target character to the tuple of support characters above
    it (input order preserved, keys sorted).
    """
    fibers: Dict[Character, List[Character]] = {}
    for b in support:
        if b.group != edge.domain:
            raise ValueError("support character not in the edge domain")
        fibers.setdefault(edge_image(edge, b), []).append(b)
    return {k: tuple(fibers[k]) for k in sorted(fibers, key=lambda c: c.coords)}


def edge_restriction(shallow: SubgroupDatum, deep: SubgroupDatum) -> AbHom:
    """The unique map e with e o r_deep = r_shallow (needs nested kernels)."""
    if shallow.ambient != deep.ambient:
        raise ValueError("subgroup data have different ambient duals")
    if not deep.lattice.is_sublattice_of(shallow.lattice):
        raise ValueError("kernel lattices are not nested (deep inside shallow)")
    cols = []
    for g in deep.target.generators():
        x = deep.restriction.preimage_representative(g)
        cols.append(shallow.restriction.apply(x))
    edge = AbHom.from_columns(deep.target, shallow.target, cols)
    if (edge @ deep.restriction) != shallow.restriction:
        raise ValueError("edge restriction is not well-defined")
    return edge
