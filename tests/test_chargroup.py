import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from resolvedk.chargroup import (
    Character,
    SectionSystem,
    SubgroupDatum,
    edge_restriction,
    fiber_support,
    lift_offset,
    offset_section,
    section,
)
from resolvedk.fgab import AbHom, FgAbGroup, IntegerMatrix, Lattice


Z = FgAbGroup.free(1)
Z2 = FgAbGroup.free(2)
C2 = FgAbGroup(0, (2,))


def mod2_datum():
    return SubgroupDatum(AbHom(Z, C2, [[1]]))


def slope_datum():
    # r(x, y) = 2x + 3y onto Z
    return SubgroupDatum(AbHom(Z2, Z, [[2, 3]]))


def test_character_arithmetic():
    a = Character(C2, (5,))
    b = Character(C2, (1,))
    assert a == b
    assert (a + b).is_zero()
    assert -a == a
    with pytest.raises(ValueError):
        a + Character(Z, (1,))


def test_kernel_lattice_mod2():
    datum = mod2_datum()
    (gen,) = datum.kernel_basis
    assert gen.coords == (2,)
    assert datum.in_kernel(Character(Z, (-4,)))
    assert not datum.in_kernel(Character(Z, (3,)))


def test_kernel_coordinates_roundtrip():
    datum = slope_datum()
    assert datum.kernel_rank == 1
    v = datum.kernel_basis[0]
    assert tuple(datum.restriction.apply(v.coords)) == (0,)
    coeffs = datum.kernel_coordinates(v.scale(-3))
    assert datum.kernel_element(coeffs) == v.scale(-3)
    with pytest.raises(ValueError):
        datum.kernel_coordinates(Character(Z2, (1, 0)))


def test_rejects_non_surjective():
    with pytest.raises(ValueError, match="not surjective"):
        SubgroupDatum(AbHom(Z, Z, [[2]]))


def test_rejects_torsion_kernel():
    proj = AbHom(FgAbGroup(1, (2,)), Z, [[1, 0]])
    with pytest.raises(ValueError, match="torsion"):
        SubgroupDatum(proj)


def test_rejects_kernel_outside_free_part():
    # r(x, t) = x + t in Z/2: kernel is generated by (1, 1), which is free
    # as a group but leans on the torsion coordinate.
    amb = FgAbGroup(1, (2,))
    r = AbHom(amb, C2, [[1, 1]])
    with pytest.raises(ValueError, match="free part"):
        SubgroupDatum(r)


def test_supplied_kernel_basis_checked():
    r = AbHom(Z2, Z, [[2, 3]])
    datum = SubgroupDatum(r, kernel_basis=[(-3, 2)])
    assert datum.kernel_basis[0].coords == (-3, 2)
    with pytest.raises(ValueError, match="does not span"):
        SubgroupDatum(r, kernel_basis=[(6, -4)])
    with pytest.raises(ValueError, match="kernel rank"):
        SubgroupDatum(r, kernel_basis=[(-3, 2), (3, -2)])


def test_canonical_section_mod2():
    datum = mod2_datum()
    sec = section(datum, [(0,), (1,)])
    assert sec(Character(C2, (0,))).coords == (0,)
    assert sec(Character(C2, (1,))).coords == (1,)
    # No homomorphic splitting of Z -> Z/2 exists, and that is decided.
    assert sec.homomorphic is False
    # (2,) reduces to (0,), which is tabulated
    assert sec(Character(C2, (2,))).coords == (0,)


def test_canonical_section_slope():
    datum = slope_datum()
    sec = section(datum, [Character(Z, (0,)), Character(Z, (1,))])
    assert sec(Character(Z, (1,))).coords == (-1, 1)
    assert sec(Character(Z, (0,))).coords == (0, 0)
    assert sec.homomorphic is True
    with pytest.raises(ValueError, match="outside the tabulated"):
        sec(Character(Z, (5,)))


def test_canonical_section_slope_breaks_additivity_on_larger_support():
    datum = slope_datum()
    sec = section(datum, [Character(Z, (k,)) for k in range(3)])
    # tau(1) + tau(1) = (-2, 2) but tau(2) = (1, 0): canonical lifts need
    # not be additive even when splittings exist.
    assert sec(Character(Z, (2,))).coords == (1, 0)
    assert sec.homomorphic is False


def test_section_checks_additivity_on_first_read_only(monkeypatch):
    from resolvedk import chargroup

    calls = []
    check = chargroup._table_additive
    monkeypatch.setattr(chargroup, "_table_additive", lambda table: calls.append(1) or check(table))
    sec = section(slope_datum(), [Character(Z, (k,)) for k in range(3)])
    assert calls == []
    assert sec.homomorphic is False and sec.homomorphic is False
    assert calls == [1]
    # without a splitting nothing is tabulated-checked at all
    assert section(mod2_datum(), [(0,), (1,)]).homomorphic is False
    assert calls == [1]


def test_offset_and_compare_sections():
    datum = mod2_datum()
    base = section(datum, [(0,), (1,)])
    moved = offset_section(base, {Character(C2, (1,)): (1,)})
    assert moved(Character(C2, (1,))).coords == (3,)
    diff = {b: moved(b) - base(b) for b in base.table}
    assert diff[Character(C2, (1,))].coords == (2,)
    assert diff[Character(C2, (0,))].is_zero()


def test_offset_section_rejects_unknown_support():
    datum = slope_datum()
    base = section(datum, [Character(Z, (0,))])
    with pytest.raises(ValueError, match="outside the section support"):
        offset_section(base, {Character(Z, (7,)): (1,)})


def test_lift_offset_decomposes():
    datum = mod2_datum()
    sec = section(datum, [(0,), (1,)])
    ghat = Character(Z, (5,))
    rep, coords = lift_offset(datum, sec, datum.restrict(ghat), ghat)
    assert rep.coords == (1,)
    assert datum.kernel_element(coords).coords == (4,)
    # without a section the canonical lift is used
    assert lift_offset(datum, None, Character(C2, (1,)), ghat) == (rep, coords)


def test_section_table_validated():
    datum = mod2_datum()
    with pytest.raises(ValueError, match="not a lift"):
        SectionSystem(datum, {Character(C2, (1,)): Character(Z, (2,))})


def test_fiber_support_partitions():
    edge = AbHom(Z, C2, [[1]])
    support = [Character(Z, (k,)) for k in (-1, 0, 1, 2)]
    fibers = fiber_support(edge, support)
    assert [c.coords for c in fibers[Character(C2, (0,))]] == [(0,), (2,)]
    assert [c.coords for c in fibers[Character(C2, (1,))]] == [(-1,), (1,)]
    total = sum(len(v) for v in fibers.values())
    assert total == len(support)


def test_edge_restriction_mod2():
    full = SubgroupDatum(AbHom(Z, Z, [[1]]))      # whole-group stabilizer
    half = SubgroupDatum(AbHom(Z, C2, [[1]]))     # order-two stabilizer
    edge = edge_restriction(half, full)
    assert edge.domain == Z and edge.codomain == C2
    assert tuple(edge.apply((1,))) == (1,)
    with pytest.raises(ValueError, match="not nested"):
        edge_restriction(full, half)


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_canonical_representative_is_coset_invariant(x, y):
    datum = slope_datum()
    b = Character(Z, (2 * x + 3 * y,))
    rep = datum.canonical_representative(b)
    assert datum.restrict(rep) == b
    # shifting b's preimage by kernel elements cannot change the canonical rep
    shifted = Character(Z2, (x + 3, y - 2))
    assert datum.restrict(shifted) == b
    again = datum.canonical_representative(datum.restrict(shifted))
    assert again == rep


# -- the free-kernel check against the kernel group ---------------------------------

KERNEL_SEEDS = range(40)
TORSION_CHOICES = ((), (2,), (3,), (2, 2), (2, 4))
TORSION_MESSAGE = "kernel of the restriction has torsion; a free kernel lattice is required"
FREE_PART_MESSAGE = "kernel lattice is not contained in the free part of the ambient dual"


def _surjection_with_torsion(seed):
    """A seeded surjective hom whose domain has torsion.

    A third of the draws map the domain torsion identically onto the same
    torsion in the target and the free part into the free part, so that
    free kernels inside the free part, the case `SubgroupDatum` accepts,
    occur often enough.
    """
    rng = random.Random(seed)
    while True:
        dom = FgAbGroup(rng.randint(1, 3), rng.choice(TORSION_CHOICES[1:]))
        injected = rng.random() < 1 / 3
        torsion = dom.torsion if injected else rng.choice(TORSION_CHOICES)
        cod = FgAbGroup(rng.randint(0, 2), torsion)
        rows = [[rng.randint(-3, 3) for _ in range(dom.ngens)] for _ in range(cod.ngens)]
        if injected:
            for i in range(len(torsion)):
                rows[cod.free_rank + i] = [int(j == dom.free_rank + i) for j in range(dom.ngens)]
        try:
            hom = AbHom(dom, cod, IntegerMatrix(rows, ncols=dom.ngens))
        except ValueError:
            continue  # does not respect the torsion relations
        if hom.is_surjective():
            return hom


def _kernel_reference(hom):
    """Outcome of the free-kernel check read off the kernel group and its inclusion."""
    ambient = hom.domain
    group, incl = hom.kernel()
    if group.torsion:
        return TORSION_MESSAGE
    cols = [incl.matrix.column(j) for j in range(incl.matrix.ncols)]
    if any(any(col[ambient.free_rank:]) for col in cols):
        return FREE_PART_MESSAGE
    return Lattice(ambient.ngens, cols)


def _datum_outcome(hom):
    try:
        return SubgroupDatum(hom).lattice
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_free_kernel_check_matches_the_kernel_group(seed):
    hom = _surjection_with_torsion(seed)
    assert _datum_outcome(hom) == _kernel_reference(hom)


def test_free_kernel_seeds_reach_every_outcome():
    outcomes = Counter(
        _kernel_reference(_surjection_with_torsion(seed)) for seed in KERNEL_SEEDS
    )
    assert outcomes[TORSION_MESSAGE] >= 3
    assert outcomes[FREE_PART_MESSAGE] >= 3
    assert sum(n for key, n in outcomes.items() if isinstance(key, Lattice)) >= 3
