"""The integer character layer: differential and contract tests.

`AbHom.apply`, `SmithDecomposition.solve` and `Character` arithmetic run on
plain int tuples over the sparse rows of integer matrices.  The differential
tests check them against the generic rational `RationalMatrix.apply`
followed by `FgAbGroup.reduce`, on seeded groups with free rank 0-3 and
divisibility-chain torsion.  The contract tests pin how characters hash and
compare, that every character an assembly builds is canonical, and that hom
applies never go through the generic apply.
"""

import importlib
import pkgutil
import random
from math import gcd

import pytest

import resolvedk
from resolvedk import deloc
from resolvedk.chargroup import Character, SubgroupDatum, edge_image, lift_offset
from resolvedk.deloc import assemble_complex
from resolvedk.fgab import AbHom, FgAbGroup
from resolvedk.fixtures import (
    product_trivial,
    projective_plane,
    random_action,
    sphere_rotation,
    sphere_rotation_speed,
)
from resolvedk.ratmat import RationalMatrix

SEEDS = range(60)
CHAINS = [(), (2,), (3,), (2, 2), (2, 4), (2, 6), (3, 6), (2, 2, 4), (4, 8)]
FIXTURES = {
    "sphere": sphere_rotation,
    "speed3": lambda: sphere_rotation_speed(3),
    "plane": projective_plane,
    "product2": lambda: product_trivial((2,)),
}


def _group(rng):
    return FgAbGroup(rng.randint(0, 3), rng.choice(CHAINS))


def _vector(rng, n):
    return [rng.randint(-30, 30) for _ in range(n)]


def _column(rng, codomain, order):
    """A random image for a generator of the given order (0: free)."""
    col = [0 if order else rng.randint(-5, 5) for _ in range(codomain.free_rank)]
    for t in codomain.torsion:
        step = t // gcd(order, t) if order else 1
        col.append(step * rng.randint(-t, t))
    return col


def _hom(rng, domain, codomain):
    orders = [0] * domain.free_rank + list(domain.torsion)
    return AbHom.from_columns(domain, codomain, [_column(rng, codomain, d) for d in orders])


def _reference(h, v):
    """h(v) through the generic rational apply."""
    return h.codomain.reduce(h.matrix.apply(h.domain.reduce(v)))


def _reduced_by_hand(group, v):
    f = group.free_rank
    return tuple(v[:f]) + tuple(x % d for x, d in zip(v[f:], group.torsion))


def _ints(coords):
    return all(type(x) is int for x in coords)


@pytest.mark.parametrize("seed", SEEDS)
def test_hom_apply_matches_the_generic_apply(seed):
    rng = random.Random(seed)
    h = _hom(rng, _group(rng), _group(rng))
    for _ in range(5):
        v = _vector(rng, h.domain.ngens)
        assert h.domain.reduce(v) == _reduced_by_hand(h.domain, v)
        y = h.apply(v)
        assert _ints(y)
        assert y == _reference(h, v)
        x = h.preimage_representative(y)
        assert _ints(x)
        assert h.apply(x) == y


@pytest.mark.parametrize("seed", SEEDS)
def test_character_arithmetic_matches_the_generic_apply(seed):
    rng = random.Random(seed)
    g = _group(rng)
    n = g.ngens
    plus = RationalMatrix([[int(j % n == i) for j in range(2 * n)] for i in range(n)], ncols=2 * n)
    minus = RationalMatrix(
        [[(1 if j < n else -1) * int(j % n == i) for j in range(2 * n)] for i in range(n)],
        ncols=2 * n,
    )
    identity = RationalMatrix.identity(n)
    for _ in range(5):
        a = Character(g, _vector(rng, n))
        b = Character(g, _vector(rng, n))
        k = rng.randint(-7, 7)
        cases = [
            (a + b, plus.apply(a.coords + b.coords)),
            (a - b, minus.apply(a.coords + b.coords)),
            (-a, (-identity).apply(a.coords)),
            (a.scale(k), (k * identity).apply(a.coords)),
        ]
        for got, raw in cases:
            assert _ints(got.coords)
            assert got.coords == g.reduce(raw)


def _subgroup_datum(rng):
    """A restriction b o p o a with a free kernel in the free coordinates.

    `a` is unimodular on the free block and a unit on each torsion
    generator, `p` drops the last k free coordinates, and `b` is an
    automorphism of the target that mixes free generators into torsion.
    """
    ambient = _group(rng)
    f, tor = ambient.free_rank, ambient.torsion
    k = rng.randint(0, f)
    target = FgAbGroup(f - k, tor)
    a = [[int(i == j) for j in range(ambient.ngens)] for i in range(ambient.ngens)]
    for _ in range(3 * f):
        i, j = rng.sample(range(f), 2) if f > 1 else (0, 0)
        if i != j:
            q = rng.randint(-2, 2)
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
    for t, d in enumerate(tor):
        a[f + t][f + t] = rng.choice([u for u in range(1, d) if gcd(u, d) == 1])
    p = [[int(j == (i if i < f - k else i + k)) for j in range(ambient.ngens)]
         for i in range(target.ngens)]
    b = [[int(i == j) for j in range(target.ngens)] for i in range(target.ngens)]
    for t, d in enumerate(tor):
        for j in range(f - k):
            b[f - k + t][j] = rng.randint(0, d - 1)
    restriction = (
        AbHom(target, target, b) @ AbHom(ambient, target, p) @ AbHom(ambient, ambient, a)
    )
    datum = SubgroupDatum(restriction)
    assert datum.kernel_rank == k
    return datum


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_coordinates_invert_kernel_elements(seed):
    rng = random.Random(seed)
    datum = _subgroup_datum(rng)
    basis = RationalMatrix.from_columns(
        [b.coords for b in datum.kernel_basis], nrows=datum.ambient.ngens
    )
    for _ in range(5):
        c = tuple(_vector(rng, datum.kernel_rank))
        h = datum.kernel_element(c)
        assert h.coords == datum.ambient.reduce(basis.apply(c))
        assert datum.kernel_coordinates(h) == c
        assert datum.restrict(h).is_zero()
        ghat = Character(datum.ambient, _vector(rng, datum.ambient.ngens))
        b = datum.restrict(ghat)
        assert b.coords == _reference(datum.restriction, ghat.coords)
        rep = datum.canonical_representative(b)
        assert datum.restrict(rep) == b
        assert datum.kernel_element(datum.kernel_coordinates(ghat - rep)) == ghat - rep


def test_equal_characters_hash_equal():
    c6 = FgAbGroup(0, (6,))
    datum = SubgroupDatum(AbHom(FgAbGroup.free(1), c6, [[1]]))
    pairs = [
        (Character(c6, (7,)), Character(c6, (1,))),
        (Character(c6, (1,)), Character(FgAbGroup(0, (6,)), (-5,))),
        (Character(c6, (2,)) + Character(c6, (5,)), Character(c6, (1,))),
        (datum.restrict(Character(datum.ambient, (13,))), Character(c6, (1,))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)


def test_same_coordinates_in_different_groups_stay_apart():
    groups = [FgAbGroup.free(2), FgAbGroup(1, (2,)), FgAbGroup(0, (3, 3))]
    chars = [Character(g, (1, 1)) for g in groups]
    for i, a in enumerate(chars):
        for b in chars[i + 1:]:
            assert a != b
    assert len(set(chars)) == 3
    table = {c: str(c.group) for c in chars}
    assert sorted(table.values()) == ["Z + Z/2", "Z/3 + Z/3", "Z^2"]
    assert Character(FgAbGroup.free(1), (1,)) != Character(FgAbGroup(0, (2,)), (1,))


def _assembly_cases():
    for name, build in FIXTURES.items():
        yield pytest.param(build, 3, id=f"{name}-r3")
    for seed in range(12):
        yield pytest.param(lambda seed=seed: random_action(seed), 1, id=f"random{seed}-r1")


@pytest.mark.parametrize("build, radius", list(_assembly_cases()))
def test_assembled_characters_are_canonical(monkeypatch, build, radius):
    seen = {"lifts": [], "edge images": []}
    real_lift, real_edge_image = deloc.lift, deloc.edge_image

    def recorded_lift(datum, section, b):
        ghat = real_lift(datum, section, b)
        seen["lifts"].extend((b, ghat))
        return ghat

    def recorded_edge_image(edge, b):
        image = real_edge_image(edge, b)
        seen["edge images"].extend((b, image))
        return image

    monkeypatch.setattr(deloc, "lift", recorded_lift)
    monkeypatch.setattr(deloc, "edge_image", recorded_edge_image)
    assembled = assemble_complex(build(), radius=radius)
    seen["windows"] = [c for window in assembled.windows.values() for c in window]
    seen["sector keys"] = list(assembled.sectors)
    seen["blocks"] = [
        c for sec in assembled.sectors.values()
        for c in [khat for _, khat, _, _ in sec.blocks] + list(sec.row_chars)
    ]
    for where, chars in seen.items():
        assert chars, where
        for c in chars:
            assert isinstance(c, Character), where
            assert _ints(c.coords) and c.coords == c.group.reduce(c.coords), (where, c)


def test_hom_applies_make_no_generic_apply(monkeypatch):
    # integer applies read the sparse rows themselves; the generic rational
    # apply is counted in every module that binds it, and on the class
    original = RationalMatrix.apply
    calls = []

    def counted(mat, vec):
        calls.append(mat.shape)
        return original(mat, vec)

    monkeypatch.setattr(RationalMatrix, "apply", counted)
    for info in pkgutil.iter_modules(resolvedk.__path__):
        module = importlib.import_module(f"resolvedk.{info.name}")
        for name, obj in list(vars(module).items()):
            if obj is original:
                monkeypatch.setattr(module, name, counted)

    checked = 0
    for build in FIXTURES.values():
        action = build()
        tree = action.tree
        windows = action.windows(2)
        calls.clear()
        for a, b in tree.comparable_pairs():
            edge = tree.edge_restriction(a, b)
            for bhat in windows[b]:
                edge.apply(bhat.coords)
                edge_image(edge, bhat)
                checked += 1
        for label, datum in tree.nodes.items():
            for b in windows[label]:
                rep = datum.canonical_representative(b)
                datum.kernel_coordinates(rep - rep)
                lift_offset(datum, None, b, rep + datum.kernel_element((1,) * datum.kernel_rank))
                checked += 1
        assert calls == []
    assert checked
    RationalMatrix([[1]]).apply((1,))
    assert calls == [(1, 1)]
