"""Sector sharing: one cohomology and one six-term sequence per distinct sector.

The sectors of every complex assembled from one parsed action, and of
every restriction and radius selection made from them, share one table
keyed by content.  These tests pin what the table shares, what it must keep
apart, that its results equal those of sectors that each compute alone, and
that it dies with its action.
"""

import weakref

import pytest

from resolvedk import deloc
from resolvedk.deloc import (
    SectorComplex,
    TwoPeriodicComplex,
    assemble_complex,
    deloc_cohomology,
    les_of_pruning,
    window_stabilization,
)
from resolvedk.fixtures import (
    product_trivial,
    projective_plane,
    random_action,
    sphere_rotation,
    sphere_rotation_speed,
)
from resolvedk.ratmat import RationalMatrix

FIELDS = (
    "chi", "blocks", "spans", "total", "constraint", "row_origins", "row_chars",
    "diff", "even_idx", "odd_idx", "shared",
)

FIXTURES = [
    pytest.param(sphere_rotation, id="sphere"),
    pytest.param(lambda: sphere_rotation_speed(3), id="speed3"),
    pytest.param(projective_plane, id="plane"),
    pytest.param(lambda: product_trivial((2,)), id="product2"),
]


def _copy(sec, **changes):
    """A new sector with the fields of `sec`, some replaced; nothing computed yet."""
    fields = {name: getattr(sec, name) for name in FIELDS}
    fields.update(changes)
    return SectorComplex(**fields)


def _key(sec):
    return (sec.constraint, sec.diff, sec.even_idx, sec.odd_idx)


def _sequence(action, radius):
    """The restrictions to the depth-then-label prefixes of the nodes, of one assembly."""
    full = assemble_complex(action, radius=radius)
    labels = action.tree.labels_by_depth()
    return [full.restrict(labels[:end]) for end in range(1, len(labels) + 1)]


def _h(two):
    return two.h_dim(0), two.h_dim(1)


@pytest.mark.parametrize("build", FIXTURES)
def test_one_construction_per_distinct_content(monkeypatch, build):
    made = []
    original = TwoPeriodicComplex.__init__

    def recording(self, d, basis_even, basis_odd):
        made.append((d, basis_even, basis_odd))
        original(self, d, basis_even, basis_odd)

    monkeypatch.setattr(TwoPeriodicComplex, "__init__", recording)
    complexes = _sequence(build(), 3)
    sectors = [sec for cx in complexes for sec in cx.sectors.values()]
    for cx in complexes:
        deloc_cohomology(cx)
    keys = {_key(sec) for sec in sectors}
    assert len(made) == len(keys)
    assert len({id(sec.two_periodic) for sec in sectors}) == len(keys)

    # every sector complex exists now, so the pruning steps build only
    # quotient complexes, and never one whose input was seen before
    made.clear()
    for sub, total in zip(complexes, complexes[1:]):
        assert les_of_pruning(sub, total).report.ok
    assert made and len(made) == len(set(made))


def test_translated_sectors_share_their_cohomology():
    # the three root sectors of the speed-3 sphere have equal content
    full = assemble_complex(sphere_rotation_speed(3), radius=3)
    twos = {id(sec.two_periodic) for sec in full.sectors.values()}
    assert len(full.sectors) == 3 and len(twos) == 1


def test_tables_are_per_action_and_pass_to_selections():
    action = projective_plane()
    top = assemble_complex(action, radius=2)
    tables = {id(sec.shared) for sec in top.sectors.values()}
    assert len(tables) == 1
    derived = [top.restrict({"0", "p2"}), top.at_radius(1, action.windows(1))]
    derived.append(derived[1].restrict({"0"}))
    derived.append(assemble_complex(action, radius=2))
    for cx in derived:
        assert {id(sec.shared) for sec in cx.sectors.values()} == tables
    other = assemble_complex(projective_plane(), radius=2)
    assert {id(sec.shared) for sec in other.sectors.values()}.isdisjoint(tables)


def test_window_scan_reuses_sectors_met_at_smaller_radii(monkeypatch):
    made = []
    original = TwoPeriodicComplex.__init__

    def counting(self, *args):
        made.append(1)
        original(self, *args)

    monkeypatch.setattr(TwoPeriodicComplex, "__init__", counting)
    action = sphere_rotation_speed(3)
    scan = window_stabilization(action, 3)
    assert [row[1] for row in scan.rows] == [3 * (4 * m + 1) for m in range(4)]
    top = assemble_complex(action, radius=3)
    keys = {
        _key(sec)
        for r in range(4)
        for sec in top.at_radius(r, action.windows(r)).sectors.values()
    }
    assert len(made) == len(keys) < 3 * 4


def test_equal_constraints_with_other_differentials_or_parities_stay_apart():
    full = assemble_complex(sphere_rotation(), radius=1)
    (sec,) = full.sectors.values()
    two = sec.two_periodic
    variants = {
        "zero differential": _copy(sec, diff=RationalMatrix.zeros(sec.total, sec.total)),
        "swapped parities": _copy(sec, even_idx=sec.odd_idx, odd_idx=sec.even_idx),
    }
    for name, var in variants.items():
        assert var.shared is sec.shared and var.constraint is sec.constraint
        got = var.two_periodic
        assert got is not two, name
        assert _h(got) == _h(_copy(var, shared={}).two_periodic) != _h(two), name


def test_sector_les_is_keyed_on_its_sub_complex_and_quotient_indices():
    full = assemble_complex(projective_plane(), radius=1)
    sub, total = full.restrict({"0", "p2"}), full.restrict({"0", "p2", "s"})
    (chi,) = total.sectors
    sa, sb = sub.sectors[chi], total.sectors[chi]
    step = deloc._sector_les(sa, sb, "s")
    assert deloc._sector_les(sa, sb, "s") is step
    # Over the same pair of sectors, the quotient by another node's
    # components (not a pruning step, but a well-defined computation) is a
    # different six-term sequence and must not reuse the first one.
    other = deloc._sector_les(sa, sb, "p2")
    alone = deloc._sector_les(_copy(sa, shared={}), _copy(sb, shared={}), "p2")
    assert other[0].dims == alone[0].dims != step[0].dims
    assert other[0].ranks == alone[0].ranks

    # a sub sector with other content (a doubled differential: the same
    # cohomology, another complex) is computed apart
    full = assemble_complex(sphere_rotation(), radius=1)
    (chi,) = full.sectors
    sa, sb = full.restrict({"0"}).sectors[chi], full.restrict({"0", "N"}).sectors[chi]
    step = deloc._sector_les(sa, sb, "N")
    doubled = _copy(sa, diff=sa.diff * 2)
    assert doubled.two_periodic is not sa.two_periodic
    again = deloc._sector_les(doubled, sb, "N")
    assert again is not step and again[0].dims == step[0].dims


def _private_les(sub, total, alpha):
    """(sector instances, report rows) of a step, each sector computing alone."""
    instances, rows = {}, []
    for chi in sorted(total.sectors, key=lambda c: c.coords):
        sa = _copy(sub.sectors[chi], shared={})
        sb = _copy(total.sectors[chi], shared={})
        inst, rep = deloc._sector_les(sa, sb, alpha)
        instances[chi] = (inst.dims, inst.ranks, inst.labels)
        rows += [(f"sector {chi.coords}: {name}", ok, detail) for name, ok, detail in rep.checks]
    return instances, rows


@pytest.mark.parametrize(
    "build, radius",
    [pytest.param(p.values[0], 3, id=p.id) for p in FIXTURES]
    + [pytest.param(lambda seed=seed: random_action(seed), 1, id=f"random{seed}")
       for seed in range(12)],
)
def test_shared_pruning_steps_equal_private_ones(build, radius):
    complexes = _sequence(build(), radius)
    for sub, total in zip(complexes, complexes[1:]):
        les = les_of_pruning(sub, total)
        instances, rows = _private_les(sub, total, les.alpha)
        got = {
            chi: (inst.dims, inst.ranks, inst.labels)
            for chi, inst in les.sector_instances.items()
        }
        assert got == instances
        assert les.report.checks == rows


def test_the_table_dies_with_its_complex():
    def build():
        complexes = _sequence(sphere_rotation_speed(3), 2)
        for sub, total in zip(complexes, complexes[1:]):
            les_of_pruning(sub, total)
        table = complexes[-1].sectors[next(iter(complexes[-1].sectors))].shared
        held = [v for v in table.values() if isinstance(v, TwoPeriodicComplex)]
        held += [two for key in table for two in key if isinstance(two, TwoPeriodicComplex)]
        assert held
        return complexes, [weakref.ref(two) for two in held]

    complexes, refs = build()
    assert all(ref() is not None for ref in refs)
    del complexes
    assert all(ref() is None for ref in refs)
