"""Acceptance criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Time budgets are asserted inside the tests themselves:
criterion 1 under 10 s, criterion 4 under 1 s, criterion 6 under 30 s.
"""

import itertools
import random
import time

from resolvedk import fixtures
from resolvedk.action import WindowError
from resolvedk.chargroup import lift, offset_section, section
from resolvedk.cli import main as cli_main
from resolvedk.deloc import (
    assemble_complex,
    chern_character,
    compare_ranks,
    deloc_cohomology,
    node_parity_dims,
    pruning_walk,
    validate_chern_data,
)
from resolvedk.fgab import smith_normal_form
from resolvedk.ktheory import action_node_k, rational_global_k
from resolvedk.ratmat import RationalMatrix
from resolvedk.redbun import canonical_bundle, canonicalize


def _passed(number: int, slug: str, detail: str) -> None:
    print(f"criterion {number} ({slug}): PASS — {detail}")


def test_criterion_1_exact_algebra_suite():
    """1000 random integer matrices: Smith normal form invariants, < 10 s."""
    rng = random.Random(424242)
    start = time.perf_counter()
    for trial in range(1000):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        mat = RationalMatrix(
            [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        )
        dec = smith_normal_form(mat)
        assert dec.verify(mat), f"trial {trial}: invariants violated"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    _passed(1, "exact algebra suite", f"1000 matrices in {elapsed:.2f} s")


def test_criterion_2_splitting_absent_but_sections_work():
    """Z -> Z/2 admits no homomorphic splitting; sections still exist and
    the whole sphere pipeline runs on them."""
    speed2 = fixtures.sphere_rotation_speed(2)
    root = speed2.tree.nodes["0"]
    assert root.restriction.try_split() is None

    windows = speed2.windows(1)
    tau = section(root, windows["0"])
    for b in windows["0"]:
        assert root.restrict(tau(b)) == b

    dims = deloc_cohomology(assemble_complex(speed2, radius=1))
    assert (dims.even, dims.odd) == (10, 0)
    assert compare_ranks(assemble_complex(speed2, radius=1))[0].ok
    _passed(2, "set-theoretic sections", "no splitting, pipeline dims (10, 0)")


def test_criterion_3_section_independence():
    """100 random section pairs: canonical reduced bundles and assembled
    dimensions do not depend on the section."""
    rng = random.Random(31337)
    cases = [
        (fixtures.sphere_rotation(), "poles", 3),
        (fixtures.sphere_rotation_speed(2), "poles", 2),
        (fixtures.projective_plane(), "tautological", 1),
    ]
    done = 0
    for trial in range(100):
        action, bundle, radius = cases[trial % len(cases)]
        windows = action.windows(radius)
        base = action.sections(windows)

        def scrambled():
            secs = {}
            for label, sec in base.items():
                datum = action.tree.nodes[label]
                if datum.kernel_rank == 0:
                    secs[label] = sec
                    continue
                offsets = {
                    b: tuple(rng.randint(-2, 2) for _ in range(datum.kernel_rank))
                    for b in windows[label]
                }
                secs[label] = offset_section(sec, offsets)
            return secs

        first, second = scrambled(), scrambled()

        d1 = deloc_cohomology(assemble_complex(action, radius=radius, sections=first))
        d2 = deloc_cohomology(assemble_complex(action, radius=radius, sections=second))
        assert (d1.even, d1.odd) == (d2.even, d2.odd), f"trial {trial}"

        w1 = canonical_bundle(action, bundle, sections=first)
        w2 = canonical_bundle(action, bundle, sections=second)
        for label in action.tree.nodes:
            datum = action.tree.nodes[label]
            kdata = action.spaces[label].kdata
            # renormalizing both onto canonical representatives must agree
            c1 = canonicalize(w1[label].table, datum, kdata)
            c2 = canonicalize(w2[label].table, datum, kdata)
            assert c1 == c2, f"trial {trial}, node {label}"
        done += 1
    assert done == 100
    _passed(3, "section independence", "100 section pairs, all identical")


def test_criterion_4_sphere_dimensions_and_oracle():
    """Sphere windows m = 0, 1, 2: even 1, 5, 9 and odd 0, against the
    counting oracle and the rational K pipeline, < 1 s; the conflicting
    external odd-degree claim is flagged, not reproduced."""
    sphere = fixtures.sphere_rotation()
    start = time.perf_counter()
    for m, expected_even in ((0, 1), (1, 5), (2, 9)):
        dims = deloc_cohomology(assemble_complex(sphere, radius=m))
        oracle = 2 * (2 * m + 1) - 1  # pole-table pairs with equal sums
        assert dims.even == expected_even == oracle
        assert dims.odd == 0
        glob, checks = rational_global_k(assemble_complex(sphere, radius=m))
        assert (glob.even, glob.odd) == (dims.even, dims.odd)
        assert checks.ok
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s"

    flagged = [n for n in sphere.notes if "not reproduced" in n]
    assert flagged, "discrepancy note missing from the fixture"
    import io
    out = io.StringIO()
    assert cli_main(
        ["compare", "--input", "fixture:sphere_rotation", "--window", "2"], out=out
    ) == 0
    assert "deliberately not reproduced" in out.getvalue()
    _passed(4, "sphere window dimensions", f"1/5/9 even, 0 odd in {elapsed:.2f} s")


def test_criterion_5_speed_n_equals_n_times_base():
    """Speed-n spheres at m = 1: dimensions exactly n times the base, by
    the trivial-factor product and by direct computation of the speed tree,
    globally and on the graded K-group of every node."""
    base = fixtures.sphere_rotation()
    base_dims = deloc_cohomology(assemble_complex(base, radius=1))
    for n in (2, 3):
        speed = fixtures.sphere_rotation_speed(n)
        direct = deloc_cohomology(assemble_complex(speed, radius=1))
        assert (direct.even, direct.odd) == (n * base_dims.even, n * base_dims.odd)

        product = fixtures.product_trivial((n,))
        via_product = deloc_cohomology(assemble_complex(product, radius=1))
        assert (via_product.even, via_product.odd) == (direct.even, direct.odd)

        windows = {a: a.windows(1) for a in (base, speed, product)}
        for label in base.tree.nodes:
            widened = action_node_k(product, label, windows[product])
            assert widened == action_node_k(speed, label, windows[speed])
            e, o = action_node_k(base, label, windows[base])
            assert widened == (n * e, n * o)
    _passed(
        5, "speed-n multiplicativity",
        f"n = 2, 3 agree on both paths and on all {len(base.tree.nodes)} nodes",
    )


def test_criterion_6_six_term_exactness():
    """Every pruning step on the sphere, the plane, and 50 random synthetic
    actions yields an exact six-term sequence, < 30 s total."""
    start = time.perf_counter()
    actions = [fixtures.sphere_rotation(), fixtures.projective_plane()]
    actions += [fixtures.random_action(seed) for seed in range(50)]
    steps_checked = 0
    for action in actions:
        full = assemble_complex(action, radius=1)
        for les in pruning_walk(full.restrict({action.tree.root}), full):
            assert les.report.ok, les.report.failures()
            assert les.instance.alternating_sum() == 0
            steps_checked += 1
    elapsed = time.perf_counter() - start
    # the walk from the root adds every other node once
    assert steps_checked == sum(len(action.tree.nodes) - 1 for action in actions)
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    _passed(6, "six-term exactness", f"{steps_checked} steps in {elapsed:.2f} s")


def _first_failure(asm, value):
    """Place value(label, khat) into every block of `asm` and return what the
    assembled complex says first: None if the columns are closed and meet every
    face constraint, else the failure in ch's message form."""
    for chi, sec in asm.sectors.items():
        vec = [0] * sec.total
        for label, khat, s0, s1 in sec.blocks:
            vec[s0:s1] = value(label, khat)
        col = RationalMatrix.from_columns([vec], nrows=sec.total)
        if not (sec.diff @ col).is_zero():
            return f"is not closed in sector {chi.coords}"
        rows = (sec.constraint @ col).sparse_rows()
        i = next((i for i, row in enumerate(rows) if row), None)
        if i is not None:
            (desc,) = [d for d, _, r0, r1 in sec.row_origins if r0 <= i < r1]
            return f"breaks compatibility in sector {chi.coords}: {desc}"
    return None


def test_criterion_7_chern_compatibility():
    """Chern characters of all fixture bundles, at radii 0-4 and over every
    downward-closed kept set, cross-checked against the assembled complex:
    the node values placed in their sector blocks are closed and meet every
    face constraint, a refusal names the complex's first failing row, and
    the Chern data satisfies the exact shift-twist identity."""
    cases = [
        fixtures.sphere_rotation(),
        fixtures.sphere_rotation_speed(2),
        fixtures.sphere_rotation_speed(3),
        fixtures.product_trivial((2,)),
        fixtures.projective_plane(),
    ]
    outcomes = {"cocycles": 0, "refusals": 0, "narrow windows": 0}
    for action in cases:
        report = validate_chern_data(action)
        assert report.ok, report.failures()
        tree = action.tree
        labels = sorted(tree.nodes)
        prunes = [
            prune
            for n in range(len(labels) + 1)
            for prune in itertools.combinations(labels, n)
            if all(a not in prune or b in prune for a, b in tree.comparable_pairs())
        ]
        for radius in range(5):
            full = assemble_complex(action, radius=radius)
            for prune in prunes:
                asm = full.restrict(set(labels) - set(prune))
                for name in sorted(action.bundles):
                    bundles = canonical_bundle(action, name)

                    def contracted(label, khat):
                        # the bundle's class contracted with the representatives
                        cls = bundles[label].get(lift(tree.nodes[label], None, khat))
                        reps = action.chern.reps[label]
                        dim = action.spaces[label].complex.total_dim
                        return [sum(c * rep[i] for c, rep in zip(cls, reps)) for i in range(dim)]

                    outside = any(
                        tree.nodes[label].restrict(ghat) not in asm.windows[label]
                        for label in asm.kept
                        for ghat in bundles[label].table
                    )
                    try:
                        (cocycle,) = chern_character(action, [name], prune=prune, radius=radius)
                    except WindowError:
                        assert outside
                        outcomes["narrow windows"] += 1
                        continue
                    except ValueError as exc:
                        assert not outside
                        failure = _first_failure(asm, contracted)
                        assert str(exc) == f"Chern cocycle of {name!r} {failure}"
                        outcomes["refusals"] += 1
                        continue
                    assert not outside and cocycle.kept == asm.kept
                    assert _first_failure(asm, cocycle.node_value) is None
                    outcomes["cocycles"] += 1
    assert all(outcomes.values()) and outcomes["cocycles"] >= 15, outcomes
    _passed(7, "Chern compatibility", ", ".join(f"{n} {k}" for k, n in outcomes.items()))


def test_criterion_8_node_level_rank_isomorphism():
    """At every node of every fixture, the per-sector rational K ranks
    equal the node's delocalized dimensions."""
    actions = [
        fixtures.sphere_rotation(),
        fixtures.sphere_rotation_speed(2),
        fixtures.sphere_rotation_speed(3),
        fixtures.product_trivial((2,)),
        fixtures.projective_plane(),
    ] + [fixtures.random_action(seed) for seed in range(5)]
    nodes_checked = 0
    for action in actions:
        for label in action.tree.nodes:
            kdata = action.spaces[label].kdata
            even, odd = node_parity_dims(action.spaces[label])
            assert (kdata.k0.free_rank, kdata.k1.free_rank) == (even, odd), label
            nodes_checked += 1
    assert nodes_checked >= 25
    _passed(8, "node-level rank equality", f"{nodes_checked} nodes agree")


def test_criterion_9_projective_plane_comparison():
    """Both pipelines agree on the projective plane for all windows up to
    m = 2, with the committed dimensions 1, 6, 12 even and 0 odd."""
    plane = fixtures.projective_plane()
    committed = {0: (1, 0), 1: (6, 0), 2: (12, 0)}
    for m, (even, odd) in committed.items():
        report, _ = compare_ranks(assemble_complex(plane, radius=m))
        assert report.ok, report.failures()
        dims = deloc_cohomology(assemble_complex(plane, radius=m))
        assert (dims.even, dims.odd) == (even, odd)
        declared = plane.expected["deloc_dims_by_radius"][str(m)]
        assert list(declared) == [even, odd]
    _passed(9, "projective plane comparison", "1/6/12 even, 0 odd, both pipelines")
