"""Workload inputs and operations.

Every input reaches resolvedk as a descriptor file written with
``serialize_descriptor``; an operation reads and parses its file, then runs
one CLI command through ``cli.run`` (or one section-independence trial
through the public library calls) and renders its output as the CLI's JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import time

# fixture key -> (generator name, parameters)
FIXTURES = {
    "sphere_rotation": ("sphere_rotation", {}),
    "sphere_rotation_speed_2": ("sphere_rotation_speed", {"n": 2}),
    "sphere_rotation_speed_3": ("sphere_rotation_speed", {"n": 3}),
    "projective_plane": ("projective_plane", {}),
    "product_trivial_2": ("product_trivial", {"torsion": [2]}),
}
VERIFY_FIXTURES = ("sphere_rotation", "sphere_rotation_speed_3", "projective_plane", "product_trivial_2")

# criterion-3 shape: fixture key, radius, bundle name
TRIAL_CASES = (
    ("sphere_rotation", 3, "poles"),
    ("sphere_rotation_speed_2", 2, "poles"),
    ("projective_plane", 1, "tautological"),
)
TRIALS = 30

# random_action seeds come from a fixed pool, one per stratum of this mix, so
# every workload seed gets the same mix of tree shapes.  A stratum is
# (node count, torsion of the group, root window size at radius 1, total
# coordinates at radius 1); the pool's strata are recorded in digests.json.
RANDOM_POOL = range(300)
RANDOM_MIX = (
    (2, (), 1, 5), (3, (), 1, 7), (3, (), 1, 9), (3, (), 2, 18),
    (3, (), 3, 27), (3, (2,), 2, 18), (3, (3,), 3, 27), (4, (), 1, 11),
    (5, (), 1, 13), (5, (), 1, 19), (5, (), 2, 38), (5, (2,), 2, 38),
)

WORKLOADS = ("verify_fixtures", "window_scan", "random_sections")


def closed_form(fixture_key, m):
    """(even, odd) delocalized dimensions at window radius m, from docs/."""
    name, params = FIXTURES[fixture_key]
    if name == "projective_plane":
        return (1 if m == 0 else 6 * m, 0)
    factor = params.get("n", 1)
    for d in params.get("torsion", ()):
        factor *= d
    return (factor * (4 * m + 1), 0)


def stratum(action):
    windows = action.windows(1)
    coords = sum(len(windows[label]) * action.spaces[label].complex.total_dim
                 for label in action.tree.nodes)
    return (len(action.tree.nodes), tuple(action.group.torsion),
            len(windows[action.tree.root]), coords)


def stratum_key(key):
    return json.dumps([key[0], list(key[1]), key[2], key[3]])


class CliOp:
    """One CLI command on one descriptor file."""

    kind = "cli"

    def __init__(self, command, name, path, window, prune=(), fixture=None):
        self.command = command
        self.name = name
        self.path = path
        self.window = window
        self.prune = list(prune)
        self.fixture = fixture
        self.key = f"{command}:{name}:w{window}"

    def execute(self, rk):
        """Run the command; returns (seconds, status, JSON text)."""
        flags = argparse.Namespace(window=self.window, prune=list(self.prune), relative=[])
        start = time.perf_counter()
        with open(self.path, "r", encoding="utf-8") as fh:
            desc = rk.descriptor.parse_descriptor(fh.read())
        result = rk.cli.run(self.command, desc, flags)
        text = json.dumps(result.payload, indent=2, sort_keys=True)
        return time.perf_counter() - start, result.status, text


def _table_json(node):
    return sorted([list(ch.coords), [int(x) for x in cls]] for ch, cls in node.table.items())


class TrialOp:
    """Criterion-3 trial: assemble and canonicalize under two section systems."""

    kind = "trial"

    def __init__(self, index, fixture, path, radius, bundle, offsets):
        self.fixture = fixture
        self.path = path
        self.radius = radius
        self.bundle = bundle
        self.offsets = offsets      # two {label: [[coords, coeffs], ...]}
        self.key = f"trial{index}:{fixture}:w{radius}"
        self.digest_key = f"trial:{fixture}:w{radius}"

    def execute(self, rk):
        start = time.perf_counter()
        with open(self.path, "r", encoding="utf-8") as fh:
            action = rk.descriptor.parse_descriptor(fh.read()).action
        windows = action.windows(self.radius)
        base = action.sections(windows)
        dims, bundles = [], []
        for offsets in self.offsets:
            secs = dict(base)
            for label, pairs in offsets.items():
                target = action.tree.nodes[label].target
                secs[label] = rk.chargroup.offset_section(base[label], {
                    rk.chargroup.Character(target, coords): coeffs for coords, coeffs in pairs
                })
            d = rk.deloc.deloc_cohomology(
                rk.deloc.assemble_complex(action, radius=self.radius, sections=secs)
            )
            dims.append([d.even, d.odd])
            w = rk.redbun.canonical_bundle(action, self.bundle, sections=secs)
            bundles.append({
                label: _table_json(rk.redbun.canonicalize(
                    w[label].table, action.tree.nodes[label], action.spaces[label].kdata
                ))
                for label in sorted(action.tree.nodes)
            })
        text = json.dumps({"dims": dims, "bundles": bundles}, sort_keys=True)
        return time.perf_counter() - start, 0, text


def write_descriptor(rk, workdir, name, action):
    path = workdir / f"{name}.json"
    path.write_text(rk.descriptor.serialize_descriptor(action), encoding="utf-8")
    return str(path)


def _fixture_file(rk, workdir, key):
    name, params = FIXTURES[key]
    return write_descriptor(rk, workdir, key, rk.descriptor.generate_fixture(name, params))


def _trial_offsets(rng, action, radius):
    windows = action.windows(radius)
    out = {}
    for label in sorted(action.tree.nodes):
        rank = action.tree.nodes[label].kernel_rank
        if rank:
            out[label] = [
                [list(b.coords), [rng.randint(-2, 2) for _ in range(rank)]]
                for b in windows[label]
            ]
    return out


def random_les_op(rk, workdir, seed):
    action = rk.fixtures.random_action(seed)
    path = write_descriptor(rk, workdir, f"random-{seed}", action)
    prune = sorted(n for n in action.tree.nodes if n != action.tree.root)
    return CliOp("les", f"random-{seed}", path, 1, prune), stratum(action)


def build(rk, workload, seed, workdir, pool, reduced=False):
    """Write the workload's descriptor files; return its operations in order.

    `pool` maps each stratum key of RANDOM_MIX to its recorded pool seeds.
    `reduced` gives a small smoke-test version of the same operations.
    """
    if workload == "verify_fixtures":
        keys = VERIFY_FIXTURES[:1] if reduced else VERIFY_FIXTURES
        ops = []
        for key in keys:
            path = _fixture_file(rk, workdir, key)
            ops += [CliOp(cmd, key, path, 3, fixture=key) for cmd in ("compare", "kred")]
        return ops
    if workload == "window_scan":
        paths = {key: _fixture_file(rk, workdir, key) for key in VERIFY_FIXTURES}
        scans = () if reduced else ("projective_plane", "sphere_rotation_speed_3")
        ops = [CliOp("stabilize", key, paths[key], 7, fixture=key) for key in scans]
        return ops + [CliOp("ch", key, paths[key], 7, fixture=key) for key in VERIFY_FIXTURES]
    if workload != "random_sections":
        raise ValueError(f"unknown workload {workload!r}")

    rng = random.Random(f"random_sections:{seed}")
    ops = []
    for key in RANDOM_MIX[:3] if reduced else RANDOM_MIX:
        op, got = random_les_op(rk, workdir, rng.choice(pool[stratum_key(key)]))
        if got != key:
            raise RuntimeError(f"{op.name}: stratum {got} differs from the recorded {key}")
        ops.append(op)
    cases = []
    for key, radius, bundle in TRIAL_CASES:
        name, params = FIXTURES[key]
        action = rk.descriptor.generate_fixture(name, params).action
        cases.append((key, write_descriptor(rk, workdir, key, action), radius, bundle, action))
    for index in range(3 if reduced else TRIALS):
        key, path, radius, bundle, action = cases[index % len(cases)]
        offsets = [_trial_offsets(rng, action, radius) for _ in range(2)]
        ops.append(TrialOp(index, key, path, radius, bundle, offsets))
    return ops
