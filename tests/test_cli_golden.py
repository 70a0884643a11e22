"""Golden CLI outputs: every command's exit code, stdout and stderr, byte for byte.

Each case is one ``resolvedk`` command line run in process through
``cli.main``; ``tests/cli_golden.json`` holds the SHA-256 of its exit code,
stdout and stderr.  A refactor that must leave every output unchanged keeps
this test green without touching the file.  After a deliberate output
change, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py

which prints the number of keys whose digest changed (added and removed
keys included), then each such key.
"""

import hashlib
import io
import itertools
import json
import os

from resolvedk.cli import COMMANDS, main

GOLDEN = os.path.join(os.path.dirname(__file__), "cli_golden.json")

FIXTURES = {
    "sphere_rotation": ("N", "S"),
    "sphere_rotation_speed:n=3": ("N", "S"),
    "product_trivial:torsion=2": ("N", "S"),
    "projective_plane": ("p1", "p2", "p3", "s"),
}
WINDOWS = (None, 0, 1, 2, 3)
FORMATS = ("json", "table")
RELATIVE_COMMANDS = ("kred", "compare", "deloc", "ch", "stabilize")


def _node_sets(nodes):
    return [c for k in (1, 2) for c in itertools.combinations(nodes, k)]


def cases():
    """Every golden command line, as an argv list."""
    out = [["example", "--format", fmt] for fmt in FORMATS]
    for spec, nodes in FIXTURES.items():
        for command, window, fmt in itertools.product(COMMANDS, WINDOWS, FORMATS):
            argv = [command]
            argv += [spec] if command == "example" else ["--input", "fixture:" + spec]
            if window is not None:
                argv += ["--window", str(window)]
            out.append(argv + ["--format", fmt])
        for removed in _node_sets(nodes):
            base = ["--input", "fixture:" + spec, "--window", "1", "--format", "json"]
            for command in RELATIVE_COMMANDS:
                out.append([command] + base + [a for n in removed for a in ("--relative", n)])
            out.append(["les"] + base + [a for n in removed for a in ("--prune", n)])
    return out


def digest(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(argv, out=stdout, err=stderr)
    blob = f"{code}\n{stdout.getvalue()}\0{stderr.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def record():
    return {" ".join(argv): digest(argv) for argv in cases()}


def test_cli_outputs_match_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(" ".join(argv) for argv in cases())
    changed = [key for key, value in record().items() if golden[key] != value]
    assert not changed, f"{len(changed)} outputs changed, e.g. {changed[:5]}"


if __name__ == "__main__":
    with open(GOLDEN, encoding="utf-8") as fh:
        old = json.load(fh)
    new = record()
    changed = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(changed)} keys changed")
    for key in changed:
        print(key)
