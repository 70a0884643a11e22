"""Mutants of the program's own checks, and a runner that shows each is killed.

Each mutant names a file under `src/resolvedk`, an exact snippet of it, the
replacement that disables one check, and that check.  The runner copies the
repository (without `.git`) to a temporary directory once per mutant,
applies the replacement there, runs the tier-1 suite with `-x`, and prints
whether a test failed (killed) or not (survived), the time taken and the
first failing test.  The working tree is never edited.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

It exits 1 when a mutant survives.  pytest does not collect this file;
`tests/test_mutants.py` checks that every snippet occurs exactly once under
`src/`, so a refactor that moves a check has to move its mutant too.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str       # relative to the repository root
    snippet: str
    replacement: str
    disables: str


MUTANTS = (
    Mutant(
        "face-pullback-sign",
        "src/resolvedk/deloc.py",
        "rows[start[khat] + i][t0 + j] = -x",
        "rows[start[khat] + i][t0 + j] = x",
        "face rows subtract the deep pullback from the shallow restriction",
    ),
    Mutant(
        "face-pullback-dropped",
        "src/resolvedk/deloc.py",
        "for i, j, x in forms.pulled(coords).entries():",
        "for i, j, x in ():",
        "face rows carry the deep pulled(h) entries",
    ),
    Mutant(
        "saturation-never-fails",
        "src/resolvedk/action.py",
        "if edge_image(edge, ch) not in shallow:",
        "if False:",
        "windows saturated under edge restrictions",
    ),
    Mutant(
        "input-gate-pullback",
        "src/resolvedk/basespace.py",
        'rep.add("pullback is a chain map", face_maps.pullback.commutes_with_differentials())',
        'rep.add("pullback is a chain map", True)',
        "the descriptor row 'pullback is a chain map'",
    ),
    Mutant(
        "shifts-pairwise-commute",
        "src/resolvedk/basespace.py",
        "!= data.shifts[j].matrix @ data.shifts[i].matrix",
        "!= data.shifts[i].matrix @ data.shifts[j].matrix",
        "the descriptor row 'shift operators pairwise commute'",
    ),
    Mutant(
        "rho-chain-shifts",
        "src/resolvedk/basespace.py",
        "if face_maps.rho.matrix @ node_op.matrix != face_op.matrix @ face_maps.rho.matrix",
        "if False",
        "the descriptor row 'rho intertwines chain shifts'",
    ),
    Mutant(
        "pullback-k-shifts",
        "src/resolvedk/basespace.py",
        "bad_k.append(j)",
        "pass",
        "the descriptor row 'pullback intertwines K shifts'",
    ),
    Mutant(
        "corner-deep-pullbacks",
        "src/resolvedk/basespace.py",
        "corner.into_ag.matrix @ face_ag.pullback.matrix\n        == corner.pull_bg.matrix @ face_bg.pullback.matrix,",
        "True,",
        "the descriptor row 'deep pullbacks agree on the corner'",
    ),
    Mutant(
        "chern-shaped-even",
        "src/resolvedk/action.py",
        "vec[j] != 0 for j in odd",
        "False for j in odd",
        "the Chern row 'Chern representatives shaped and even', which ch now reads",
    ),
    Mutant(
        "hexagon-rank-bound",
        "src/resolvedk/ktheory.py",
        "if rank_out > min(dim, next_dim):",
        "if rank_out > max(dim, next_dim):",
        "hexagon_check's rank bound",
    ),
    Mutant(
        "hexagon-alternating-sum",
        "src/resolvedk/ktheory.py",
        '"alternating dimension sum vanishes",\n        alt == 0,',
        '"alternating dimension sum vanishes",\n        True,',
        "hexagon_check's alternating dimension sum",
    ),
    Mutant(
        "les-odd-connecting-inclusion",
        "src/resolvedk/deloc.py",
        '        ("connecting->inclusion (odd)", maps[("incl", 0)] @ maps[("conn", 1)]),\n',
        "",
        "the 'connecting->inclusion (odd)' composite of 'consecutive maps compose to zero'",
    ),
    Mutant(
        "les-even-total-quotient-total",
        "src/resolvedk/deloc.py",
        '        ("total->quotient->total", maps[("proj", 0)] @ maps[("incl", 0)]),\n',
        "",
        "the 'total->quotient->total' (even) composite of 'consecutive maps compose to zero'",
    ),
    Mutant(
        "les-odd-quotient-connecting",
        "src/resolvedk/deloc.py",
        '        ("quotient->connecting (odd)", maps[("conn", 1)] @ maps[("proj", 1)]),\n',
        "",
        "the 'quotient->connecting (odd)' composite of 'consecutive maps compose to zero'",
    ),
    Mutant(
        "window-repeat-accepted",
        "src/resolvedk/action.py",
        "if ch in chars[:i]:",
        "if False:",
        "an explicit window refuses a character it repeats after reduction",
    ),
    Mutant(
        "window-negative-radius",
        "src/resolvedk/action.py",
        "if r < 0:",
        "if False:",
        "materialize refuses a negative radius override for every kind but explicit",
    ),
    Mutant(
        "global-k-inexact-step",
        "src/resolvedk/ktheory.py",
        "if not les.report.ok:",
        "if False:",
        "rational_global_k raises on a pruning step whose six-term report fails",
    ),
    Mutant(
        "compare-hexagons-row",
        "src/resolvedk/deloc.py",
        '"pruning hexagons consistent", False,',
        '"pruning hexagons consistent", True,',
        "compare_ranks: the 'pruning hexagons consistent' row fails when a step is inexact",
    ),
    Mutant(
        "compare-declared-row",
        "src/resolvedk/deloc.py",
        "got == list(declared),",
        "True,",
        "compare_ranks: the dimensions match the declared values",
    ),
    Mutant(
        "compare-declared-kept",
        "src/resolvedk/deloc.py",
        "and assembled.kept == frozenset(action.tree.nodes):",
        ":",
        "compare_ranks: declared values are compared only on a complex over every node",
    ),
    Mutant(
        "kred-node-rank",
        "src/resolvedk/ktheory.py",
        "size * kdata.k1.free_rank",
        "size * kdata.k0.free_rank",
        "action_node_k: the odd rank is the window size times the K1 free rank",
    ),
    Mutant(
        "compare-k1-rank",
        "src/resolvedk/deloc.py",
        "kdata.k1.free_rank == odd",
        "kdata.k1.free_rank == kdata.k1.free_rank",
        "compare_ranks: K1 free rank equals the odd node cohomology",
    ),
)


def _ignored(directory, names):
    return [n for n in names if n in {".git", "__pycache__", ".pytest_cache", ".hypothesis"}]


def run(mutant: Mutant) -> tuple:
    """(killed, seconds, first failing test) of one mutant on a scratch copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_ignored)
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: snippet does not occur exactly once")
        target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return proc.returncode != 0, seconds, failed.group(1) if failed else ""


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = sorted(set(argv) - {m.name for m in MUTANTS})
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    survivors = 0
    for mutant in chosen:
        killed, seconds, by = run(mutant)
        survivors += not killed
        verdict = "killed" if killed else "survived"
        print(f"{mutant.name:30} {verdict:8} {seconds:6.1f} s  {by}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
