"""resolvedk benchmark: one workload, closed loop, one caller, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/resolvedk``.  Operations
run one at a time, each parsing its descriptor file and running one command.
Every output is checked (see oracle.py); a failed check makes the run exit 1.

``--trace 0`` times passes over the workload with no tracing and reports
the end-to-end metrics.  ``--trace 1`` alternates untraced passes with
passes under the span tracer (tracer.py) and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import WRAPPED, Tracer  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

# layers each workload must reach; a traced pass that records no call to one
# of them means the wrapping missed a binding
MUST_REACH = {
    "verify_fixtures": (
        "cli.run", "descriptor.parse_descriptor", "deloc.compare_ranks",
        "ktheory.rational_global_k", "ktheory.action_node_k", "ktheory.hexagon_check",
        "deloc.les_of_pruning", "deloc.assemble_complex", "deloc.deloc_cohomology",
        "deloc.cocycles", "deloc.boundaries", "deloc.class_coords",
        "deloc.class_representatives", "ratmat.solve", "ratmat.rref",
        "ratmat.matmul", "ratmat.apply", "ratmat.nullspace_basis",
        "ratmat.QuotientSpace", "action.windows",
    ),
    "window_scan": (
        "cli.run", "descriptor.parse_descriptor", "deloc.assemble_complex",
        "deloc.deloc_cohomology", "deloc.cocycles", "deloc.boundaries",
        "deloc.chern_character", "redbun.canonical_bundle", "ratmat.matmul",
        "ratmat.nullspace_basis", "ratmat.rref", "action.windows",
    ),
    "random_sections": (
        "cli.run", "descriptor.parse_descriptor", "deloc.les_of_pruning",
        "deloc.assemble_complex", "deloc.deloc_cohomology", "ktheory.hexagon_check",
        "chargroup.section", "chargroup.kernel_coordinates",
        "fgab.smith_normal_form", "redbun.canonical_bundle", "redbun.canonicalize",
        "ratmat.solve", "ratmat.rref",
    ),
}

# per-layer metrics: (layer, field, unit, better).  self_s is reported only
# for layers every workload reaches: a time that is 0 on some workload would
# read the same on every run.  The other layers' times are printed.
_COUNTED = {
    "ratmat.matmul": (("macs", "count", "lower"), ("useful_ratio", "ratio", "higher")),
    "ratmat.apply": (("useful_ratio", "ratio", "higher"),),
    "ratmat.rref": (("cells", "count", "lower"), ("max_bits", "bits", "lower")),
    "ratmat.solve": (("repeat_lhs_ratio", "ratio", "lower"),),
    "fgab.smith_normal_form": (("cells", "count", "lower"),),
    "deloc.assemble_complex": (("repeat_ratio", "ratio", "lower"), ("coords", "count", "lower")),
}
TIMED_LAYERS = (
    "ratmat.matmul", "ratmat.apply", "ratmat.rref", "ratmat.nullspace_basis",
    "fgab.smith_normal_form", "chargroup.kernel_coordinates", "action.windows",
    "descriptor.parse_descriptor", "deloc.assemble_complex", "deloc.cocycles",
    "deloc.boundaries", "deloc.deloc_cohomology", "cli.run",
)
PER_LAYER = tuple(
    [(layer, "calls", "count", "lower") for layer in WRAPPED]
    + [(layer, "self_s", "s", "lower") for layer in TIMED_LAYERS]
    + [(layer, *spec) for layer, specs in _COUNTED.items() for spec in specs]
    + [("trace", "overhead_ratio", "ratio", "lower")]
)


def load_program():
    """Import resolvedk from the checkout's src/; exit 2 when it is absent."""
    if not (SRC / "resolvedk" / "__init__.py").is_file():
        print(f"benchmark: no resolvedk package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import resolvedk
    from resolvedk import chargroup, cli, deloc, descriptor, fixtures, redbun

    return SimpleNamespace(
        package=resolvedk, chargroup=chargroup, cli=cli, deloc=deloc,
        descriptor=descriptor, fixtures=fixtures, redbun=redbun,
    )


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []


# -- machine-speed calibration ------------------------------------------------------
#
# On a shared virtual machine the CPU speed can drift by tens of percent
# within a minute, and a resolvedk operation slows down with it.  A fixed
# slice of exact-rational dot products, run between operations, measures the
# current speed; each operation's time is scaled by REFERENCE_CALIBRATION_S /
# (mean of the slices just before and just after it).  The raw times are
# printed too.

REFERENCE_CALIBRATION_S = 0.02
CALIBRATE_EVERY_S = 0.2
_CAL_ROWS = [[Fraction(i * j % 7, 1 + (i + j) % 3) for j in range(12)] for i in range(12)]


def calibrate():
    """Seconds taken by the fixed calibration slice, with the collector off."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            for row in _CAL_ROWS:
                for col in _CAL_ROWS:
                    sum((a * b for a, b in zip(row, col)), Fraction(0))
        return time.perf_counter() - start
    finally:
        gc.enable()


class PassResult:
    """Raw and speed-scaled seconds of one pass, with each operation's output."""

    def __init__(self, n_ops):
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.op_scaled_s = [None] * n_ops     # None where the operation raised
        self.outputs = []

    def add(self, timed, before, after):
        """Scale (operation index, seconds) pairs by the slices around them."""
        factor = 2 * REFERENCE_CALIBRATION_S / (before + after)
        for index, seconds in timed:
            self.raw_s += seconds
            self.scaled_s += seconds * factor
            self.op_scaled_s[index] = seconds * factor


def pass_at_median(passes):
    """Seconds of one pass in which every operation takes its median time."""
    return sum(
        statistics.median(x for x in times if x is not None)
        for times in zip(*(p.op_scaled_s for p in passes))
        if any(x is not None for x in times)
    )


def run_pass(rk, ops, digests, tally, tracer=None):
    """One pass over the operations, checking every output."""
    result = PassResult(len(ops))
    before, pending = calibrate(), []
    for index, op in enumerate(ops):
        tally.attempted += 1
        if tracer is not None:
            tracer.begin_op(index)
        try:
            seconds, status, text = op.execute(rk)
        except Exception:  # a raising operation is a failed one; keep measuring
            problems, text = [traceback.format_exc(limit=3)], None
        else:
            problems = oracle.check(op, status, text, digests)
            pending.append((index, seconds))
        finally:
            if tracer is not None:
                tracer.end_op()
        if problems:
            tally.failed += 1
            tally.problems.append(f"{op.key}: " + "; ".join(problems))
        result.outputs.append(text)
        if pending and (sum(s for _, s in pending) >= CALIBRATE_EVERY_S or index == len(ops) - 1):
            after = calibrate()
            result.add(pending, before, after)
            before, pending = after, []
    return result


def setup_seconds(files):
    """(raw, scaled) seconds of one fresh-process set-up."""
    before = calibrate()
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *files],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=str(ROOT),
    )
    raw = float(out.stdout.strip().splitlines()[-1])
    return raw, raw * 2 * REFERENCE_CALIBRATION_S / (before + calibrate())


def tail_percentile(values):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < 1:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1]


def _describe(label, values, unit, raw=None):
    if not values:
        return f"{label}: no samples"
    line = f"{label}: median {statistics.median(values):.4f} {unit} over {len(values)} samples"
    tail = tail_percentile(values)
    line += "; no percentile has ten samples beyond it" if tail is None else \
        f"; p{tail[0]:.0f} {tail[1]:.4f} {unit}"
    if raw is not None:
        line += f" (unscaled median {statistics.median(raw):.4f} {unit})"
    return line


def _more(wall, deadline):
    """Whether another pass, as long as the slowest so far, ends by the deadline."""
    return time.perf_counter() + max(wall) <= deadline


def timed_run(rk, ops, files, digests, seconds, tally, lines):
    setups = [setup_seconds(files) for _ in range(SETUP_REPEATS)]
    passes, wall = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or _more(wall, deadline):
        start = time.perf_counter()
        passes.append(run_pass(rk, ops, digests, tally))
        wall.append(time.perf_counter() - start)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(s for _, s in setups),
        "wall_s": pass_at_median(passes),
        "peak_rss_mb": rss_mb,
    }
    lines.append(_describe("setup_s (fresh-process import + parse)",
                           [s for _, s in setups], "s", [r for r, _ in setups]))
    lines.append(f"wall_s (one pass at every operation's median time): {values['wall_s']:.4f} s "
                 f"over {len(passes)} passes")
    lines.append(_describe("pass time", [p.scaled_s for p in passes], "s", [p.raw_s for p in passes]))
    lines.append(_describe("operation latency",
                           [x for p in passes for x in p.op_scaled_s if x is not None], "s"))
    lines.append(f"peak_rss_mb: {rss_mb:.1f} MB")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _derived(summary):
    for name, entry in summary.items():
        calls = entry["calls"]
        if "macs" in entry:
            entry["useful_ratio"] = entry["useful"] / entry["macs"] if entry["macs"] else 0.0
        if name == "ratmat.solve":
            entry["repeat_lhs_ratio"] = entry.get("repeats", 0) / calls if calls else 0.0
        if name == "deloc.assemble_complex":
            entry["repeat_ratio"] = entry.get("repeats", 0) / calls if calls else 0.0
            cells = entry.get("constraint_cells", 0)
            entry["constraint_density"] = entry.get("constraint_nonzero", 0) / cells if cells else 0.0
    return summary


def _counts(summary):
    return {name: {k: v for k, v in entry.items() if k != "self_s"} for name, entry in summary.items()}


def traced_run(rk, ops, digests, seconds, tally, lines, workload, spans_path):
    """Alternate untraced and traced passes; returns (metrics, errors)."""
    tracer = Tracer(rk.package)
    untraced, traced, summaries, wall = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or _more(wall, deadline):
        start = time.perf_counter()
        untraced.append(run_pass(rk, ops, digests, tally))
        tracer.reset()
        tracer.install()
        try:
            result = run_pass(rk, ops, digests, tally, tracer)
        finally:
            tracer.uninstall()
        traced.append(result)
        wall.append(time.perf_counter() - start)
        # self times scaled like the pass they belong to
        summary = _derived(tracer.summary())
        for entry in summary.values():
            entry["self_s"] *= result.scaled_s / result.raw_s if result.raw_s else 1.0
        summaries.append(summary)
    tracer.write_spans(spans_path)

    errors = []
    if any(_counts(s) != _counts(summaries[0]) for s in summaries):
        errors.append("traced passes disagree on calls or computed counts")
    summary = summaries[-1]
    for name in summary:
        summary[name]["self_s"] = statistics.median(s[name]["self_s"] for s in summaries)
    errors += [f"{name} recorded no calls on {workload}"
               for name in MUST_REACH[workload] if summary[name]["calls"] == 0]

    pass_s = pass_at_median(traced)
    overhead = pass_s / pass_at_median(untraced)
    lines.append(f"traced passes: {len(traced)}, {pass_s:.4f} s at median operation times; "
                 f"untraced {pass_at_median(untraced):.4f} s; trace.overhead_ratio {overhead:.4f}")
    lines.append(f"{'layer':34} {'calls':>9} {'self_s':>10} {'share':>7}  counts")
    for name in WRAPPED:
        entry = summary[name]
        extra = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in sorted(entry.items()) if k not in ("calls", "self_s"))
        lines.append(f"{name:34} {entry['calls']:>9} {entry['self_s']:>10.4f} "
                     f"{entry['self_s'] / pass_s:>7.1%}  {extra}")
    lines.append(f"spans of the last traced pass: {spans_path}")

    metrics = {}
    for layer, field, unit, _ in PER_LAYER:
        value = overhead if layer == "trace" else summary[layer][field]
        metrics[f"{layer}.{field}"] = {"value": value, "unit": unit}
    return metrics, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rk = load_program()
    record = oracle.load_digests()
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=False)
    tally, lines, errors = Tally(), [], []
    try:
        ops = workloads.build(rk, args.workload, args.seed, workdir, record["random_pool"])
        files = sorted({op.path for op in ops})
        lines.append(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations "
                     f"per pass on {len(files)} descriptor files")
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}.jsonl"
            metrics, errors = traced_run(
                rk, ops, record["outputs"], args.seconds, tally, lines, args.workload, spans_path,
            )
        else:
            metrics = timed_run(rk, ops, files, record["outputs"], args.seconds, tally, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines.append(f"fail_rate: {tally.failed / tally.attempted:.4f} ratio "
                 f"({tally.failed} of {tally.attempted} operations failed)")
    for problem in tally.problems[:10] + errors:
        print(f"benchmark: {problem}", file=sys.stderr)
    for line in lines:
        print(line)
    correct = tally.failed == 0 and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
