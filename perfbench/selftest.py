"""Self-test of the benchmark on reduced-size workloads.

    python3 perfbench/selftest.py

For each workload it checks that a reduced pass completes with every output
correct, that a traced and an untraced pass give identical output digests,
and that two traced passes on inputs generated twice from the same seed
record exactly the same calls and computed counts.  It also checks that the
metric names in BENCHMARK.json are the ones run.py reports.  Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import oracle
import run
import workloads
from tracer import Tracer

SEED = 7


def _traced_pass(rk, tracer, ops, digests, tally):
    tracer.reset()
    tracer.install()
    try:
        outputs = run.run_pass(rk, ops, digests, tally, tracer).outputs
    finally:
        tracer.uninstall()
    return outputs, run._counts(run._derived(tracer.summary()))


def check_workload(rk, tracer, workload, record, workdir):
    digests = record["outputs"]
    tally = run.Tally()
    builds = []
    for copy in range(2):
        path = workdir / f"{workload}-{copy}"
        path.mkdir()
        builds.append(workloads.build(rk, workload, SEED, path, record["random_pool"], reduced=True))
    plain = run.run_pass(rk, builds[0], digests, tally).outputs
    traced, counts = _traced_pass(rk, tracer, builds[0], digests, tally)
    _, counts_again = _traced_pass(rk, tracer, builds[1], digests, tally)

    failures = list(tally.problems)
    if [oracle.sha256(t or "") for t in plain] != [oracle.sha256(t or "") for t in traced]:
        failures.append("traced and untraced outputs differ")
    if counts != counts_again:
        failures.append("two traced passes recorded different calls or counts")
    if not any(entry["calls"] for entry in counts.values()):
        failures.append("the traced pass recorded no calls")
    return failures


def check_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = []
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    if e2e != list(run.END_TO_END):
        failures.append(f"BENCHMARK.json end_to_end {e2e} differs from run.py {list(run.END_TO_END)}")
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    want = [(f"{layer}.{field}", unit, better) for layer, field, unit, better in run.PER_LAYER]
    if layers != want:
        failures.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return failures


def main():
    rk = run.load_program()
    tracer = Tracer(rk.package)
    record = oracle.load_digests()
    workdir = run.WORK / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    failures = check_benchmark_json()
    try:
        for workload in workloads.WORKLOADS:
            problems = check_workload(rk, tracer, workload, record, workdir)
            print(f"{workload}: {'ok' if not problems else 'FAILED'}")
            failures += [f"{workload}: {p}" for p in problems]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print(f"selftest: {failure}", file=sys.stderr)
    print("selftest passed" if not failures else "selftest FAILED")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
