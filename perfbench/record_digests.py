"""Record digests.json: the reference output digests and the random pool.

    python3 perfbench/record_digests.py

Run on the commit whose outputs are the reference (the seed commit); later
commits must reproduce them byte for byte.  For every pool seed of
workloads.RANDOM_POOL whose stratum is in workloads.RANDOM_MIX, the stratum
is recorded and the digest of its ``les`` payload.  Every output must pass
the closed-form and structural checks before its digest is recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import oracle
import run
import workloads


def main():
    rk = run.load_program()
    workdir = run.WORK / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        pool = {workloads.stratum_key(key): [] for key in workloads.RANDOM_MIX}
        ops = []
        for seed in workloads.RANDOM_POOL:
            op, got = workloads.random_les_op(rk, workdir, seed)
            if workloads.stratum_key(got) in pool:
                pool[workloads.stratum_key(got)].append(seed)
                ops.append(op)
        ops += workloads.build(rk, "verify_fixtures", 0, workdir, pool)
        ops += workloads.build(rk, "window_scan", 0, workdir, pool)
        for key, radius, bundle in workloads.TRIAL_CASES:
            name, params = workloads.FIXTURES[key]
            path = workloads.write_descriptor(rk, workdir, key, rk.descriptor.generate_fixture(name, params).action)
            ops.append(workloads.TrialOp(0, key, path, radius, bundle, [{}, {}]))
        outputs = {}
        for op in ops:
            _, status, text = op.execute(rk)
            problems = oracle.content_problems(op, status, text)
            if problems:
                raise SystemExit(f"{op.key}: " + "; ".join(problems))
            key, digest = oracle.digest_of(op, text)
            outputs[key] = digest
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(oracle.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"random_pool": pool, "outputs": outputs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(outputs)} digests, pool of {sum(map(len, pool.values()))} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
