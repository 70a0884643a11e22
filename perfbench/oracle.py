"""Output checks against references that do not come from the code under test.

- closed forms derived in docs/ for the fixtures' delocalized dimensions;
- exactness and a vanishing alternating sum on every six-term step;
- equal dimensions and canonical bundles under two section systems;
- the SHA-256 of every JSON payload, recorded at the seed commit in
  digests.json, so that byte-identical output is checked on every run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import closed_form

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests():
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _rows_ok(rows):
    return all(ok for _, ok, _ in rows)


def _check_cli(op, payload):
    problems = []
    cf = closed_form(op.fixture, op.window) if op.fixture else None
    if op.command == "compare":
        if not payload["ok"] or not _rows_ok(payload["report"]):
            problems.append("comparison report failed")
        got = [payload["even"]["rational_k"], payload["even"]["delocalized"],
               payload["odd"]["rational_k"], payload["odd"]["delocalized"]]
        if got != [cf[0], cf[0], cf[1], cf[1]]:
            problems.append(f"compare dims {got}, closed form {list(cf)}")
    elif op.command == "kred":
        got = (payload["global"]["even"], payload["global"]["odd"])
        if got != cf:
            problems.append(f"kred global {got}, closed form {cf}")
        if not _rows_ok(payload["checks"]):
            problems.append("kred hexagon checks failed")
    elif op.command == "stabilize":
        want = [[r, *closed_form(op.fixture, r)] for r in range(op.window + 1)]
        if payload["rows"] != want:
            problems.append(f"stabilize rows {payload['rows']}, closed forms {want}")
    elif op.command == "ch":
        if not payload["bundles"]:
            problems.append("no bundles reported")
        for name, entry in payload["bundles"].items():
            if not (entry["closed"] and entry["compatible"]):
                problems.append(f"bundle {name} not closed and compatible")
    elif op.command == "les":
        if len(payload["steps"]) != len(op.prune):
            problems.append("les reported the wrong number of steps")
        for step in payload["steps"]:
            dims = step["dims"]
            if not step["exact"] or not _rows_ok(step["report"]):
                problems.append(f"step +{step['added']} not exact")
            if sum(d if k % 2 == 0 else -d for k, d in enumerate(dims)) != 0:
                problems.append(f"step +{step['added']} alternating sum of {dims} is not 0")
    return problems


def _check_trial(op, record):
    problems = []
    (d1, d2), (b1, b2) = record["dims"], record["bundles"]
    cf = list(closed_form(op.fixture, op.radius))
    if not d1 == d2 == cf:
        problems.append(f"dims {d1} and {d2} under two sections, closed form {cf}")
    if b1 != b2:
        problems.append("canonical bundles differ between the two sections")
    return problems


def canonical_trial_text(record):
    """The section-independent part of a trial's output."""
    return json.dumps({"dims": record["dims"][0], "bundle": record["bundles"][0]}, sort_keys=True)


def content_problems(op, status, text):
    """Problems found by the closed forms and structural checks."""
    if status != 0:
        return [f"exit status {status}"]
    record = json.loads(text)
    return _check_trial(op, record) if op.kind == "trial" else _check_cli(op, record)


def digest_of(op, text):
    """(digest key, SHA-256) of one operation's output."""
    if op.kind == "trial":
        return op.digest_key, sha256(canonical_trial_text(json.loads(text)))
    return op.key, sha256(text)


def check(op, status, text, digests):
    """List of problems with one operation's output (empty when correct)."""
    problems = content_problems(op, status, text)
    if status != 0:
        return problems
    key, got = digest_of(op, text)
    want = digests.get(key)
    if want is None:
        problems.append(f"no recorded digest for {key}")
    elif got != want:
        problems.append(f"output digest {got[:12]} differs from the recorded {want[:12]}")
    return problems
