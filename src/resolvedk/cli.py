"""Command-line interface.

    resolvedk <command> [--input FILE] [--window M] [--prune NODE]...
                        [--relative NODE]... [--format json|table]

Commands:

- ``validate``   run every structural and compatibility check
- ``kred``       graded K-group ranks per node, plus global rational K
- ``deloc``      assemble the delocalized complex and report dimensions
- ``ch``         Chern characters of all declared bundles
- ``compare``    rank equality between the K side and the delocalized side
- ``les``        six-term sequences re-adding the --prune nodes one by one
- ``stabilize``  scan dimensions over growing windows
- ``example``    list built-in fixtures, or emit one as a descriptor file

``--input`` takes a descriptor file, or ``fixture:NAME`` /
``fixture:NAME:key=value,...`` for a built-in fixture.  ``--relative``
removes nodes from the assembled complex (relative cohomology); ``--prune``
names the nodes whose pruning sequences ``les`` reports.  A flag the
command does not read (``--prune`` outside ``les``, ``--relative`` with
``validate`` or ``les``, any flag but ``--format`` with ``example``) is an
input error.

Exit status: 0 on success, 1 on mathematical failure (a failed check or an
inexact sequence), 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .action import ResolvedAction, WindowError
from .deloc import (
    assemble_complex,
    chern_character,
    compare_ranks,
    deloc_cohomology,
    pruning_walk,
    window_stabilization,
)
from .descriptor import (
    ActionDescriptor,
    FIXTURE_NAMES,
    generate_fixture,
    parse_descriptor,
    serialize_descriptor,
)
from .itspace import downward_closed
from .ktheory import LES_LABELS, action_node_k, rational_global_k

COMMANDS = ("validate", "kred", "deloc", "ch", "compare", "les", "stabilize", "example")

OK, MATH_FAILURE, INPUT_ERROR = 0, 1, 2


class CommandResult:
    """Exit status plus a JSON-able payload and preformatted table lines."""

    __slots__ = ("status", "payload", "lines")

    def __init__(self, status: int, payload: Dict, lines: List[str]):
        self.status = status
        self.payload = payload
        self.lines = lines


def _coords_key(coords: Sequence) -> str:
    return "(" + ",".join(str(int(x)) for x in coords) + ")"


def _report_rows(report) -> List[List]:
    return [[name, ok, detail] for name, ok, detail in report.checks]


def _report_lines(report) -> List[str]:
    out = []
    for name, ok, detail in report.checks:
        mark = "ok  " if ok else "FAIL"
        out.append(f"{mark} {name}" + (f": {detail}" if detail and not ok else ""))
    return out


def _note_lines(action: ResolvedAction) -> List[str]:
    return [f"note: {n}" for n in action.notes]


def run(command: str, desc: ActionDescriptor, flags: argparse.Namespace) -> CommandResult:
    """Execute one descriptor command.  May raise input-level ValueErrors."""
    action = desc.action
    removed = tuple(flags.relative)
    if flags.prune and command != "les":
        raise ValueError(f"{command} does not take --prune; only les does")
    if removed and command in ("validate", "les"):
        raise ValueError(f"{command} does not take --relative")
    payload: Dict = {"command": command}
    if flags.window is not None:
        payload["window"] = flags.window
    if removed:
        payload["relative"] = sorted(set(removed))
    # validate reports its window rows, but a negative --window is bad input as in the gate
    if command == "validate" and flags.window is not None and flags.window < 0:
        action.window_rows(flags.window)[1].raise_first(WindowError)

    if command == "validate":
        report = action.validate(flags.window)
        payload["ok"] = report.ok
        payload["report"] = _report_rows(report)
        payload["notes"] = list(action.notes)
        lines = _report_lines(report) + _note_lines(action)
        lines.append("validation passed" if report.ok else "validation FAILED")
        return CommandResult(OK if report.ok else MATH_FAILURE, payload, lines)

    if command == "kred":
        # first, so that its input checks run before any node row
        asm = assemble_complex(action, prune=removed, radius=flags.window)
        dims, checks = rational_global_k(asm)
        windows = asm.windows
        nodes = {}
        lines = []
        for label in sorted(action.tree.nodes):
            even, odd = action_node_k(action, label, windows)
            nodes[label] = {
                "window_size": len(windows[label]),
                "even_rank": even,
                "odd_rank": odd,
            }
            lines.append(
                f"node {label}: window {len(windows[label])}, "
                f"K ranks even {even}, odd {odd}"
            )
        payload["nodes"] = nodes
        payload["global"] = {
            "even": dims.even,
            "odd": dims.odd,
            "sectors": {
                _coords_key(chi.coords): list(pair) for chi, pair in dims.sectors.items()
            },
        }
        payload["checks"] = _report_rows(checks)
        payload["notes"] = list(action.notes)
        lines.append(f"global rational K: even {dims.even}, odd {dims.odd}")
        lines += _report_lines(checks) + _note_lines(action)
        # rational_global_k returns only when every summed row holds
        return CommandResult(OK, payload, lines)

    if command == "deloc":
        asm = assemble_complex(action, prune=removed, radius=flags.window)
        dims = deloc_cohomology(asm)
        payload["sectors"] = {
            _coords_key(chi.coords): list(pair) for chi, pair in dims.sectors.items()
        }
        payload["even"] = dims.even
        payload["odd"] = dims.odd
        payload["notes"] = list(action.notes)
        lines = [
            f"sector {key}: even {pair[0]}, odd {pair[1]}"
            for key, pair in sorted(payload["sectors"].items())
        ]
        lines.append(f"total: even {dims.even}, odd {dims.odd}")
        declared = (action.expected or {}).get("deloc_dims_by_radius", {})
        if flags.window is not None and not removed and str(flags.window) in declared:
            payload["declared"] = list(declared[str(flags.window)])
            lines.append(f"declared: {payload['declared']}")
        lines += _note_lines(action)
        return CommandResult(OK, payload, lines)

    if command == "ch":
        cocycles = chern_character(
            action, sorted(action.bundles), prune=removed, radius=flags.window
        )
        bundles = {}
        lines = [] if cocycles else ["descriptor declares no bundles"]
        for cocycle in cocycles:
            name = cocycle.name
            per_node: Dict[str, Dict[str, List[str]]] = {}
            for label in sorted(cocycle.kept):
                values = {}
                for khat in cocycle.windows[label]:
                    vec = cocycle.node_value(label, khat)
                    if any(vec):
                        values[_coords_key(khat.coords)] = [str(x) for x in vec]
                per_node[label] = values
                for key, vals in sorted(values.items()):
                    lines.append(f"{name} @ {label} {key}: ({', '.join(vals)})")
            bundles[name] = {"nodes": per_node, "closed": True, "compatible": True}
            lines.append(f"{name}: closed and compatible across all faces")
        payload["bundles"] = bundles
        return CommandResult(OK, payload, lines)

    if command == "compare":
        report, dims = compare_ranks(assemble_complex(action, prune=removed, radius=flags.window))
        if report.ok:
            payload["even"] = {"rational_k": dims.even, "delocalized": dims.even}
            payload["odd"] = {"rational_k": dims.odd, "delocalized": dims.odd}
        payload["ok"] = report.ok
        payload["report"] = _report_rows(report)
        payload["notes"] = list(action.notes)
        lines = _report_lines(report)
        if report.ok:
            lines.append(f"even {dims.even} = {dims.even}, odd {dims.odd} = {dims.odd}")
        lines += _note_lines(action)
        lines.append("ranks agree" if report.ok else "rank comparison FAILED")
        return CommandResult(OK if report.ok else MATH_FAILURE, payload, lines)

    if command == "les":
        if not flags.prune:
            raise ValueError("les needs at least one --prune NODE")
        unknown = sorted(set(flags.prune) - set(action.tree.nodes))
        if unknown:
            raise ValueError(f"--prune names unknown node(s) {unknown}")
        removed_set = set(flags.prune)
        first = next(n for n in action.tree.labels_by_depth() if n in removed_set)
        # the first step is checked before the starting kept set, so a bad
        # --prune set is reported by a node that step does not restore
        downward_closed(action.tree, (set(action.tree.nodes) - removed_set) | {first})
        sub = assemble_complex(action, prune=removed_set, radius=flags.window)
        steps = []
        lines = []
        status = OK
        for les in pruning_walk(sub, sub.full):
            exact = les.report.ok
            steps.append({
                "added": les.alpha,
                "labels": list(LES_LABELS),
                "dims": list(les.instance.dims),
                "exact": exact,
                "report": _report_rows(les.report),
            })
            dim_text = ", ".join(
                f"{lab} {d}" for lab, d in zip(LES_LABELS, les.instance.dims)
            )
            lines.append(f"step +{les.alpha}: {dim_text}")
            lines.append(
                f"step +{les.alpha}: " + ("exact six-term sequence" if exact else "NOT exact")
            )
            if not exact:
                lines += _report_lines(les.report)
                status = MATH_FAILURE
        payload["steps"] = steps
        payload["notes"] = list(action.notes)
        lines += _note_lines(action)
        return CommandResult(status, payload, lines)

    if command == "stabilize":
        top = flags.window if flags.window is not None else 3
        scan = window_stabilization(action, top, prune=removed)
        payload["rows"] = [list(row) for row in scan.rows]
        payload["stabilized"] = scan.stabilized
        payload["notes"] = list(action.notes)
        lines = ["radius  even  odd"]
        for r, even, odd in scan.rows:
            lines.append(f"{r:>6}  {even:>4}  {odd:>3}")
        lines.append(f"stabilized: {scan.stabilized}")
        lines += _note_lines(action)
        return CommandResult(OK, payload, lines)

    raise ValueError(f"unknown command {command!r}")


# -- input plumbing ----------------------------------------------------------------


def _parse_fixture_params(text: str) -> Dict:
    params: Dict = {}
    for item in text.split(","):
        key, eq, value = item.partition("=")
        if not eq or not key or not value:
            raise ValueError(f"bad fixture parameter {item!r}; use key=value")
        if key in params:
            raise ValueError(f"fixture parameter {key!r} given twice")
        parts = value.split("+")
        try:
            numbers = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"fixture parameter {key!r} must be an integer or a+b+c list")
        params[key] = numbers if len(numbers) > 1 or key == "torsion" else numbers[0]
    return params


def _fixture_from_spec(spec: str) -> ActionDescriptor:
    name, colon, param_text = spec.partition(":")
    params = _parse_fixture_params(param_text) if colon and param_text else {}
    return generate_fixture(name, params)


def _load_descriptor(value: Optional[str]) -> ActionDescriptor:
    if value is None:
        raise ValueError("this command needs --input FILE (or --input fixture:NAME)")
    if value.startswith("fixture:"):
        return _fixture_from_spec(value[len("fixture:"):])
    try:
        with open(value, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {value!r}: {exc.strerror or exc}") from exc
    return parse_descriptor(text)


def _rendered(fmt: str, result: CommandResult) -> str:
    if fmt == "json":
        return json.dumps(result.payload, indent=2, sort_keys=True) + "\n"
    return "".join(line + "\n" for line in result.lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resolvedk",
        description="Equivariant K-theory and delocalized cohomology of resolved abelian actions.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument(
        "name",
        nargs="?",
        help="fixture name for the example command (NAME or NAME:key=value,...)",
    )
    parser.add_argument("--input", metavar="FILE", help="descriptor file or fixture:NAME")
    parser.add_argument("--window", type=int, metavar="M", help="window radius override")
    parser.add_argument(
        "--prune", action="append", default=[], metavar="NODE",
        help="node whose pruning step to report (les; repeatable)",
    )
    parser.add_argument(
        "--relative", action="append", default=[], metavar="NODE",
        help="node removed from the assembled complex (repeatable)",
    )
    parser.add_argument(
        "--format", choices=("json", "table"), default="table", dest="fmt",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        status, text = _execute(build_parser().parse_args(argv))
    except ArithmeticError as exc:
        # an inexact sequence or failed cross-check detected mid-computation
        print(f"resolvedk: {exc}", file=err)
        return MATH_FAILURE
    except ValueError as exc:  # WindowError and DescriptorError included
        print(f"resolvedk: {exc}", file=err)
        return INPUT_ERROR
    try:
        out.write(text)
        out.flush()
    except BrokenPipeError:
        # the reader has gone (`| head`): the rest of the output is dropped,
        # and stdout points at os.devnull so that the flush at exit cannot
        # fail again
        if out is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
    return status


def _execute(args: argparse.Namespace) -> Tuple[int, str]:
    """(exit status, standard output) of one command line.

    Raises ValueError on an input error and ArithmeticError on a failure
    detected mid-computation.
    """
    if args.command == "example":
        for flag in ("input", "window", "prune", "relative"):
            if getattr(args, flag) not in (None, []):
                raise ValueError(f"example does not take --{flag}")
        if args.name is None:
            names = list(FIXTURE_NAMES)
            return OK, _rendered(args.fmt, CommandResult(OK, {"command": "example", "fixtures": names}, names))
        return OK, serialize_descriptor(_fixture_from_spec(args.name))
    if args.name is not None:
        raise ValueError("only the example command takes a positional name")
    result = run(args.command, _load_descriptor(args.input), args)
    return result.status, _rendered(args.fmt, result)


if __name__ == "__main__":
    sys.exit(main())
