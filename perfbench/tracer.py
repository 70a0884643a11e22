"""Span tracer that wraps resolvedk's public functions from outside.

The tracer patches each wrapped function in the module that defines it and
in every resolvedk module that bound the same object by ``from .x import y``
at import time, so calls made through any of those names are recorded.
Methods are patched on their class.  ``uninstall`` restores every original.

One span is recorded per wrapped call: (name, start, end, cover_end, parent,
op).  ``cover_end`` is ``end`` plus the time the tracer spent computing the
call's counts, so that bookkeeping is not charged to the parent's self time.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import time
from collections import defaultdict

# layer metric prefix -> (module, qualified name).  "Class.method" is patched
# on the class; QuotientSpace.__init__ counts QuotientSpace constructions.
WRAPPED = {
    "ratmat.matmul": ("ratmat", "RationalMatrix.__matmul__"),
    "ratmat.apply": ("ratmat", "RationalMatrix.apply"),
    "ratmat.rref": ("ratmat", "rref"),
    "ratmat.solve": ("ratmat", "solve"),
    "ratmat.nullspace_basis": ("ratmat", "nullspace_basis"),
    "ratmat.QuotientSpace": ("ratmat", "QuotientSpace.__init__"),
    "fgab.smith_normal_form": ("fgab", "smith_normal_form"),
    "chargroup.section": ("chargroup", "section"),
    "chargroup.kernel_coordinates": ("chargroup", "SubgroupDatum.kernel_coordinates"),
    "action.windows": ("action", "ResolvedAction.windows"),
    "descriptor.parse_descriptor": ("descriptor", "parse_descriptor"),
    "deloc.assemble_complex": ("deloc", "assemble_complex"),
    "deloc.cocycles": ("deloc", "TwoPeriodicComplex.cocycles"),
    "deloc.boundaries": ("deloc", "TwoPeriodicComplex.boundaries"),
    "deloc.class_coords": ("deloc", "TwoPeriodicComplex.class_coords"),
    "deloc.class_representatives": ("deloc", "TwoPeriodicComplex.class_representatives"),
    "deloc.les_of_pruning": ("deloc", "les_of_pruning"),
    "deloc.deloc_cohomology": ("deloc", "deloc_cohomology"),
    "deloc.chern_character": ("deloc", "chern_character"),
    "deloc.compare_ranks": ("deloc", "compare_ranks"),
    "ktheory.action_node_k": ("ktheory", "action_node_k"),
    "ktheory.rational_global_k": ("ktheory", "rational_global_k"),
    "ktheory.hexagon_check": ("ktheory", "hexagon_check"),
    "redbun.canonical_bundle": ("redbun", "canonical_bundle"),
    "redbun.canonicalize": ("redbun", "canonicalize"),
    "cli.run": ("cli", "run"),
}


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _nonzero_per_column(rows, ncols):
    counts = [0] * ncols
    for row in rows:
        for j, x in enumerate(row):
            if x:
                counts[j] += 1
    return counts


# -- per-call counters: (tracer, args, kwargs, result) -> None -------------------


def _count_matmul(tr, args, kwargs, out):
    a, b = args
    col_nnz = _nonzero_per_column(a._rows, a.ncols)
    tr.add("ratmat.matmul", "macs", a.nrows * a.ncols * b.ncols)
    tr.add("ratmat.matmul", "useful", sum(
        c * sum(1 for x in row if x) for c, row in zip(col_nnz, b._rows)
    ))


def _count_apply(tr, args, kwargs, out):
    a, vec = args
    col_nnz = _nonzero_per_column(a._rows, a.ncols)
    tr.add("ratmat.apply", "macs", a.nrows * a.ncols)
    tr.add("ratmat.apply", "useful", sum(c for c, x in zip(col_nnz, vec) if x))


def _count_rref(tr, args, kwargs, out):
    mat = args[0]
    tr.add("ratmat.rref", "cells", mat.nrows * mat.ncols)
    red = out[0]
    tr.peak("ratmat.rref", "max_bits", max(
        (_bits(x) for row in red._rows for x in row), default=0
    ))


def _count_solve(tr, args, kwargs, out):
    mat = args[0]
    seen = tr.op_state.setdefault("solve", ({}, set()))
    by_id, contents = seen
    # objects keyed by id() are kept alive until the operation ends, so that
    # an id is never reused for a different matrix or action within it
    key = by_id.get(id(mat))
    if key is None:
        key = (mat.ncols, mat._rows)
        by_id[id(mat)] = key
        tr.op_state.setdefault("keepalive", []).append(mat)
    if key in contents:
        tr.add("ratmat.solve", "repeats", 1)
    else:
        contents.add(key)


def _count_snf(tr, args, kwargs, out):
    mat = args[0]
    tr.add("fgab.smith_normal_form", "cells", mat.nrows * mat.ncols)


def _sections_key(sections):
    if not sections:
        return None
    return tuple(sorted(
        (label, tuple(sorted((b.coords, g.coords) for b, g in sec.table.items())))
        for label, sec in sections.items()
    ))


def _count_assemble(tr, args, kwargs, out):
    bound = dict(zip(("action", "prune", "radius", "sections"), args))
    bound.update(kwargs)
    key = (
        id(bound["action"]),
        frozenset(bound.get("prune", ())),
        bound.get("radius"),
        _sections_key(bound.get("sections")),
    )
    seen = tr.op_state.setdefault("assemble", set())
    if key in seen:
        tr.add("deloc.assemble_complex", "repeats", 1)
    seen.add(key)
    tr.op_state.setdefault("keepalive", []).append(bound["action"])
    cells = nonzero = 0
    for sec in out.sectors.values():
        tr.add("deloc.assemble_complex", "coords", sec.total)
        con = sec.constraint
        cells += con.nrows * con.ncols
        nonzero += sum(1 for row in con._rows for x in row if x)
    tr.add("deloc.assemble_complex", "constraint_cells", cells)
    tr.add("deloc.assemble_complex", "constraint_nonzero", nonzero)


COUNTERS = {
    "ratmat.matmul": _count_matmul,
    "ratmat.apply": _count_apply,
    "ratmat.rref": _count_rref,
    "ratmat.solve": _count_solve,
    "fgab.smith_normal_form": _count_snf,
    "deloc.assemble_complex": _count_assemble,
}


def _resolve(module, qualname):
    obj = module
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Installs span-recording wrappers; holds the spans of one traced pass."""

    def __init__(self, package):
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        self.names = list(WRAPPED)
        self._patches = []          # (owner, attribute, original)
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.op_state = {}
        self._stack = []
        self._op = -1
        # resolve every wrapped name now, so a renamed function fails at start-up
        self._originals = {}
        for name, (modname, qualname) in WRAPPED.items():
            module = importlib.import_module(f"{package.__name__}.{modname}")
            try:
                target = _resolve(module, qualname)
            except AttributeError as exc:
                raise RuntimeError(f"wrapped name {modname}.{qualname} does not resolve") from exc
            if not callable(target):
                raise RuntimeError(f"wrapped name {modname}.{qualname} is not callable")
            self._originals[name] = (module, qualname, target)

    # -- counters used by COUNTERS ------------------------------------------------

    def add(self, name, key, value):
        self.counts[name][key] += value

    def peak(self, name, key, value):
        if value > self.counts[name][key]:
            self.counts[name][key] = value

    # -- installation ---------------------------------------------------------------

    def _wrapper(self, index, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, end, parent, self._op)
            if counter is not None:
                counter(self, args, kwargs, out)
                spans[slot] = (index, start, end, clock(), parent, self._op)
            return out

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for index, name in enumerate(self.names):
            module, qualname, original = self._originals[name]
            wrapper = self._wrapper(index, name, original)
            owner_path, _, attr = qualname.rpartition(".")
            if owner_path:
                self._patch(_resolve(module, owner_path), attr, wrapper)
                continue
            bound = 0
            for mod in self.modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{name}: no module binds the wrapped function")

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- one traced pass --------------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.op_state = {}
        self._op = -1

    def begin_op(self, op_index):
        self._op = op_index
        self.op_state = {}

    def end_op(self):
        self._op = -1
        self.op_state = {}

    def summary(self):
        """Per-name calls, self seconds and counters of the recorded spans."""
        child_cover = [0.0] * len(self.spans)
        for index, start, end, cover_end, parent, op in self.spans:
            if parent >= 0:
                child_cover[parent] += cover_end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for slot, (index, start, end, cover_end, parent, op) in enumerate(self.spans):
            entry = out[self.names[index]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_cover[slot]
        for name, counts in self.counts.items():
            out[name].update(counts)
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, start, end, cover_end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": self.names[index], "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")
