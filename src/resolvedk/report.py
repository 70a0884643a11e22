"""Accumulating validation reports.

Structural validators return a report listing every check with a pass/fail
flag and a human-readable detail, instead of stopping at the first failure.
A row that collects its failing items (generators, pairs, node labels) is
added by `add_failing`, whose detail names them after a label.  Operations
that require validity call `raise_first`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


class ValidationReport:
    __slots__ = ("checks",)

    def __init__(self):
        self.checks: List[Tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def add_failing(self, name: str, failing: Sequence, label: str) -> None:
        """The row `name`, failing when `failing` lists an item: detail `label [items]`."""
        self.checks.append((name, not failing, f"{label} {failing}" if failing else ""))

    def merge(self, other: "ValidationReport", prefix: str = "") -> None:
        for name, ok, detail in other.checks:
            self.checks.append((prefix + name if prefix else name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> List[Tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def __str__(self) -> str:
        if not self.checks:
            return "(no checks)"
        lines = []
        for name, ok, detail in self.checks:
            mark = "ok  " if ok else "FAIL"
            lines.append(f"[{mark}] {name}" + (f": {detail}" if detail else ""))
        return "\n".join(lines)

    def raise_first(self, error=ValueError) -> None:
        """Raise the first failing row as `row: detail`."""
        for name, detail in self.failures():
            raise error(f"{name}: {detail or 'fails'}")
