"""Every mutant in `mutants.py` still names one exact place in the source."""

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_snippet_occurs_exactly_once_under_src(mutant):
    counts = {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8").count(mutant.snippet)
        for path in (ROOT / "src").rglob("*.py")
    }
    assert {path: n for path, n in counts.items() if n} == {mutant.path: 1}
    assert mutant.snippet != mutant.replacement
