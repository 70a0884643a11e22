"""The README's library quick start runs, and prints what its comments say.

Each `print(...)` line of the README's Python block ends in a comment giving
its output; the block is run statement by statement and every such comment
is compared with what its line prints.
"""

import ast
import contextlib
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1, "README should hold one Python block"
    return blocks[0]


def _comments(source: str) -> dict:
    """Line number -> text of the comment ending that line."""
    return {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }


def test_readme_quick_start_prints_its_comments():
    source = _python_block()
    comments = _comments(source)
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
        is_print = (
            isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            and getattr(stmt.value.func, "id", None) == "print"
        )
        if is_print:
            assert stmt.lineno in comments, f"line {stmt.lineno} prints without saying what"
            assert out.getvalue().strip() == comments[stmt.lineno], f"line {stmt.lineno}"
            checked += 1
    assert checked >= 4
