"""The README's Library block runs as written and gives the values its
comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    found = re.search(r"^## Library\n\n```python\n(.*?)^```", text,
                      re.MULTILINE | re.DOTALL)
    assert found, "README.md has no python block under ## Library"
    return found.group(1)


def test_library_block_runs_as_commented():
    env: dict = {}
    values = []
    for stmt in ast.parse(_library_block()).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values.append(eval(code, env))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), env)
    # check("l-bisim", ...).verdict, check("async", ...).verdict,
    # verify_witness(...)
    assert len(values) == 3 and all(v is True for v in values)
    r = env["r"]
    assert r.verdict is False and r.witness
