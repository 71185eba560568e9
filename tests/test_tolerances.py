"""The suite's own tolerances: every relative check states its absolute one."""

import ast
from pathlib import Path


def _approx_calls_without_abs(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            keywords = {k.arg for k in node.keywords}
            if name == "approx" and "rel" in keywords and "abs" not in keywords:
                yield f"{path.name}:{node.lineno}"


def test_every_relative_approx_states_abs():
    # pytest.approx(x, rel=r) keeps its default abs=1e-12 beside rel, which widens a
    # check on a value near or below 1e-12, or one at rel 1e-14 on a value near 1
    found = [where for path in sorted(Path(__file__).parent.glob("*.py"))
             for where in _approx_calls_without_abs(path)]
    assert found == []


def test_the_guard_sees_multi_line_calls(tmp_path):
    path = tmp_path / "case.py"
    path.write_text("import pytest\n"
                    "ok = pytest.approx(1.0, rel=1e-9, abs=0.0)\n"
                    "bare = pytest.approx(\n    1.0,\n    rel=1e-9,\n)\n")
    assert list(_approx_calls_without_abs(path)) == ["case.py:3"]
