"""The README's Python example runs and prints the values its comments show."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_example_values_match_comments():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = re.search(r"#\s*(\d+\.(\d+))", lines[node.end_lineno - 1])
            assert comment, f"README line {node.end_lineno} shows no value"
            text, decimals = comment.group(1), len(comment.group(2))
            assert f"{value:.{decimals}f}" == text, (lines[node.end_lineno - 1], value)
            shown.append(text)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert shown == ["10.000", "0.1088", "1.1788", "1.9275", "6.9732", "12.0424"]
