"""The README's Python example runs and prints the values its comments show, and
its command lines parse."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from gbmsum import cli

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


def test_command_lines_parse():
    # every `gbmsum ...` line of the bash blocks, continuations joined and comments
    # dropped, must parse: a renamed or removed flag fails here; nothing is run
    text = "".join(re.findall(r"```bash\n(.*?)```", README.read_text(), re.S))
    lines = [shlex.split(line, comments=True) for line in text.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["gbmsum"]]
    for argv in commands:
        try:
            args = cli._build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: gbmsum {shlex.join(argv)}")
        assert args.func.__name__ == f"cmd_{argv[0]}"
    assert [argv[0] for argv in commands] == ["density", "density", "asian", "annuity",
                                              "calibrate", "moments", "mc", "batch"]
