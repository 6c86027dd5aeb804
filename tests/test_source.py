"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stackyrr"


def test_package_has_no_assert_statements():
    # `python -O` strips asserts; internal checks raise ConsistencyError instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cli_declares_its_oracles_through_agree():
    # a hand-written `raise ConsistencyError` would bypass `errors.agree`
    tree = ast.parse((SRC / "cli.py").read_text())
    raised = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and "ConsistencyError" in ast.unparse(node)
    ]
    assert raised == []
