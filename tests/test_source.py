"""Rules on the package source itself."""

import ast
import os
import subprocess
import sys
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


def test_package_does_not_import_dataclasses():
    # `dataclasses` drags in `inspect` and costs every CLI run its import;
    # records are `__slots__` classes with an explicit `__init__`
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert found == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site hooks of the host out of the measured import
    probe = "import stackyrr.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
