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


def test_one_elimination_routine_and_no_linear_algebra_in_cyclonum():
    # subfield coordinates are read off the CRT split, so cyclonum solves no
    # system; exactlinalg.exact_rank is the package's only elimination
    cyclonum = ast.parse((SRC / "cyclonum.py").read_text())
    imported = [
        node.lineno
        for node in ast.walk(cyclonum)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("exactlinalg")
        or isinstance(node, ast.Import) and any(a.name.endswith("exactlinalg") for a in node.names)
    ]
    assert imported == []
    defined = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef)
        and node.name in {"_subfield_solver", "_express_in_subfield", "forward_eliminate"}
    ]
    assert defined == []


def test_one_polynomial_reduction_and_phi_without_recursion_in_cyclonum():
    # Phi_n is a Moebius product of binomials, so the `_reductions` rows are
    # the only reduction modulo a polynomial and no divisor recursion is left
    defined = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "_poly_divmod"
    ]
    assert defined == []
    cyclonum = ast.parse((SRC / "cyclonum.py").read_text())
    phi = [node for node in ast.walk(cyclonum)
           if isinstance(node, ast.FunctionDef) and node.name == "cyclotomic_polynomial"]
    assert len(phi) == 1
    called = [ast.unparse(node.func) for node in ast.walk(phi[0]) if isinstance(node, ast.Call)]
    assert "cyclotomic_polynomial" not in called


def test_one_builder_for_fixed_point_sets():
    # `inertia` and every tower level come from `_level_above`; no other
    # function constructs a `TowerLevel` or defines its own inertia class
    built, classes = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name != "_level_above":
                built += [
                    f"{path.name}:{func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call) and ast.unparse(node.func) == "TowerLevel"
                ]
        classes += [
            f"{path.name}:{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "InertiaSet"
        ]
    assert built == [] and classes == []


def test_only_the_tower_builds_a_level():
    # `inertia(B)` is the tower's level 1 on B, so no second build of it can
    # be compared with the first
    tree = ast.parse((SRC / "groupoidstack.py").read_text())
    callers = sorted({
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_level_above"
    })
    assert callers == ["iterated_inertia"]


def test_cli_builds_its_job_spec_in_main_only():
    # `main` fills one JobSpec from the parsed arguments; no second builder
    tree = ast.parse((SRC / "cli.py").read_text())
    defined = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert "main" in defined and "jobspec_from_args" not in defined


def test_tower_levels_hold_no_position_array_and_stabilizers_read_no_action_table():
    # a level is its points: nothing reads a `pos` array, and the stabilizers
    # of the tower and of the tuple counts come from the orbit sweep, not `act`
    readers = {"_level_above", "stabilizer_elements", "_tuple_counts"}
    pos, act, seen = [], [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        pos += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "pos"]
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name in readers:
                seen.add(func.name)
                act += [f"{path.name}:{func.name}" for node in ast.walk(func)
                        if isinstance(node, ast.Attribute) and node.attr == "act"]
    assert seen == readers and pos == [] and act == []


def test_only_the_brute_count_compares_rows_with_columns():
    # `commute_masks` reads the class sweep; the row-against-column masks and
    # every `itemgetter` row gather each have one home in the package
    readers, getters = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)]
                names = [ast.unparse(node.func) for node in calls]
                readers += [f"{path.name}:{func.name}" for name in names if name == "_commute_masks"]
                getters += [f"{path.name}:{func.name}" for node, name in zip(calls, names)
                            if name == "itemgetter" and any(isinstance(a, ast.Starred) for a in node.args)]
    assert readers == ["grouptheory.py:_commuting_brute"]
    assert getters == ["grouptheory.py:_gather"]


def test_one_orbit_table():
    # conjugacy classes and a G-set's orbits are one type, which only the
    # orbit sweep builds; the class-only table and its mask routine are gone
    tables, built, gone = [], [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        gone += [f"{path.name}:{name}" for name in ("ConjClassTable", "_class_masks") if name in text]
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, ast.ClassDef):
                slots = [stmt.value for stmt in node.body if isinstance(stmt, ast.Assign)
                         and ast.unparse(stmt.targets[0]) == "__slots__"]
                names = {leaf.value for value in slots for leaf in ast.walk(value)
                         if isinstance(leaf, ast.Constant)}
                if names & {"orbits", "classes", "orbit_of", "class_of"}:
                    tables.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.FunctionDef):
                built += [f"{path.name}:{node.name}" for call in ast.walk(node)
                          if isinstance(call, ast.Call) and ast.unparse(call.func) == "OrbitDecomposition"]
    assert tables == ["grouptheory.py:OrbitDecomposition"]
    assert built == ["grouptheory.py:_action_orbits"] and gone == []
