import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "cvwitness").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_parse_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10, and the tests run on a later
    # Python, which would accept syntax that 3.10 refuses
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def scipy_imports(path):
    """(module, name) of each import of a scipy module or name in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "scipy"]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "scipy"):
            found += [(node.module, a.name) for a in node.names]
    return found


def test_runtime_scipy_is_at_most_one_import():
    # witness.py's brentq is the one runtime use of SciPy, so a SciPy-free
    # package stays a one-module change; no import at all passes too
    found = {path.name: scipy_imports(path) for path in SOURCES}
    assert {name: f for name, f in found.items() if f} in (
        {}, {"witness.py": [("scipy.optimize", "brentq")]})


def calls_to(path, name):
    """Line numbers of the calls to name, bare or as an attribute, in one source file."""
    return calls_in(ast.parse(path.read_text(), filename=str(path)), name)


def calls_in(tree, name):
    """Line numbers of the calls to name, bare or as an attribute, under one AST node."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_only_symplectic_forms_two_mode_invariants():
    # each two-mode state carries one cached set of exact invariants, so a second
    # derivation elsewhere would give one state two sets
    found = {path.name: calls_to(path, "two_mode_invariants") for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines and name != "symplectic.py"} == {}
    assert found["symplectic.py"]


def test_only_witness_forms_lambda():
    # witness.lambda_product_vacuum is the one place Lambda = 4 / sqrt(det) is formed,
    # so the Fock oracle's prefactor and the witness value cannot drift apart
    found = {path.name: calls_to(path, "detect_determinant") for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines and name != "witness.py"} == {}
    assert found["witness.py"]


@pytest.mark.parametrize("name", ["simon_criterion", "family_verdicts"])
def test_only_criteria_picks_a_two_mode_verdict(name):
    # criteria is the one module that picks a verdict, so every two-mode word is
    # filtered against one Simon margin per state
    found = {path.name: calls_to(path, name) for path in SOURCES}
    assert {file: lines for file, lines in found.items() if lines and file != "criteria.py"} == {}
    assert found["criteria.py"]


def references_to(path, name):
    """Line numbers of each use of name, bare or as an attribute, in one source file."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name]


def test_only_symplectic_turns_floats_into_ints():
    # symplectic._scaled_ints is the one exact float-to-int path: the invariants and
    # minimize_L's limit read it, and a second conversion could round differently
    found = {path.name: references_to(path, "frexp") for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines and name != "symplectic.py"} == {}
    assert found["symplectic.py"]


def test_one_eigenvalue_moduli_path():
    # symplectic._moduli is the one place that takes the eigenvalues of i sigma g:
    # the multimode spectrum and the PPT statistic both read it
    found = {path.name: calls_to(path, "eigvals") for path in SOURCES}
    assert [(name, len(lines)) for name, lines in found.items() if lines] == [("symplectic.py", 1)]


def test_one_validate_for_every_parameterized_state():
    # symplectic._ParamState.validate is the one rule for a state given by
    # parameters: valid iff its CM passes validate_cm
    found = [(path.name, node.lineno) for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and ast.unparse(node) == "validate_cm(self.to_cm())"]
    assert [name for name, _ in found] == ["symplectic.py"], found


def test_every_public_entry_taking_a_state_gamma_validates_it():
    # one validity rule: a public function whose first parameter is a state gamma
    # passes a raw array through validate_cm (a CovarianceMatrix skips it)
    found = {f"{path.name}:{node.name}": calls_in(node, "validate_cm")
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
             and node.args.args and node.args.args[0].arg == "gamma"}
    assert found and [name for name, calls in found.items() if not calls] == [], found
