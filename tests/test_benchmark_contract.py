"""The package names the benchmark under perfbench/ relies on must resolve.

A traced benchmark run wraps every entry of perfbench/tracing.py TARGETS,
and the workloads import package names at start-up; a name either looks up
that is gone crashes the benchmark, so the trim that drops it fails here.
"""

import ast
import importlib
import importlib.util
import math
import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def test_tracing_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod_name, fn_name in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"cvwitness.{mod_name}"), fn_name, None)), \
            f"TARGETS entry cvwitness.{mod_name}.{fn_name} does not resolve"


def _dotted(node):
    """'a.b.c' for an attribute chain on a bare name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def package_lookups(path):
    """Dotted package names a benchmark file imports, or looks up on a package
    name it imported."""
    tree = ast.parse(path.read_text())
    imported, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cvwitness":
            for alias in node.names:
                imported.append(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = imported[-1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cvwitness":
                    imported.append(alias.name)
                    # "import cvwitness.cli" binds cvwitness; "... as c" binds c to the module
                    bound[alias.asname or "cvwitness"] = alias.name if alias.asname else "cvwitness"
    lookups = set(imported)
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        head, _, rest = (chain or "").partition(".")
        if head in bound:
            lookups.add(f"{bound[head]}.{rest}")
    return sorted(lookups)


def _resolves(dotted):
    """Whether a dotted name is a module or an attribute chain off one."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("name", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_benchmark_package_names_resolve(name):
    missing = [dotted for dotted in package_lookups(PERFBENCH / name) if not _resolves(dotted)]
    assert not missing, f"perfbench/{name} uses package names that are gone: {missing}"


def test_workloads_use_the_package():
    # guards the scan itself: the workloads reach the engine through these names
    assert {"cvwitness.witness.minimize_L", "cvwitness.witness.SixParamDetect",
            "cvwitness.errors.UnsupportedOrder"} <= set(package_lookups(PERFBENCH / "workloads.py"))


def test_import_times_sees_every_module(monkeypatch):
    # a traced run times `import cvwitness` in a fresh interpreter and reads
    # each IMPORTS module off its -X importtime lines; a module the import no
    # longer loads crashes that run, so the change that drops it fails here
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    bare = set(sys.modules)
    try:
        spec.loader.exec_module(worker)
        times = worker.import_times(repeats=1)
    finally:
        # the benchmark's own modules import each other by bare name
        for name in set(sys.modules) - bare:
            if Path(getattr(sys.modules[name], "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[name]
    assert set(times) == set(worker.IMPORTS)
    assert all(math.isfinite(t) and t >= 0.0 for t in times.values()), times
