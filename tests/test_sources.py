import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "cvwitness").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_parse_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10, and the tests run on a later
    # Python, which would accept syntax that 3.10 refuses
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
