"""The declared dependencies are exactly the third-party modules the package imports."""
import ast
import re
import sys
from pathlib import Path

import pytest

import careerflow

tomllib = pytest.importorskip("tomllib")

PACKAGE = Path(careerflow.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def imported_modules() -> set[str]:
    names: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_match_third_party_imports():
    with open(PYPROJECT, "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    declared_names = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in declared}
    third_party = imported_modules() - set(sys.stdlib_module_names) - {"careerflow"}
    assert third_party == declared_names == {"numpy"}
