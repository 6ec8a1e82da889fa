"""Checks on the package source itself."""
import ast
from pathlib import Path

import qpiverify

PACKAGE_DIR = Path(qpiverify.__file__).parent


def test_no_assert_in_package():
    """`python -O` strips assert statements, so no correctness check may be one."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
