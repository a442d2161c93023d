import ast
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "tcm"


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so no invariant of the package may rest on one.
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert len(paths) >= 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
