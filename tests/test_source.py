import ast
import doctest
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE_DIR = ROOT / "src" / "tcm"


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


def test_every_traced_name_exists():
    # the benchmark's tracer refuses to install when a name it wraps is gone
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, names in tracer.TRACED.items():
        module = importlib.import_module(f"tcm.{module_name}")
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{module_name}.{name}")
    assert missing == []


def test_readme_library_example_runs():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
