import ast
import doctest
import importlib
import importlib.util
import re
from pathlib import Path

import tcm

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


def _product_function(name):
    tree = ast.parse((SOURCE_DIR / "product.py").read_text(encoding="utf-8"))
    return next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name)


def test_identity_sums_use_no_matrix_product():
    for name in (
        "_pair_products",
        "_render",
        "_largest_residual",
        "verify_closed_form",
        "identity_errors",
    ):
        nodes = list(ast.walk(_product_function(name)))
        assert not any(isinstance(getattr(node, "op", None), ast.MatMult) for node in nodes), name
        names = {getattr(node, "attr", getattr(node, "id", None)) for node in nodes}
        assert names.isdisjoint({"dot", "matmul", "einsum"}), name


def test_sum_kron_squares_reads_only_its_arguments():
    # no labels, swap or generator formulas: the sums stay independent of the references
    func = _product_function("_pair_products")
    names = [node for node in ast.walk(func) if isinstance(node, ast.Name)]
    local = {arg.arg for arg in func.args.args} | {node.id for node in names if isinstance(node.ctx, ast.Store)}
    assert {node.id for node in names} - local <= {"np", "len"}


def test_rule_walk_stays_independent_of_the_formula():
    # the walk is a cross-check only while it never forms perm[j1*q + j2] = j2*p + j1
    tree = ast.parse((SOURCE_DIR / "swap.py").read_text(encoding="utf-8"))
    func = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "swap_by_rule")
    names = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
    assert names.isdisjoint({"swap_by_formula", "j1", "j2"})
    assert "ogrid" not in {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)}


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


def test_readme_module_table_names_every_export():
    # a name counts where a backticked span of a `tcm.*` row starts with it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = [line for line in readme.splitlines() if line.startswith("| `tcm.")]
    named = {re.match(r"\w*", span).group() for row in rows for span in re.findall(r"`([^`]*)`", row)}
    assert sorted(set(tcm.__all__) - named) == []
