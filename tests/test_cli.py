import csv
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tcm
from tcm import cli
from tcm.gellmann import basis
from tcm.product import decompose_product
from tcm.swap import WalkCheckpointError, swap_by_formula

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "docs" / "schema"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# (name, arguments, exit code) of the commands whose stdout and stderr are
# checked in under tests/golden/ as <name>.stdout and <name>.stderr; after an
# intended output change, regenerate a case with
# `python -m tcm ARGS > NAME.stdout 2> NAME.stderr`.  Only outputs whose bytes
# cannot depend on floating-point summation order are listed: json/csv
# decompose only of the swap at 2x2 and 1x4, whose coefficients are exact
# (they pin the printed sign of each zero imaginary part), no --threshold 0,
# no verify error columns.
GOLDEN_CASES = [
    ("basis-2-json", ["basis", "--n", "2", "--format", "json"], 0),
    ("basis-3-csv", ["basis", "--n", "3", "--format", "csv"], 0),
    ("basis-3-pretty", ["basis", "--n", "3"], 0),
    ("swap-3x2-json", ["swap", "--p", "3", "--q", "2", "--format", "json"], 0),
    ("swap-3x2-csv", ["swap", "--p", "3", "--q", "2", "--format", "csv"], 0),
    ("swap-3x2-pretty-both", ["swap", "--p", "3", "--q", "2", "--method", "both"], 0),
    ("swap-2x3-json-dense-both",
     ["swap", "--p", "2", "--q", "3", "--format", "json", "--dense", "--method", "both"], 0),
    ("swap-2x2-csv-dense", ["swap", "--p", "2", "--q", "2", "--format", "csv", "--dense"], 0),
    ("swap-3x3-pretty-dense-rule", ["swap", "--p", "3", "--q", "3", "--method", "rule", "--dense"], 0),
    ("swap-1x4-json", ["swap", "--p", "1", "--q", "4", "--format", "json"], 0),
    ("swap-1x4-csv-both", ["swap", "--p", "1", "--q", "4", "--format", "csv", "--method", "both"], 0),
    ("swap-1x4-pretty-dense", ["swap", "--p", "1", "--q", "4", "--dense"], 0),
    ("decompose-swap-2x2", ["decompose", "--p", "2", "--q", "2", "--input", "swap"], 0),
    ("decompose-swap-3x2", ["decompose", "--p", "3", "--q", "2", "--input", "swap"], 0),
    ("decompose-swap-1x4", ["decompose", "--p", "1", "--q", "4", "--input", "swap"], 0),
    ("decompose-swap-2x2-json", ["decompose", "--p", "2", "--q", "2", "--input", "swap", "--format", "json"], 0),
    ("decompose-swap-2x2-csv", ["decompose", "--p", "2", "--q", "2", "--input", "swap", "--format", "csv"], 0),
    ("decompose-swap-1x4-json", ["decompose", "--p", "1", "--q", "4", "--input", "swap", "--format", "json"], 0),
    ("decompose-swap-1x4-csv", ["decompose", "--p", "1", "--q", "4", "--input", "swap", "--format", "csv"], 0),
    ("swap-p0", ["swap", "--p", "0", "--q", "3"], 2),
]


def load_schema(name):
    with open(SCHEMA_DIR / f"{name}.schema.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "tcm", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def matrix_from_obj(obj):
    data = np.array([complex(re, im) for re, im in obj["entries"]])
    return data.reshape(obj["rows"], obj["cols"])


class TestBasisCommand:
    def test_json_matches_library_exactly(self):
        result = run_cli("basis", "--n", "3", "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        jsonschema.validate(payload, load_schema("basis"))
        assert [g["ordinal"] for g in payload["generators"]] == list(range(1, 9))
        for record, (label, mat) in zip(payload["generators"], basis(3)):
            assert record["kind"] == label.kind
            # shortest-round-trip float formatting: bit-for-bit recovery
            np.testing.assert_array_equal(matrix_from_obj(record["matrix"]), mat)

    def test_pretty_n2_lists_three_generators(self):
        result = run_cli("basis", "--n", "2", "--format", "pretty")
        assert result.returncode == 0
        for header in ("[1] S(1,2)", "[2] A(1,2)", "[3] D(1)"):
            assert header in result.stdout

    def test_csv_round_trips(self):
        result = run_cli("basis", "--n", "2", "--format", "csv")
        assert result.returncode == 0
        rows = list(csv.DictReader(io.StringIO(result.stdout)))
        assert len(rows) == 3 * 4
        rebuilt = np.zeros((3, 2, 2), dtype=complex)
        for row in rows:
            k = int(row["ordinal"]) - 1
            r, c = int(row["row"]) - 1, int(row["col"]) - 1
            rebuilt[k, r, c] = complex(float(row["re"]), float(row["im"]))
        for k, mat in enumerate(basis(2).matrices):
            np.testing.assert_array_equal(rebuilt[k], mat)

    def test_n_below_two_exits_2_with_no_output(self):
        result = run_cli("basis", "--n", "1")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "error" in result.stderr


class TestSwapCommand:
    def test_positions_2x2(self):
        result = run_cli("swap", "--p", "2", "--q", "2", "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        jsonschema.validate(payload, load_schema("swap"))
        assert payload["positions"] == [[1, 1], [2, 3], [3, 2], [4, 4]]

    def test_positions_3x2(self):
        result = run_cli("swap", "--p", "3", "--q", "2", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["positions"] == [[1, 1], [2, 3], [3, 5], [4, 2], [5, 4], [6, 6]]

    def test_method_both_agrees(self):
        result = run_cli("swap", "--p", "4", "--q", "4", "--method", "both", "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        jsonschema.validate(payload, load_schema("swap"))
        assert payload["methods_agree"] is True

    def test_dense_json_round_trips(self):
        result = run_cli("swap", "--p", "2", "--q", "3", "--format", "json", "--dense")
        payload = json.loads(result.stdout)
        jsonschema.validate(payload, load_schema("swap"))
        got = matrix_from_obj(payload["dense"])
        np.testing.assert_array_equal(got, swap_by_formula(2, 3).dense())

    def test_rule_method_csv(self):
        result = run_cli("swap", "--p", "3", "--q", "3", "--method", "rule", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(result.stdout)))
        got = sorted((int(r["row"]), int(r["col"])) for r in rows)
        assert got == swap_by_formula(3, 3).one_positions()

    def test_zero_dimension_exits_2(self):
        result = run_cli("swap", "--p", "0", "--q", "2")
        assert result.returncode == 2
        assert result.stdout == ""

    @pytest.mark.parametrize("method", ["both", "rule"])
    def test_walk_checkpoint_failure_exits_3(self, monkeypatch, capsys, method):
        def broken_walk(p, q):
            raise WalkCheckpointError("group 1 ended at column 1, expected 2")

        monkeypatch.setattr(cli, "swap_by_rule", broken_walk)
        assert cli.main(["swap", "--p", "3", "--q", "2", "--method", method]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "tcm: internal consistency failure: rule and formula constructions disagree"
        ]


class TestDecomposeCommand:
    def test_swap_2x2_sparse_listing(self):
        result = run_cli("decompose", "--p", "2", "--q", "2", "--input", "swap", "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        jsonschema.validate(payload, load_schema("decompose"))
        entries = {(e["left"], e["right"]): complex(*e["value"]) for e in payload["entries"]}
        assert len(entries) == 4
        assert abs(entries[("I", "I")] - 0.5) <= 1e-12
        for lab in ("S(1,2)", "A(1,2)", "D(1)"):
            assert abs(entries[(lab, lab)] - 0.5) <= 1e-12

    def test_swap_3x3_pretty(self):
        result = run_cli("decompose", "--p", "3", "--q", "3")
        assert result.returncode == 0
        assert "I (x) I: 0.3333333333" in result.stdout
        assert result.stdout.count("0.5") == 8

    def test_matrix_file_input(self, tmp_path):
        rng = np.random.default_rng(600)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        path = tmp_path / "matrix.json"
        payload = {
            "rows": 6,
            "cols": 6,
            "entries": [[z.real, z.imag] for z in m.ravel()],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        result = run_cli(
            "decompose", "--p", "3", "--q", "2", "--input", str(path),
            "--format", "json", "--threshold", "0",
        )
        assert result.returncode == 0
        out = json.loads(result.stdout)
        jsonschema.validate(out, load_schema("decompose"))
        expected = decompose_product(m, 3, 2).grid
        got = np.zeros_like(expected)
        for e in out["entries"]:
            got[e["left_index"], e["right_index"]] = complex(*e["value"])
        np.testing.assert_array_equal(got, expected)

    def test_threshold_suppression(self):
        # with a huge threshold nothing survives
        result = run_cli(
            "decompose", "--p", "2", "--q", "2", "--format", "json", "--threshold", "10",
        )
        payload = json.loads(result.stdout)
        assert payload["entries"] == []

    @pytest.mark.parametrize(
        "content",
        [
            "not json at all",
            '{"rows": 6, "cols": 6}',
            '{"rows": 6, "cols": 6, "entries": [[1, 0]]}',
            '{"rows": "6", "cols": 6, "entries": []}',
            '{"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], "x"]}',
            '{"rows": true, "cols": true, "entries": [[1, 0]]}',
            pytest.param('{"rows": 1, "cols": 1, "entries": [[1%s, 0]]}' % ("0" * 400), id="int-overflow"),
            pytest.param('{"rows": 1, "cols": 1, "entries": [[1%s, 0]]}' % ("0" * 5000), id="int-digits"),
            pytest.param(b'{"rows": 1, "cols": 1, "entries": [[1, 0]], "x": "\xff"}', id="not-utf8"),
            pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
        ],
    )
    def test_malformed_file_exits_2(self, tmp_path, content):
        # 1 x 1 so that no case is caught by the later shape check instead
        path = tmp_path / "bad.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        result = run_cli("decompose", "--p", "1", "--q", "1", "--input", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1

    def test_missing_file_exits_2(self):
        result = run_cli("decompose", "--p", "3", "--q", "2", "--input", "/nonexistent.json")
        assert result.returncode == 2

    def test_wrong_shape_exits_2(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(
            json.dumps({"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}),
            encoding="utf-8",
        )
        result = run_cli("decompose", "--p", "3", "--q", "2", "--input", str(path))
        assert result.returncode == 2


class TestVerifyCommand:
    def test_passes_up_to_n4(self):
        result = run_cli("verify", "--n-max", "4", "--tol", "1e-10")
        assert result.returncode == 0
        lines = [l for l in result.stdout.splitlines() if l.startswith("n=")]
        assert len(lines) == 3

    def test_n_max_below_two_exits_2(self):
        result = run_cli("verify", "--n-max", "1")
        assert result.returncode == 2

    @pytest.mark.parametrize("n_max", ["65", "1000000000"])
    def test_oversize_n_max_exits_2_before_any_check(self, n_max, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("verify ran a check past the size gate")

        monkeypatch.setattr(cli, "verify_closed_form", never)
        assert cli.main(["verify", "--n-max", n_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--n-max must be at most 64" in captured.err

    def test_keeps_no_basis_cached(self, capsys):
        # each n's generators are dropped once checked, not kept up to --n-max
        basis(3)
        assert cli.main(["verify", "--n-max", "5"]) == 0
        assert basis.cache_info().currsize == 0

    def test_keeps_no_basis_cached_under_the_benchmark_tracer(self, capsys):
        # perfbench/tracer.py replaces `basis` in every tcm namespace by a plain wrapper
        spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        names = ("matops", "gellmann", "swap", "product", "cli")
        tracer = tracing.Tracer({"tcm": tcm, **{name: getattr(tcm, name) for name in names}})
        tracer.install()
        try:
            assert cli.main(["verify", "--n-max", "3"]) == 0
        finally:
            tracer.uninstall()
        assert basis.cache_info().currsize == 0

    def test_impossible_tolerance_exits_1(self):
        result = run_cli("verify", "--n-max", "3", "--tol", "1e-18")
        assert result.returncode == 1
        assert "FAIL" in result.stdout

    def test_env_tolerance_override(self):
        import os

        env = dict(os.environ, TCM_TOLERANCE="1e-18")
        result = run_cli("verify", "--n-max", "3", env=env)
        assert result.returncode == 1
        # explicit flag wins over the environment
        result = run_cli("verify", "--n-max", "3", "--tol", "1e-10", env=env)
        assert result.returncode == 0

    def test_bad_env_tolerance_exits_2(self):
        import os

        env = dict(os.environ, TCM_TOLERANCE="banana")
        result = run_cli("verify", "--n-max", "3", env=env)
        assert result.returncode == 2


# (arguments, schema) of in-process JSON requests at random small sizes
JSON_REQUESTS = st.one_of(
    st.builds(lambda n: (["basis", "--n", str(n)], "basis"), st.integers(2, 5)),
    st.builds(
        lambda p, q, method, dense: (
            ["swap", "--p", str(p), "--q", str(q), "--method", method] + (["--dense"] if dense else []),
            "swap",
        ),
        st.integers(1, 5),
        st.integers(1, 5),
        st.sampled_from(["formula", "rule", "both"]),
        st.booleans(),
    ),
    st.builds(
        lambda p, q: (["decompose", "--p", str(p), "--q", str(q), "--input", "swap", "--threshold", "0"], "decompose"),
        st.integers(1, 5),
        st.integers(1, 5),
    ),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(request=JSON_REQUESTS)
def test_json_follows_schema_at_random_sizes(request, capsys):
    args, schema = request
    capsys.readouterr()
    assert cli.main([*args, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    jsonschema.validate(json.loads(out), load_schema(schema))


@pytest.mark.parametrize("name,args,code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(name, args, code):
    result = subprocess.run([sys.executable, "-m", "tcm", *args], capture_output=True)
    assert result.returncode == code
    assert result.stdout == (GOLDEN_DIR / f"{name}.stdout").read_bytes()
    assert result.stderr == (GOLDEN_DIR / f"{name}.stderr").read_bytes()


class TestUsage:
    def test_unknown_command_exits_2(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2

    def test_missing_required_flag_exits_2(self):
        result = run_cli("basis")
        assert result.returncode == 2
