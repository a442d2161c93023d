import csv
import hashlib
import io
import json
import math
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loop_reference import basis_labels, label_fields
from tcm import cli, product
from tcm.gellmann import DIAGONAL, basis
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
    ("basis-4-pretty", ["basis", "--n", "4"], 0),
    ("swap-3x2-json", ["swap", "--p", "3", "--q", "2", "--format", "json"], 0),
    ("swap-3x2-csv", ["swap", "--p", "3", "--q", "2", "--format", "csv"], 0),
    ("swap-3x2-pretty-both", ["swap", "--p", "3", "--q", "2", "--method", "both"], 0),
    ("swap-2x3-json-dense-both",
     ["swap", "--p", "2", "--q", "3", "--format", "json", "--dense", "--method", "both"], 0),
    ("swap-2x2-csv-dense", ["swap", "--p", "2", "--q", "2", "--format", "csv", "--dense"], 0),
    ("swap-4x3-csv-dense", ["swap", "--p", "4", "--q", "3", "--format", "csv", "--dense"], 0),
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
    ("decompose-swap-2x2-threshold1",
     ["decompose", "--p", "2", "--q", "2", "--input", "swap", "--threshold", "1"], 0),
    ("decompose-swap-2x2-threshold1-json",
     ["decompose", "--p", "2", "--q", "2", "--input", "swap", "--threshold", "1", "--format", "json"], 0),
    ("swap-p0", ["swap", "--p", "0", "--q", "3"], 2),
]


def load_schema(name):
    with open(SCHEMA_DIR / f"{name}.schema.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "tcm", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


class Discard:
    """A stdout that keeps nothing it is given."""

    def write(self, text):
        return len(text)


def matrix_from_obj(obj):
    data = np.array([complex(re, im) for re, im in obj["entries"]])
    return data.reshape(obj["rows"], obj["cols"])


def assert_basis_csv_round_trips(n):
    """``tcm basis --n n --format csv`` rebuilds ``basis(n)`` bit for bit,
    and each generator's rows carry the kind and indices of its label in
    the loop oracle.  Streamed: rows of a zero entry are counted, not
    parsed; every generator has a nonzero, so each one's fields are read."""
    cmd = [sys.executable, "-m", "tcm", "basis", "--n", str(n), "--format", "csv"]
    rebuilt = np.zeros((n * n - 1, n, n), dtype=complex)
    fields, count = {}, 0
    with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
        lines = io.TextIOWrapper(proc.stdout, encoding="utf-8", newline="")
        assert next(lines) == "ordinal,kind,i,j,d,row,col,re,im\r\n"
        for line in lines:
            count += 1
            if line.endswith(",0.0,0.0\r\n"):
                continue
            ordinal, kind, i, j, d, r, c, re, im = next(csv.reader([line]))
            k = int(ordinal) - 1
            rebuilt[k, int(r) - 1, int(c) - 1] = complex(float(re), float(im))
            assert fields.setdefault(k, (kind, i, j, d)) == (kind, i, j, d)
    assert proc.returncode == 0
    assert count == (n * n - 1) * n * n
    expected = [label_fields(label) for label in basis_labels(n)]
    assert [fields[k] for k in range(n * n - 1)] == [
        (kind, *(str(v) if v else "" for v in ijd)) for kind, *ijd in expected
    ]
    assert rebuilt.tobytes() == basis(n).matrices.tobytes()


class TestBasisCommand:
    def test_json_matches_library_exactly(self):
        result = run_cli("basis", "--n", "3", "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        jsonschema.validate(payload, load_schema("basis"))
        assert [g["ordinal"] for g in payload["generators"]] == list(range(1, 9))
        for record, label, mat in zip(payload["generators"], basis(3).labels, basis(3).matrices):
            kind, i, j, d = label_fields(label)
            indices = {"d": d} if kind == DIAGONAL else {"i": i, "j": j}
            assert record == {"ordinal": record["ordinal"], "kind": kind, **indices, "matrix": record["matrix"]}
            # shortest-round-trip float formatting: bit-for-bit recovery
            np.testing.assert_array_equal(matrix_from_obj(record["matrix"]), mat)

    def test_pretty_n2_lists_three_generators(self):
        result = run_cli("basis", "--n", "2", "--format", "pretty")
        assert result.returncode == 0
        for header in ("[1] S(1,2)", "[2] A(1,2)", "[3] D(1)"):
            assert header in result.stdout

    def test_csv_round_trips(self):
        # n = 40 checks kind, i, j and d past the sizes in tests/golden/
        for n in (2, 40):
            assert_basis_csv_round_trips(n)

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
        assert np.array_equal(got, swap_by_formula(3, 3).one_positions())

    def test_zero_dimension_exits_2(self):
        result = run_cli("swap", "--p", "0", "--q", "2")
        assert result.returncode == 2
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "method,failure",
        [
            # the formula ran, and the walk gave no permutation to match it
            ("both", "rule and formula constructions disagree"),
            # the formula never ran: the broken checkpoint is the failure
            ("rule", "group 1 ended at column 1, expected 2"),
        ],
        ids=["both", "rule"],
    )
    def test_walk_checkpoint_failure_exits_3(self, monkeypatch, capsys, method, failure):
        def broken_walk(p, q):
            raise WalkCheckpointError("group 1 ended at column 1, expected 2")

        monkeypatch.setattr(cli, "swap_by_rule", broken_walk)
        assert cli.main(["swap", "--p", "3", "--q", "2", "--method", method]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"tcm: internal consistency failure: {failure}"]

    def test_permutation_mismatch_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "swap_by_rule", lambda p, q: swap_by_formula(q, p))
        assert cli.main(["swap", "--p", "3", "--q", "2", "--method", "both"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "tcm: internal consistency failure: rule and formula constructions disagree\n"


    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_positions_peak_below_one_and_a_quarter_permutations(self, fmt, monkeypatch):
        # The ones' columns, 8 bytes an entry, are the inverse permutation,
        # filled one chunk at a time: about 1.1 permutations at the peak
        # with chunks of 1024 entries.  At the default chunk, one chunk of
        # text alone is about one permutation and would hide a second
        # array of the whole swap's size.
        u = swap_by_formula(250, 400)
        monkeypatch.setattr(cli, "_CHUNK", 1024)
        monkeypatch.setattr(sys, "stdout", Discard())
        tracemalloc.start()
        try:
            cli._write_swap(fmt, u, "formula", dense=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * u.perm.nbytes


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("args, dense_cells", [("swap --p 48 --q 48 --dense", (48 * 48) ** 2), ("basis --n 48", 48 ** 4)],
                         ids=["swap-48x48-dense", "basis-48"])
def test_dense_output_peaks_below_an_eighth_of_the_dense_array(args, dense_cells, fmt, monkeypatch):
    # rendered from the permutation or the triplets: the (pq, pq) or the
    # (n^2, n, n) complex array is never built
    basis.cache_clear()
    monkeypatch.setattr(sys, "stdout", Discard())
    tracemalloc.start()
    try:
        assert cli.main([*args.split(), "--format", fmt]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_cells * np.dtype(np.complex128).itemsize / 8


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

    @pytest.mark.parametrize("p", range(1, 9))
    def test_no_field_prints_a_negative_zero(self, p, capsys):
        # either kernel can leave -0.0 in zero parts of the swap's cells
        for q in range(1, 9):
            for threshold in ("1e-12", "0"):
                args = ["decompose", "--p", str(p), "--q", str(q), "--threshold", threshold, "--format"]
                assert cli.main([*args, "csv"]) == 0
                rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
                assert "-0.0" not in {field for row in rows[1:] for field in row[4:]}, (q, threshold)
                assert cli.main([*args, "json"]) == 0
                entries = json.loads(capsys.readouterr().out)["entries"]
                values = [v for e in entries for v in e["value"]]
                assert not any(v == 0 and math.copysign(1.0, v) < 0 for v in values), (q, threshold)

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
        # 1 x 1 so that no case is caught by the later shape check instead;
        # the two cases too long for a 1 x 1 file fail to parse whatever
        # the shape, so they are read as 8 x 8, whose bound they are within
        size = "1" if len(content) <= 128 + 4096 else "8"
        path = tmp_path / "bad.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        result = run_cli("decompose", "--p", size, "--q", size, "--input", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert "characters" not in result.stderr

    @pytest.mark.parametrize(
        "last,fault",
        [
            ("[1, true]", "entries must be [re, im] pairs"),
            ("[1, 0, 0]", "entries must be [re, im] pairs"),
            ("[1%s, 0]" % ("0" * 400), "an entry is too large for a float"),
        ],
        ids=["bool", "three-numbers", "int-overflow"],
    )
    def test_large_file_with_only_its_last_entry_bad_exits_2(self, tmp_path, last, fault):
        path = tmp_path / "bad.json"
        entries = ", ".join(["[0.5, -0.25]"] * (64 * 64 - 1) + [last])
        path.write_text('{"rows": 64, "cols": 64, "entries": [%s]}' % entries, encoding="utf-8")
        result = run_cli("decompose", "--p", "8", "--q", "8", "--input", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"tcm: error: matrix file {str(path)!r}: {fault}\n"

    def test_a_type_fault_wins_over_an_overflow(self, tmp_path, capsys):
        # the whole file is checked for types before any number is converted
        path = tmp_path / "bad.json"
        entries = ", ".join(["[1%s, 0]" % ("0" * 400)] + ["[0.5, -0.25]"] * 14 + ["[1, true]"])
        path.write_text('{"rows": 4, "cols": 4, "entries": [%s]}' % entries, encoding="utf-8")
        assert cli.main(["decompose", "--p", "2", "--q", "2", "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", f"tcm: error: matrix file {str(path)!r}: entries must be [re, im] pairs\n")

    def test_near_limit_entries_with_finite_coefficients_are_printed(self, tmp_path, capsys):
        # 1e308 on three diagonal entries sums past the float64 limit, but
        # every coefficient is finite: I (x) I is 3e308 / 4
        path = tmp_path / "near.json"
        entries = [[1e308 if r == c and r < 3 else 0, 0] for r in range(4) for c in range(4)]
        path.write_text(json.dumps({"rows": 4, "cols": 4, "entries": entries}), encoding="utf-8")
        assert cli.main(["decompose", "--p", "2", "--q", "2", "--input", str(path), "--format", "json"]) == 0
        out, err = capsys.readouterr()
        values = {(e["left"], e["right"]): e["value"] for e in json.loads(out)["entries"]}
        assert err == ""
        assert values[("I", "I")] == [7.5e307, 0.0]
        assert values[("D(1)", "D(1)")] == [-2.5e307, 0.0]

    def test_missing_file_exits_2(self):
        result = run_cli("decompose", "--p", "3", "--q", "2", "--input", "/nonexistent.json")
        assert result.returncode == 2

    def test_file_past_its_bound_is_refused_unparsed(self, tmp_path, monkeypatch, capsys):
        # a 2 (x) 2 file may take 128 characters for each of its 16 entries and 4096 more
        bound = 16 * 128 + 4096
        path = tmp_path / "long.json"
        path.write_text(" " * (bound + 1), encoding="utf-8")

        def never(*args, **kwargs):
            raise AssertionError("a file past its bound was parsed")

        monkeypatch.setattr(cli.json, "loads", never)
        assert cli.main(["decompose", "--p", "2", "--q", "2", "--input", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"tcm: error: matrix file {str(path)!r} is longer than the {bound} characters a 4 x 4 matrix may take\n")

    def test_small_file_of_a_large_request_reserves_no_room_for_its_bound(self, tmp_path, capsys):
        # the bound at 64 (x) 64 is 2 GiB; the file is read a piece at a time
        path = tmp_path / "one.json"
        path.write_text('{"rows": 1, "cols": 1, "entries": [[1, 0]]}', encoding="utf-8")
        tracemalloc.start()
        try:
            assert cli.main(["decompose", "--p", "64", "--q", "64", "--input", str(path)]) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == f"tcm: error: matrix file {str(path)!r} is 1 x 1, expected 4096 x 4096\n"
        assert peak < 8 << 20

    @pytest.mark.parametrize("p, q", [(3, 2), (8, 8)])
    def test_indent_4_file_of_the_longest_doubles_is_admitted(self, p, q, tmp_path, capsys):
        # 24 characters each, the longest repr of a double; at 8 (x) 8 the
        # entries take more than the 4096 characters allowed beyond them
        size = p * q
        longest = [-2.2250738585072014e-308] * 2
        path = tmp_path / "matrix.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"rows": size, "cols": size, "entries": [longest] * size ** 2}, fh, indent=4)
        assert len(path.read_text(encoding="utf-8")) > 96 * size ** 2
        assert cli.main(["decompose", "--p", str(p), "--q", str(q), "--input", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_wrong_shape_exits_2(self, tmp_path, monkeypatch, capsys):
        # refused before any entry is converted
        def never(*args, **kwargs):
            raise AssertionError("the entries of a misshapen file were converted")

        monkeypatch.setattr(cli, "_pair_values", never)
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}),
                        encoding="utf-8")
        assert cli.main(["decompose", "--p", "3", "--q", "2", "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", f"tcm: error: matrix file {str(path)!r} is 2 x 2, expected 6 x 6\n")


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

        monkeypatch.setattr(cli, "identity_errors", never)
        assert cli.main(["verify", "--n-max", n_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.endswith(" cells, over the 16777216-cell limit\n")

    def test_reads_no_label_and_renders_no_stack(self, capsys):
        # the checks need only each basis's triplets
        basis.cache_clear()
        assert cli.main(["verify", "--n-max", "5"]) == 0
        for n in range(2, 6):
            assert {"table", "labels", "stack"}.isdisjoint(vars(basis(n))), n

    def test_peak_memory_stays_below_a_quarter_of_one_n4_array(self, capsys):
        # the triplets of every n stay cached; no n^4-entry array is built
        n_max = 48
        basis.cache_clear()
        tracemalloc.start()
        try:
            assert cli.main(["verify", "--n-max", str(n_max)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_max ** 4 * np.dtype(np.complex128).itemsize / 4

    def test_impossible_tolerance_exits_1(self):
        result = run_cli("verify", "--n-max", "3", "--tol", "1e-18")
        assert result.returncode == 1
        assert "FAIL" in result.stdout

    @pytest.mark.parametrize("family", ["offdiag_family_sum", "diagonal_family_sum"])
    def test_nan_in_a_family_sum_fails_with_exit_1(self, family, monkeypatch, capsys):
        real = product._family

        def with_nan(n, diagonal):
            entries = real(n, diagonal)
            if diagonal == (family == "diagonal_family_sum"):
                entries = entries._replace(value=np.where(entries.k == entries.k[-1], np.nan, entries.value))
            return entries

        monkeypatch.setattr(product, "_family", with_nan)
        assert cli.main(["verify", "--n-max", "3", "--tol", "1e-10"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 2 and all(line.endswith(" FAIL") for line in lines)
        assert "nan" in lines[0]
        assert captured.err == "verify: FAILED at tol 1e-10\n"

    def test_help_shows_the_default_tolerance(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify", "--help"])
        assert "comparison tolerance (default 1e-10)" in capsys.readouterr().out


# the three ways to start tcm: python -m tcm, python -m tcm.cli and the
# installed script, which calls the target pyproject.toml names
SCRIPT = re.search(r'^tcm = "([\w.]+):(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M).groups()
ENTRIES = {"": ["-m", "tcm"], "tcm.cli ": ["-m", "tcm.cli"],
           "script ": ["-c", "import sys; from {0} import {1}; sys.exit({1}())".format(*SCRIPT)]}
PIPED = {"basis": ["basis", "--n", "64", "--format", "csv"], "swap --dense": ["swap", "--p", "64", "--q", "64", "--dense"]}


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
@pytest.mark.parametrize(
    "entry,args",
    [(entry, args) for entry in ENTRIES.values() for args in PIPED.values()],
    ids=[f"{entry}{args}" for entry in ENTRIES for args in PIPED],
)
def test_a_reader_that_closes_early_ends_tcm_by_sigpipe(entry, args):
    # as `tcm ARGS | head -c 100` does: no traceback, and the status of cat
    cmd = [sys.executable, *entry, *args]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == -signal.SIGPIPE
    assert err == b""


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


# sha256 of stdout, one "<digest>  <arguments>" line per command, for the
# desk-scale commands of the benchmark's `cli` workload that read no input
# file; `verify` is left out, its error columns depend on summation order.
# Regenerate a line with `python -m tcm ARGS | sha256sum`.
WORKLOAD_DIGESTS = [
    line.split("  ", 1) for line in (GOLDEN_DIR / "workload.sha256").read_text(encoding="utf-8").splitlines()
]


@pytest.mark.parametrize("digest,args", WORKLOAD_DIGESTS, ids=[args for _, args in WORKLOAD_DIGESTS])
def test_workload_output_digest(digest, args, capsys):
    assert cli.main(args.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# every function through which a command builds its arrays
BUILDERS = ["basis", "swap_by_formula", "swap_by_rule", "decompose_product", "_load_matrix_file", "identity_errors"]


class TestSizeGate:
    @pytest.mark.parametrize("args", [
        "swap --p 1000000 --q 1000000",
        "swap --p 100000 --q 100000 --dense",
        "basis --n 100000",
        "decompose --p 1000 --q 1000",
        "swap --p 4611686018427387904 --q 4",
        "swap --p 4097 --q 1 --dense --method both --format json",
        "swap --p 33554433 --q 1 --method rule",
        "swap --p 1 --q 16777217",
        "basis --n 65 --format csv",
        "decompose --p 2 --q 65 --input no-such-file.json",
        "verify --n-max 65",
    ])
    def test_oversize_request_exits_2_before_building(self, args, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("a command built an array past the size gate")

        for name in BUILDERS:
            monkeypatch.setattr(cli, name, never)
        assert cli.main(args.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("tcm: error: ")
        assert captured.err.endswith(" cells, over the 16777216-cell limit\n")

    @pytest.mark.parametrize("args", [
        "swap --p 4096 --q 1 --dense",
        "swap --p 1 --q 16777216",
        "basis --n 64",
        "decompose --p 64 --q 3",
        "verify --n-max 64",
    ])
    def test_largest_request_at_the_limit_is_admitted(self, args, monkeypatch, capsys):
        class Admitted(Exception):
            pass

        def admitted(*args, **kwargs):
            raise Admitted

        for name in BUILDERS:
            monkeypatch.setattr(cli, name, admitted)
        with pytest.raises(Admitted):
            cli.main(args.split())
        assert capsys.readouterr().err == ""

    def test_oversize_swap_exits_2_in_a_subprocess(self):
        result = run_cli("swap", "--p", "1000000", "--q", "1000000")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == ("tcm: error: the positions of the 1000000 (x) 1000000 swap would take "
                                 "1000000000000 cells, over the 16777216-cell limit\n")

    def test_oversize_decompose_names_the_largest_array_it_could_build(self, capsys):
        # the count is of an (m^2, m^2) array, m = max(p, q), not of the
        # (pq)^2 input, which is smaller when p != q
        assert cli.main(["decompose", "--p", "2", "--q", "65"]) == 2
        assert capsys.readouterr().err == (
            "tcm: error: the (4225, 4225) arrays of decompose at factor size 65 "
            "would take 17850625 cells, over the 16777216-cell limit\n"
        )


# every refusal of each command, as (arguments, message), run in a folder
# that holds the matrix files of MATRIX_FILES
REFUSALS = {
    "basis": [
        ("basis --n 1", "--n must be at least 2"),
        ("basis --n -3 --format json", "--n must be at least 2"),
        ("basis --n 65", "the 4224 generators of n = 65 would take 17846400 cells, over the 16777216-cell limit"),
    ],
    "swap": [
        ("swap --p 0 --q 3", "--p and --q must be at least 1"),
        ("swap --p 3 --q -1 --method rule", "--p and --q must be at least 1"),
        ("swap --p 1000000 --q 1000000",
         "the positions of the 1000000 (x) 1000000 swap would take 1000000000000 cells, over the 16777216-cell limit"),
        ("swap --p 1 --q 16777217",
         "the positions of the 1 (x) 16777217 swap would take 16777217 cells, over the 16777216-cell limit"),
        ("swap --p 4097 --q 1 --dense",
         "the dense 4097 x 4097 swap would take 16785409 cells, over the 16777216-cell limit"),
    ],
    "decompose": [
        ("decompose --p 0 --q 2", "--p and --q must be at least 1"),
        ("decompose --p 2 --q 2 --threshold -1", "--threshold must be finite and non-negative"),
        ("decompose --p 2 --q 2 --threshold nan", "--threshold must be finite and non-negative"),
        ("decompose --p 2 --q 2 --threshold inf", "--threshold must be finite and non-negative"),
        ("decompose --p 2 --q 65",
         "the (4225, 4225) arrays of decompose at factor size 65 would take 17850625 cells, "
         "over the 16777216-cell limit"),
        ("decompose --p 2 --q 2 --input missing.json",
         "cannot read matrix file 'missing.json': [Errno 2] No such file or directory: 'missing.json'"),
        ("decompose --p 1 --q 1 --input truncated.json",
         "matrix file 'truncated.json' is not valid JSON: Expecting ',' delimiter: line 1 column 22 (char 21)"),
        ("decompose --p 1 --q 1 --input list.json", "matrix file 'list.json' must hold a JSON object"),
        ("decompose --p 1 --q 1 --input nokey.json", "matrix file 'nokey.json' is missing key 'entries'"),
        ("decompose --p 1 --q 1 --input dims.json", "matrix file 'dims.json' has invalid dimensions"),
        ("decompose --p 1 --q 1 --input count.json", "matrix file 'count.json' must hold rows*cols = 1 entries"),
        ("decompose --p 1 --q 1 --input pairs.json", "matrix file 'pairs.json': entries must be [re, im] pairs"),
        ("decompose --p 1 --q 1 --input huge.json", "matrix file 'huge.json': an entry is too large for a float"),
        ("decompose --p 1 --q 1 --input inf.json", "matrix file 'inf.json': matrix entries must be finite"),
        ("decompose --p 3 --q 2 --input square.json", "matrix file 'square.json' is 2 x 2, expected 6 x 6"),
        ("decompose --p 3 --q 3 --input overflow.json", "matrix file 'overflow.json': the projection overflows float64"),
        ("decompose --p 3 --q 6 --input overflow-3x6.json",
         "matrix file 'overflow-3x6.json': the projection overflows float64"),
    ],
    "verify": [
        ("verify --n-max 1", "--n-max must be at least 2"),
        ("verify --n-max 65",
         "the 4225 x 4225 identities of n = 65 would take 17850625 cells, over the 16777216-cell limit"),
        ("verify --n-max 3 --tol nan", "--tol must be finite and non-negative"),
        ("verify --n-max 3 --tol -1", "--tol must be finite and non-negative"),
        ("verify --n-max 3 --tol inf", "--tol must be finite and non-negative"),
    ],
}


def overflow_file(p, q):
    """A p (x) q diagonal of finite +-1.7e308, signed like the entries of
    D(p-1) (x) D(q-1), whose coefficient there is 1.7e308 times
    sqrt(4 (p-1) (q-1) / (p q)) and overflows: 16/12 of it at 3 (x) 3.
    3 (x) 3 takes the complex products and 3 (x) 6 the real ones."""
    signs = [sign_a * sign_b for sign_a in [1] * (p - 1) + [-1] for sign_b in [1] * (q - 1) + [-1]]
    entries = [[1.7e308 * signs[r] if r == c else 0, 0] for r in range(p * q) for c in range(p * q)]
    return json.dumps({"rows": p * q, "cols": p * q, "entries": entries})


MATRIX_FILES = {
    "square.json": '{"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}',
    "truncated.json": '{"rows": 1, "cols": 1',
    "list.json": "[1, 2]",
    "nokey.json": '{"rows": 1, "cols": 1}',
    "dims.json": '{"rows": 0, "cols": 1, "entries": []}',
    "count.json": '{"rows": 1, "cols": 1, "entries": []}',
    "pairs.json": '{"rows": 1, "cols": 1, "entries": [[1, "0"]]}',
    "huge.json": '{"rows": 1, "cols": 1, "entries": [[1%s, 0]]}' % ("0" * 400),
    "inf.json": '{"rows": 1, "cols": 1, "entries": [[Infinity, 0]]}',
    "overflow.json": overflow_file(3, 3),
    "overflow-3x6.json": overflow_file(3, 6),
}


@pytest.mark.parametrize("command", REFUSALS)
def test_every_refusal_raises_input_error_and_main_prints_one_line(command, tmp_path, monkeypatch, capsys):
    for name, text in MATRIX_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for line, message in REFUSALS[command]:
        args = cli.build_parser().parse_args(line.split())
        with pytest.raises(cli.InputError) as info:
            args.func(args)
        assert str(info.value) == message, line
        assert cli.main(line.split()) == 2, line
        assert capsys.readouterr() == ("", f"tcm: error: {message}\n"), line


class TestUsage:
    def test_unknown_command_exits_2(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2

    def test_missing_required_flag_exits_2(self):
        result = run_cli("basis")
        assert result.returncode == 2

    # argparse's own refusals end as the commands' do: one line through main
    @pytest.mark.parametrize("args, message", [
        ("swap --p x --q 2", "argument --p: invalid int value: 'x'"),
        ("frobnicate", "argument command: invalid choice: 'frobnicate'"),
        ("", "the following arguments are required: command"),
        ("swap --p 2", "the following arguments are required: --q"),
    ])
    def test_argparse_refusal_is_one_stderr_line(self, args, message):
        result = run_cli(*args.split())
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(f"tcm: error: {message}")

    def test_help_exits_0(self):
        result = run_cli("--help")
        assert result.returncode == 0
        assert result.stdout.startswith("usage: tcm ")
        assert result.stderr == ""
