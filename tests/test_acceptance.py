"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np

from loop_reference import elementary, six_term_expression
from tcm.gellmann import basis, expand_in_basis
from tcm.matops import identity, max_abs_diff
from tcm.product import (
    decompose_product,
    diagonal_family_reference,
    diagonal_family_sum,
    offdiag_family_reference,
    offdiag_family_sum,
    reconstruct_product,
)
from tcm.swap import swap_by_formula, swap_by_rule

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schema"
RT3 = np.sqrt(3.0)

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
]

LAMBDA = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]),
    np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / RT3,
]


def report(number, name, passed, detail):
    print(f"criterion {number:2d} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


def kron_vec(x, y):
    # scalar products commute bitwise; see tests/test_swap.py
    return np.array([xi * yj for xi in x for yj in y])


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tcm", *args], capture_output=True, text=True
    )


def test_c01_closed_form_reproduces_swap():
    tol = 1e-10
    start = time.monotonic()
    worst = 0.0
    for n in range(2, 13):
        total = identity(n * n) / n
        for g in basis(n).matrices:
            total += 0.5 * np.kron(g, g)
        worst = max(worst, max_abs_diff(swap_by_formula(n, n).dense(), total))
    elapsed = time.monotonic() - start
    report(
        1,
        "closed form equals swap for n=2..12",
        worst <= tol and elapsed < 30.0,
        f"max error {worst:.3e} <= {tol:g}, {elapsed:.2f}s",
    )


def test_c02_swap_decomposition_coefficients():
    tol = 1e-12
    worst = 0.0
    for n in (2, 3):
        grid = decompose_product(swap_by_formula(n, n).dense(), n, n).grid
        expected = np.diag([1.0 / n] + [0.5] * (n * n - 1)).astype(complex)
        worst = max(worst, float(np.max(np.abs(grid - expected))))
    report(
        2,
        "swap coefficient grids at n=2,3",
        worst <= tol,
        f"max deviation {worst:.3e} <= {tol:g}",
    )


def test_c03_elementary_expansions():
    tol = 1e-12
    c3 = expand_in_basis(elementary(3, 1, 1))
    expected3 = np.zeros(8, dtype=complex)
    expected3[2] = 0.5
    expected3[7] = RT3 / 6
    err3 = max(abs(c3.c0 - 1 / 3), float(np.max(np.abs(c3.c - expected3))))
    c2 = expand_in_basis(elementary(2, 1, 1))
    err2 = max(abs(c2.c0 - 0.5), float(np.max(np.abs(c2.c - np.array([0, 0, 0.5])))))
    worst = max(err3, err2)
    report(
        3,
        "elementary-matrix expansions",
        worst <= tol,
        f"max deviation {worst:.3e} <= {tol:g}",
    )


def test_c04_rectangular_six_term_identities():
    tol = 1e-12
    err32 = max_abs_diff(six_term_expression(three_first=True), swap_by_formula(3, 2).dense())
    err23 = max_abs_diff(six_term_expression(three_first=False), swap_by_formula(2, 3).dense())
    positions = swap_by_formula(3, 2).one_positions()
    expected = [(1, 1), (2, 3), (3, 5), (4, 2), (5, 4), (6, 6)]
    match = np.array_equal(positions, expected)
    ok = err32 <= tol and err23 <= tol and match
    report(
        4,
        "six-term 3x2/2x3 expressions",
        ok,
        f"errors {err32:.3e}, {err23:.3e} <= {tol:g}; positions {'match' if match else 'differ'}",
    )


def test_c05_rule_equals_formula():
    mismatches = [
        (p, q)
        for p in range(2, 9)
        for q in range(2, 9)
        if not np.array_equal(swap_by_rule(p, q).perm, swap_by_formula(p, q).perm)
    ]
    report(
        5,
        "rule vs formula, 49 cases",
        not mismatches,
        "exact integer equality" if not mismatches else f"mismatches at {mismatches}",
    )


def test_c06_defining_property_exact():
    rng = np.random.default_rng(20260809)
    failures = 0
    for p in range(2, 7):
        for q in range(2, 7):
            u = swap_by_formula(p, q)
            for _ in range(50):
                a = rng.standard_normal(p) + 1j * rng.standard_normal(p)
                b = rng.standard_normal(q) + 1j * rng.standard_normal(q)
                if not np.array_equal(u.apply(kron_vec(a, b)), kron_vec(b, a)):
                    failures += 1
    report(
        6,
        "apply swaps factors with zero error",
        failures == 0,
        f"{failures} failures over 25 dims x 50 trials",
    )


def test_c07_basis_well_formed():
    tol = 1e-12
    worst = 0.0
    for n in range(2, 17):
        b = basis(n)
        for m in b.matrices:
            worst = max(worst, max_abs_diff(m, m.conj().T), abs(np.trace(m)))
        stack = np.array(b.matrices).reshape(len(b), -1)
        gram = stack.conj() @ stack.T
        worst = max(worst, float(np.max(np.abs(gram - 2 * np.eye(len(b))))))
    for got, expected in zip(basis(2).matrices, PAULI):
        worst = max(worst, max_abs_diff(got, expected))
    for got, expected in zip(basis(3).matrices, LAMBDA):
        worst = max(worst, max_abs_diff(got, expected))
    report(
        7,
        "basis well-formed for n=2..16",
        worst <= tol,
        f"max deviation {worst:.3e} <= {tol:g}",
    )


def test_c08_family_sum_identities():
    tol = 1e-10
    worst = 0.0
    for n in range(2, 13):
        off = offdiag_family_sum(n)
        diag = diagonal_family_sum(n)
        worst = max(worst, max_abs_diff(off, offdiag_family_reference(n)))
        worst = max(worst, max_abs_diff(diag, diagonal_family_reference(n)))
        assembled = 2 * swap_by_formula(n, n).dense() - (2.0 / n) * identity(n * n)
        worst = max(worst, max_abs_diff(off + diag, assembled))
    report(
        8,
        "family-sum identities for n=2..12",
        worst <= tol,
        f"max error {worst:.3e} <= {tol:g}",
    )


def test_c09_product_round_trip():
    tol = 1e-10
    rng = np.random.default_rng(90909)
    worst = 0.0
    for _ in range(100):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        back = reconstruct_product(decompose_product(m, 3, 2))
        worst = max(worst, max_abs_diff(back, m))
    report(
        9,
        "decompose/reconstruct round trip at (3,2)",
        worst <= tol,
        f"max error {worst:.3e} <= {tol:g} over 100 matrices",
    )


def test_c10_cli_contract(tmp_path):
    checks = []

    verify = run_cli("verify", "--n-max", "8")
    checks.append(("verify exits 0", verify.returncode == 0))

    both = run_cli("swap", "--p", "3", "--q", "2", "--method", "both")
    checks.append(("swap both exits 0", both.returncode == 0))

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    malformed = run_cli("decompose", "--p", "2", "--q", "2", "--input", str(bad))
    checks.append(("malformed input exits 2", malformed.returncode == 2))

    for command, args, schema in [
        ("basis", ("--n", "3"), "basis"),
        ("swap", ("--p", "3", "--q", "2", "--dense"), "swap"),
        ("decompose", ("--p", "2", "--q", "3"), "decompose"),
    ]:
        result = run_cli(command, *args, "--format", "json")
        with open(SCHEMA_DIR / f"{schema}.schema.json", encoding="utf-8") as fh:
            jsonschema.validate(json.loads(result.stdout), json.load(fh))
        checks.append((f"{command} json validates", result.returncode == 0))

    failed = [name for name, ok in checks if not ok]
    report(
        10,
        "CLI contract",
        not failed,
        "all subchecks passed" if not failed else f"failed: {failed}",
    )
