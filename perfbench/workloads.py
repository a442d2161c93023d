"""The benchmark's three closed-loop workloads and the checks on their results.

A workload is a fixed list of ops, one *pass*.  The benchmark runs passes
one op at a time until its time is up.  Every pass has the same sizes in
the same order; the seed only decides the random entries.  An op is a
timed call into ``tcm`` and an untimed check of its result against
``oracles`` (or, for the CLI, against the library itself).

Why these three (README.md has the numbers):

* ``project``   - product-basis projection and reconstruction.  CPU-bound
                  Python loops over n^4 cells; swap and CLI layers idle.
* ``identities``- the closed-form and family-sum identities plus swap
                  construction at large pq.  Writes n^4-entry accumulators
                  instead of projecting: allocation and memory traffic.
* ``cli``       - ``python -m tcm`` one request at a time.  The only
                  workload that parses arguments and files and serializes
                  json/csv/pretty output.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles

# tcm.DEFAULT_ABS_EPS when the benchmark was written, kept here so that a
# change to the library's tolerance does not loosen the checks.
EPS = 1e-10

# Op lists.  Sizes are chosen so that the p50 rank and the tail rank of a
# pass each fall inside one group of similar ops, never on the boundary
# between two groups (README.md, "Tail placement").

# project: (p, q, input kind, copies per pass), ordered from the slowest group
PROJECT_ROUNDTRIPS = [
    # the tail group: the largest factors, about 0.3 s each
    (8, 7, "random", 2), (8, 7, "hermitian", 2), (7, 8, "random", 2), (7, 8, "hermitian", 2),
    # 0.025 to 0.2 s
    (8, 8, "swap", 1), (7, 7, "swap", 1), (6, 6, "random", 1), (6, 6, "hermitian", 1),
    (5, 7, "hermitian", 1), (4, 7, "random", 1), (6, 5, "swap", 1), (5, 5, "random", 2),
    (4, 6, "random", 2), (5, 5, "swap", 1),
    # the p50 group: 16 x 16 and 15 x 15 operators, about 15 ms each
    (4, 4, "random", 3), (4, 4, "hermitian", 3), (3, 5, "hermitian", 1), (5, 3, "random", 1),
    # below 10 ms, with the expansions
    (4, 4, "swap", 1), (3, 3, "random", 2), (3, 3, "hermitian", 2), (2, 4, "random", 1),
    (4, 2, "hermitian", 1), (3, 3, "swap", 1), (2, 3, "swap", 1), (3, 2, "random", 1), (2, 2, "random", 1),
]
# project: (n, input kind) for expand_in_basis -> reconstruct
PROJECT_EXPANSIONS = [(n, kind) for n in (2, 4, 8, 16) for kind in ("random", "hermitian")]

IDENTITY_NS = list(range(2, 21))
# identities: (p, q) swaps cross-checked at large pq, with one_positions.
# The four of equal pq give one_positions ops of about the cost of
# closed_form at n = 19..20, the group the tail rank falls in.  Dense only
# where the pq x pq matrix stays small.
SWAP_SIZES = [(256, 256), (1000, 400), (400, 1000), (800, 500), (500, 800)]
DENSE_SIZES = [(32, 32), (16, 64), (24, 40)]

CLI_COMMANDS = [
    # about 0.2 s each, mostly interpreter start-up
    "swap --p 32 --q 32 --format pretty --method rule",
    "swap --p 64 --q 64 --format csv --method both",
    "decompose --p 4 --q 4 --format pretty",
    "decompose --p 3 --q 6 --input {file} --format csv",
    "verify --n-max 6",
    # about 0.45 s each: the p50 group
    "swap --p 12 --q 12 --format json --dense",
    "swap --p 160 --q 160 --format json",
    "basis --n 12 --format json",
    "basis --n 15 --format csv",
    "decompose --p 8 --q 8 --input {file} --format json",
    "verify --n-max 12",
    # about 0.75 s each: the tail group
    "swap --p 14 --q 16 --format json --dense",
    "swap --p 20 --q 20 --format csv --dense",
    "swap --p 26 --q 26 --format pretty --dense",
    "basis --n 19 --format csv",
    "basis --n 26 --format pretty",
]

# Sizes for the fast self-check: every layer still runs, in well under a second.
TINY = {
    "PROJECT_ROUNDTRIPS": [(2, 3, "random", 1), (3, 3, "swap", 1), (2, 2, "hermitian", 1)],
    "PROJECT_EXPANSIONS": [(3, "random"), (4, "hermitian")],
    "IDENTITY_NS": [2, 3, 4],
    "SWAP_SIZES": [(3, 5)],
    "DENSE_SIZES": [(2, 3)],
    "CLI_COMMANDS": [
        "swap --p 2 --q 3 --format json --dense",
        "swap --p 3 --q 2 --format csv --method both",
        "swap --p 2 --q 2 --format pretty --dense",
        "basis --n 3 --format json",
        "basis --n 2 --format csv",
        "basis --n 2 --format pretty",
        "decompose --p 2 --q 2 --format json",
        "decompose --p 2 --q 3 --input {file} --format csv",
        "decompose --p 2 --q 2 --input {file} --format pretty",
        "verify --n-max 3",
    ],
}

# basis(n) sizes each library workload uses; set-up fills the cache for them.
def basis_sizes(name, tiny=False):
    sizes = _sizes(tiny)
    if name == "project":
        ns = {n for p, q, _, _ in sizes["PROJECT_ROUNDTRIPS"] for n in (p, q)}
        ns |= {n for n, _ in sizes["PROJECT_EXPANSIONS"]}
    elif name == "identities":
        ns = set(sizes["IDENTITY_NS"])
    else:
        ns = set()
    return sorted(n for n in ns if n >= 2)


def _sizes(tiny):
    if tiny:
        return TINY
    return {
        "PROJECT_ROUNDTRIPS": PROJECT_ROUNDTRIPS,
        "PROJECT_EXPANSIONS": PROJECT_EXPANSIONS,
        "IDENTITY_NS": IDENTITY_NS,
        "SWAP_SIZES": SWAP_SIZES,
        "DENSE_SIZES": DENSE_SIZES,
        "CLI_COMMANDS": CLI_COMMANDS,
    }


@dataclass
class Op:
    """One timed request: ``run()`` is timed, ``check(result)`` is not."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _max_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _operator(rng, kind, p, q):
    d = p * q
    if kind == "swap":
        return oracles.swap_dense(p, q)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if kind == "hermitian":
        m = (m + m.conj().T) / 2
    return m


# ---------------------------------------------------------------------------
# project


def project_pass(lib, rng, tiny=False):
    sizes = _sizes(tiny)
    ops = []
    for p, q, kind, copies in sizes["PROJECT_ROUNDTRIPS"]:
        for _ in range(copies):
            ops.append(_roundtrip_op(lib, p, q, kind, _operator(rng, kind, p, q)))
    for n, kind in sizes["PROJECT_EXPANSIONS"]:
        ops.append(_expansion_op(lib, n, _operator(rng, kind, n, 1)))
    return ops


def _roundtrip_op(lib, p, q, kind, m):
    def run():
        coeffs = lib.decompose_product(m, p, q)
        return coeffs, lib.reconstruct_product(coeffs)

    def check(result):
        coeffs, back = result
        ok = _max_diff(back, m) <= EPS and _max_diff(coeffs.grid, oracles.product_grid(m, p, q)) <= EPS
        if kind == "swap" and p == q:
            ok = ok and _max_diff(coeffs.grid, lib.closed_form_swap_coefficients(p).grid) <= EPS
        return ok

    return Op(f"roundtrip {p}x{q} {kind}", run, check)


def _expansion_op(lib, n, m):
    def run():
        coeffs = lib.expand_in_basis(m)
        return coeffs, lib.reconstruct(coeffs)

    def check(result):
        coeffs, back = result
        c0, c = oracles.basis_coefficients(m)
        return abs(coeffs.c0 - c0) <= EPS and _max_diff(coeffs.c, c) <= EPS and _max_diff(back, m) <= EPS

    return Op(f"expand {n}", run, check)


# ---------------------------------------------------------------------------
# identities


def identities_pass(lib, rng, tiny=False):
    sizes = _sizes(tiny)
    ops = []
    for n in sizes["IDENTITY_NS"]:
        ops.append(Op(f"closed_form {n}", lambda n=n: lib.verify_closed_form(n),
                      lambda r, n=n: r.n == n and r.passed and r.max_error <= EPS))
        ops.append(_family_op(lib, "offdiag", n, oracles.offdiag_family))
        ops.append(_family_op(lib, "diagonal", n, oracles.diagonal_family))
    for p, q in sizes["SWAP_SIZES"]:
        ops.extend(_swap_ops(lib, rng, p, q))
    for p, q in sizes["DENSE_SIZES"]:
        ops.append(_dense_op(lib, p, q))
    return ops


def _family_op(lib, family, n, oracle):
    def run():
        return getattr(lib, f"{family}_family_sum")(n), getattr(lib, f"{family}_family_reference")(n)

    def check(result):
        total, reference = result
        expected = oracle(n)
        return _max_diff(total, reference) <= EPS and _max_diff(total, expected) <= EPS \
            and _max_diff(reference, expected) <= EPS

    return Op(f"{family} {n}", run, check)


def _swap_ops(lib, rng, p, q):
    """Rule against formula, (p,q) inverse to (q,p), apply and one_positions."""
    perm = oracles.swap_perm(p, q)
    a = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    b = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    v = np.kron(a, b)
    u = lib.swap_by_formula(p, q)

    def both():
        return lib.swap_by_formula(p, q), lib.swap_by_rule(p, q)

    return [
        Op(f"rule_vs_formula {p}x{q}", both,
           lambda r: np.array_equal(r[0].perm, r[1].perm) and np.array_equal(r[1].perm, perm)),
        Op(f"inverse {q}x{p}", lambda: lib.swap_by_formula(q, p),
           lambda r: np.array_equal(perm[r.perm], np.arange(p * q))),
        # Entries are moved, so the permuted vector matches exactly; kron(b, a)
        # recomputes the products and may differ in the last bit.
        Op(f"apply {p}x{q}", lambda: u.apply(v),
           lambda r: np.array_equal(r[perm], v) and _max_diff(r, np.kron(b, a)) <= EPS),
        Op(f"one_positions {p}x{q}", lambda: u.one_positions(),
           lambda r: np.array_equal(np.array(r, dtype=np.int64), oracles.one_positions(p, q))),
    ]


def _dense_op(lib, p, q):
    u = lib.swap_by_formula(p, q)
    return Op(f"dense {p}x{q}", lambda: u.dense(), lambda r: np.array_equal(r, oracles.swap_dense(p, q)))


# ---------------------------------------------------------------------------
# cli


class CliWorkload:
    """The command list, its input files, and the checks on its output.

    Output is checked against ``oracles``; only the axis labels of
    ``decompose`` come from the library (``extended_labels``).

    ``in_process`` runs ``tcm.cli.main`` in this process with stdout going
    to a buffer whose bytes are counted (the traced run); otherwise every
    command is a ``python -m tcm`` subprocess.
    """

    def __init__(self, lib, rng, root, workdir, env, tiny=False, in_process=False):
        self.lib = lib
        self.root = root
        self.env = env
        self.in_process = in_process
        self.input_bytes = 0
        self.output_bytes = 0
        self._schemas = {}
        self._checked = {}  # output digest -> verdict; outputs of one command repeat exactly
        self.commands = []
        for k, template in enumerate(_sizes(tiny)["CLI_COMMANDS"]):
            argv = template.split()
            matrix = None
            if "{file}" in template:
                p, q = int(argv[argv.index("--p") + 1]), int(argv[argv.index("--q") + 1])
                matrix = _operator(rng, "random", p, q)
                path = os.path.join(workdir, f"matrix{k}.json")
                _write_matrix(path, matrix)
                argv = template.format(file=os.path.relpath(path, root)).split()
            self.commands.append((argv, matrix))

    def pass_ops(self):
        return [self._op(argv, matrix) for argv, matrix in self.commands]

    def _op(self, argv, matrix):
        if self.in_process:
            run = lambda: self._run_in_process(argv)
        else:
            run = lambda: self._run_subprocess(argv)
        return Op(" ".join(argv), run, lambda r: self._check(argv, matrix, *r))

    def _run_subprocess(self, argv):
        proc = subprocess.run([sys.executable, "-m", "tcm", *argv], cwd=self.root, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
        return proc.returncode, proc.stdout.decode("utf-8")

    def _run_in_process(self, argv):
        if "--input" in argv:
            self.input_bytes += os.path.getsize(os.path.join(self.root, argv[argv.index("--input") + 1]))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = self.lib.cli.main(argv)
        out = sink.getvalue()
        self.output_bytes += len(out.encode("utf-8"))
        return code, out

    def _check(self, argv, matrix, code, out):
        if code != 0:
            return False
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        key = (tuple(argv), digest)
        if key not in self._checked:
            self._checked[key] = self._check_output(argv, matrix, out)
        return self._checked[key]

    def _check_output(self, argv, matrix, out):
        command = argv[0]
        opts = dict(zip(argv[1::2], argv[2::2]))  # flag -> value; a bare --dense comes last
        fmt = opts.get("--format", "pretty")
        dense = "--dense" in argv
        if command == "verify":
            return self._check_verify(int(opts["--n-max"]), out)
        if fmt == "json":
            data = json.loads(out)
            self._schema(command).validate(data)
        lines = out.splitlines()
        if command == "swap":
            p, q = int(opts["--p"]), int(opts["--q"])
            if fmt == "json":
                return self._check_swap_json(p, q, opts.get("--method", "formula"), dense, data)
            pq = p * q
            if fmt == "csv":
                return len(lines) == 1 + (pq * pq if dense else pq)
            expected = 2 + (opts.get("--method") == "both") + (pq if dense else 0)
            return len(lines) == expected
        if command == "basis":
            n = int(opts["--n"])
            if fmt == "json":
                return self._check_basis_json(n, data)
            if fmt == "csv":
                return len(lines) == 1 + (n * n - 1) * n * n
            return len(lines) == (n * n - 1) * (1 + n)
        if command == "decompose":
            p, q = int(opts["--p"]), int(opts["--q"])
            m = oracles.swap_dense(p, q) if matrix is None else matrix
            grid = oracles.product_grid(m, p, q)
            kept = np.abs(grid) > 1e-12
            if fmt == "json":
                return self._check_decompose_json(p, q, grid, kept, data)
            return len(lines) == 1 + int(kept.sum())  # csv header or pretty title, one line per cell
        return False

    def _schema(self, command):
        if command not in self._schemas:
            from jsonschema import Draft202012Validator

            path = os.path.join(self.root, "docs", "schema", f"{command}.schema.json")
            with open(path, encoding="utf-8") as fh:
                self._schemas[command] = Draft202012Validator(json.load(fh))
        return self._schemas[command]

    def _check_verify(self, n_max, out):
        lines = out.splitlines()
        return (
            len(lines) == n_max
            and all(line.endswith(" ok") for line in lines[:-1])
            and lines[-1].startswith("verify: all checks passed")
        )

    def _check_swap_json(self, p, q, method, dense, data):
        ok = data["size"] == p * q and np.array_equal(data["positions"], oracles.one_positions(p, q))
        ok = ok and data.get("methods_agree") is (True if method == "both" else None)
        if dense:
            ok = ok and np.array_equal(_json_matrix(data["dense"]), oracles.swap_dense(p, q))
        return ok and ("dense" in data) == dense

    def _check_basis_json(self, n, data):
        mats = oracles.generators(n)
        got = data["generators"]
        return len(got) == len(mats) and all(
            _max_diff(_json_matrix(g["matrix"]), m) <= EPS for g, m in zip(got, mats)
        )

    def _check_decompose_json(self, p, q, grid, kept, data):
        entries = data["entries"]
        if len(entries) != int(kept.sum()):
            return False
        if data["left_labels"] != self.lib.extended_labels(p) or data["right_labels"] != self.lib.extended_labels(q):
            return False
        return all(
            kept[e["left_index"], e["right_index"]]
            and abs(complex(*e["value"]) - grid[e["left_index"], e["right_index"]]) <= EPS
            for e in entries
        )


def _json_matrix(obj):
    values = np.array(obj["entries"], dtype=np.float64)
    return (values[:, 0] + 1j * values[:, 1]).reshape(obj["rows"], obj["cols"])


def _write_matrix(path, m):
    rows, cols = m.shape
    payload = {"rows": rows, "cols": cols, "entries": [[z.real, z.imag] for z in m.ravel().tolist()]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
