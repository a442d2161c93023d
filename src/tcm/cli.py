"""Command line interface: ``tcm basis|swap|decompose|verify``.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 internal consistency failure (rule and formula constructions disagree).
Complex numbers serialize as [re, im] pairs in JSON and as re,im column
pairs in CSV; matrices in JSON always use the object form
``{"rows": R, "cols": C, "entries": [[re, im], ...]}`` (row-major), which
is also the accepted input file format for ``decompose``.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from .matops import DEFAULT_ABS_EPS, as_matrix, max_abs_diff
from .gellmann import DIAGONAL, basis
from .swap import WalkCheckpointError, swap_by_formula, swap_by_rule
from .product import (
    decompose_product,
    diagonal_family_reference,
    diagonal_family_sum,
    extended_labels,
    offdiag_family_reference,
    offdiag_family_sum,
    verify_closed_form,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# verify's largest accumulator holds n_max^4 entries; 64^4 = 2^24 of them
# are 256 MB of complex128.
_MAX_VERIFY_N = 64


class InputError(Exception):
    """Unusable command input (bad value, unreadable or misshapen file)."""


def _fail(message):
    print(f"tcm: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _default_tolerance():
    """Default comparison tolerance, overridable via TCM_TOLERANCE."""
    raw = os.environ.get("TCM_TOLERANCE")
    if raw is None:
        return DEFAULT_ABS_EPS
    try:
        value = float(raw)
    except ValueError:
        raise InputError(f"TCM_TOLERANCE is not a decimal number: {raw!r}")
    if not np.isfinite(value) or value < 0:
        raise InputError(f"TCM_TOLERANCE must be finite and non-negative, got {raw!r}")
    return value


# ---------------------------------------------------------------------------
# serialization helpers

def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _matrix_obj(m):
    rows, cols = m.shape
    return {
        "rows": rows,
        "cols": cols,
        "entries": [_pair(z) for z in m.ravel()],
    }


def _fmt_real(x):
    s = format(float(x), ".10g")
    return "0" if s == "-0" else s


def _fmt_complex(z):
    re, im = z.real, z.imag
    if im == 0:
        return _fmt_real(re)
    if re == 0:
        return _fmt_real(im) + "i"
    sign = "+" if im > 0 else "-"
    return f"{_fmt_real(re)}{sign}{_fmt_real(abs(im))}i"


def _print_matrix(m, indent="  "):
    cells = [[_fmt_complex(z) for z in row] for row in m]
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print(indent + "  ".join(c.rjust(width) for c in row))


def _dump_json(payload):
    json.dump(payload, sys.stdout, indent=2)
    print()


def _load_matrix_file(path):
    """Read ``{"rows": R, "cols": C, "entries": [[re, im], ...]}`` (row-major)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read matrix file {path!r}: {exc}")
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError and integers with too many
        # digits are ValueErrors; nesting too deep is a RecursionError
        raise InputError(f"matrix file {path!r} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise InputError(f"matrix file {path!r} must hold a JSON object")
    try:
        rows, cols, entries = data["rows"], data["cols"], data["entries"]
    except KeyError as exc:
        raise InputError(f"matrix file {path!r} is missing key {exc}")
    if not all(isinstance(x, int) and not isinstance(x, bool) and x >= 1 for x in (rows, cols)):
        raise InputError(f"matrix file {path!r} has invalid dimensions")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise InputError(
            f"matrix file {path!r} must hold rows*cols = {rows * cols} entries"
        )
    values = []
    for entry in entries:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise InputError(f"matrix file {path!r}: entries must be [re, im] pairs")
        try:
            values.append(complex(entry[0], entry[1]))
        except OverflowError:
            raise InputError(f"matrix file {path!r}: an entry is too large for a float")
    try:
        return as_matrix(np.array(values, dtype=np.complex128).reshape(rows, cols))
    except ValueError as exc:
        raise InputError(f"matrix file {path!r}: {exc}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_basis(args):
    if args.n < 2:
        return _fail("--n must be at least 2")
    b = basis(args.n)
    if args.format == "json":
        generators = []
        for ordinal, (label, mat) in enumerate(b, start=1):
            record = {"ordinal": ordinal, "kind": label.kind}
            if label.kind == DIAGONAL:
                record["d"] = label.d
            else:
                record["i"] = label.i
                record["j"] = label.j
            record["matrix"] = _matrix_obj(mat)
            generators.append(record)
        _dump_json({"command": "basis", "n": args.n, "generators": generators})
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["ordinal", "kind", "i", "j", "d", "row", "col", "re", "im"])
        for ordinal, (label, mat) in enumerate(b, start=1):
            i = label.i if label.kind != DIAGONAL else ""
            j = label.j if label.kind != DIAGONAL else ""
            d = label.d if label.kind == DIAGONAL else ""
            for r in range(args.n):
                for c in range(args.n):
                    z = mat[r, c]
                    writer.writerow(
                        [ordinal, label.kind, i, j, d, r + 1, c + 1,
                         repr(float(z.real)), repr(float(z.imag))]
                    )
    else:
        for ordinal, (label, mat) in enumerate(b, start=1):
            print(f"[{ordinal}] {label}")
            _print_matrix(mat)
    return EXIT_OK


def cmd_swap(args):
    p, q = args.p, args.q
    if p < 1 or q < 1:
        return _fail("--p and --q must be at least 1")
    methods_agree = None
    try:
        if args.method == "both":
            u = swap_by_formula(p, q)
            methods_agree = bool(np.array_equal(u.perm, swap_by_rule(p, q).perm))
        elif args.method == "rule":
            u = swap_by_rule(p, q)
        else:
            u = swap_by_formula(p, q)
    except WalkCheckpointError:
        methods_agree = False
    if methods_agree is False:
        print(
            "tcm: internal consistency failure: rule and formula constructions disagree",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    positions = u.one_positions()

    if args.format == "json":
        payload = {
            "command": "swap",
            "p": p,
            "q": q,
            "method": args.method,
            "size": u.size,
            "positions": [[r, c] for r, c in positions],
        }
        if methods_agree is not None:
            payload["methods_agree"] = methods_agree
        if args.dense:
            payload["dense"] = _matrix_obj(u.dense())
        _dump_json(payload)
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        if args.dense:
            writer.writerow(["row", "col", "re", "im"])
            for r, row in enumerate(u.dense(), start=1):
                for c, z in enumerate(row, start=1):
                    writer.writerow([r, c, repr(float(z.real)), repr(float(z.imag))])
        else:
            writer.writerow(["row", "col"])
            writer.writerows(positions)
    else:
        print(f"swap {p} (x) {q}: {u.size} x {u.size} permutation matrix")
        print("ones at (row, col):", ", ".join(f"({r},{c})" for r, c in positions))
        if methods_agree is not None:
            print("rule and formula constructions agree")
        if args.dense:
            _print_matrix(u.dense())
    return EXIT_OK


def cmd_decompose(args):
    p, q = args.p, args.q
    if p < 1 or q < 1:
        return _fail("--p and --q must be at least 1")
    if not np.isfinite(args.threshold) or args.threshold < 0:
        return _fail("--threshold must be finite and non-negative")
    if args.input == "swap":
        m = swap_by_formula(p, q).dense()
    else:
        try:
            m = _load_matrix_file(args.input)
        except InputError as exc:
            return _fail(str(exc))
        if m.shape != (p * q, p * q):
            return _fail(
                f"matrix file {args.input!r} is {m.shape[0]} x {m.shape[1]}, "
                f"expected {p * q} x {p * q}"
            )
    coeffs = decompose_product(m, p, q)
    left = extended_labels(p)
    right = extended_labels(q)
    rows, cols = np.nonzero(np.abs(coeffs.grid) > args.threshold)
    kept = [(a, b, coeffs.grid[a, b]) for a, b in zip(rows.tolist(), cols.tolist())]

    if args.format == "json":
        _dump_json(
            {
                "command": "decompose",
                "p": p,
                "q": q,
                "source": args.input,
                "threshold": args.threshold,
                "left_labels": left,
                "right_labels": right,
                "entries": [
                    {
                        "left_index": a,
                        "right_index": b,
                        "left": left[a],
                        "right": right[b],
                        "value": _pair(z),
                    }
                    for a, b, z in kept
                ],
            }
        )
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["left_index", "right_index", "left", "right", "re", "im"])
        for a, b, z in kept:
            writer.writerow([a, b, left[a], right[b], repr(float(z.real)), repr(float(z.imag))])
    else:
        print(
            f"decomposition over {{I, ...}} (x) {{I, ...}} for p={p}, q={q} "
            f"({len(kept)} of {p * p * q * q} coefficients above {args.threshold:g}):"
        )
        for a, b, z in kept:
            print(f"  {left[a]} (x) {right[b]}: {_fmt_complex(z)}")
    return EXIT_OK


def cmd_verify(args):
    if args.n_max < 2:
        return _fail("--n-max must be at least 2")
    if args.n_max > _MAX_VERIFY_N:
        return _fail(
            f"--n-max must be at most {_MAX_VERIFY_N} "
            f"(each check builds n^4-entry matrices)"
        )
    try:
        tol = args.tol if args.tol is not None else _default_tolerance()
    except InputError as exc:
        return _fail(str(exc))
    if not np.isfinite(tol) or tol < 0:
        return _fail("--tol must be finite and non-negative")
    all_ok = True
    for n in range(2, args.n_max + 1):
        report = verify_closed_form(n, abs_eps=tol)
        off_err = max_abs_diff(offdiag_family_sum(n), offdiag_family_reference(n))
        diag_err = max_abs_diff(diagonal_family_sum(n), diagonal_family_reference(n))
        ok = report.passed and off_err <= tol and diag_err <= tol
        all_ok = all_ok and ok
        print(
            f"n={n:2d}  closed-form {report.max_error:.3e}  "
            f"pair families {off_err:.3e}  diagonal family {diag_err:.3e}  "
            f"{'ok' if ok else 'FAIL'}"
        )
    if all_ok:
        print(f"verify: all checks passed for n = 2..{args.n_max} (tol {tol:g})")
        return EXIT_OK
    print(f"verify: FAILED at tol {tol:g}", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tcm",
        description="Tensor commutation (swap) matrices, generator bases, and "
        "product-basis decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="emit the generator basis for dimension n")
    p_basis.add_argument("--n", type=int, required=True, help="dimension, n >= 2")
    p_basis.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    p_basis.set_defaults(func=cmd_basis)

    p_swap = sub.add_parser("swap", help="construct the p (x) q swap matrix")
    p_swap.add_argument("--p", type=int, required=True, help="first factor dimension")
    p_swap.add_argument("--q", type=int, required=True, help="second factor dimension")
    p_swap.add_argument(
        "--method",
        choices=("rule", "formula", "both"),
        default="formula",
        help="construction method; 'both' cross-checks them (exit 3 on mismatch)",
    )
    p_swap.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    p_swap.add_argument("--dense", action="store_true", help="include the dense rendering")
    p_swap.set_defaults(func=cmd_swap)

    p_dec = sub.add_parser(
        "decompose", help="decompose a pq x pq matrix over the product generator basis"
    )
    p_dec.add_argument("--p", type=int, required=True)
    p_dec.add_argument("--q", type=int, required=True)
    p_dec.add_argument(
        "--input",
        default="swap",
        help="'swap' for the p (x) q swap matrix, or a path to a matrix JSON file",
    )
    p_dec.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    p_dec.add_argument(
        "--threshold",
        type=float,
        default=1e-12,
        help="suppress coefficients with modulus <= this value (default 1e-12)",
    )
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = sub.add_parser(
        "verify", help="check the closed-form swap expansion and family-sum identities"
    )
    p_ver.add_argument("--n-max", dest="n_max", type=int, required=True)
    p_ver.add_argument(
        "--tol",
        type=float,
        default=None,
        help="comparison tolerance (default: TCM_TOLERANCE or 1e-10)",
    )
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
