"""Per-entry serializers kept as the reference for the CLI's output layer.

``tcm.cli`` writes a chunk of records at a time and splices dense
matrices from templates.  The functions here are the earlier serializers: ``json.dump``
with ``indent=2`` over Python lists, one ``csv.writer.writerow`` per matrix
entry and one ``print`` per pretty line, each value formatted where it is
written.  ``write_basis``, ``write_swap`` and ``write_decompose`` take the
same arguments as ``cli._write_basis``, ``cli._write_swap`` and
``cli._write_decompose`` and must write the same bytes to ``sys.stdout``;
``write_basis`` reads each generator's kind and indices back from its
label text, not from the basis's table.
"""

import csv
import json
import sys

import numpy as np

from loop_reference import label_fields
from tcm.gellmann import DIAGONAL


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


def write_basis(fmt, b):
    n = b.n
    if fmt == "json":
        generators = []
        for ordinal, (label, mat) in enumerate(b, start=1):
            kind, i, j, d = label_fields(label)
            record = {"ordinal": ordinal, "kind": kind}
            if kind == DIAGONAL:
                record["d"] = d
            else:
                record["i"] = i
                record["j"] = j
            record["matrix"] = _matrix_obj(mat)
            generators.append(record)
        _dump_json({"command": "basis", "n": n, "generators": generators})
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["ordinal", "kind", "i", "j", "d", "row", "col", "re", "im"])
        for ordinal, (label, mat) in enumerate(b, start=1):
            kind, i, j, d = label_fields(label)
            if kind == DIAGONAL:
                i = j = ""
            else:
                d = ""
            for r in range(n):
                for c in range(n):
                    z = mat[r, c]
                    writer.writerow(
                        [ordinal, kind, i, j, d, r + 1, c + 1,
                         repr(float(z.real)), repr(float(z.imag))]
                    )
    else:
        for ordinal, (label, mat) in enumerate(b, start=1):
            print(f"[{ordinal}] {label}")
            _print_matrix(mat)


def write_swap(fmt, u, method, dense):
    p, q = u.p, u.q
    positions = u.one_positions().tolist()
    if fmt == "json":
        payload = {
            "command": "swap",
            "p": p,
            "q": q,
            "method": method,
            "size": u.size,
            "positions": [[r, c] for r, c in positions],
        }
        if method == "both":
            payload["methods_agree"] = True
        if dense:
            payload["dense"] = _matrix_obj(u.dense())
        _dump_json(payload)
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        if dense:
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
        if method == "both":
            print("rule and formula constructions agree")
        if dense:
            _print_matrix(u.dense())


def write_decompose(fmt, p, q, source, threshold, grid, left, right):
    rows, cols = np.nonzero(np.abs(grid) > threshold)
    kept = [(a, b, grid[a, b]) for a, b in zip(rows.tolist(), cols.tolist())]
    if fmt == "json":
        _dump_json(
            {
                "command": "decompose",
                "p": p,
                "q": q,
                "source": source,
                "threshold": threshold,
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
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["left_index", "right_index", "left", "right", "re", "im"])
        for a, b, z in kept:
            writer.writerow([a, b, left[a], right[b], repr(float(z.real)), repr(float(z.imag))])
    else:
        print(
            f"decomposition over {{I, ...}} (x) {{I, ...}} for p={p}, q={q} "
            f"({len(kept)} of {p * p * q * q} coefficients above {threshold:g}):"
        )
        for a, b, z in kept:
            print(f"  {left[a]} (x) {right[b]}: {_fmt_complex(z)}")
