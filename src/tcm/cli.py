"""Command line interface: ``tcm basis|swap|decompose|verify``.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 internal consistency failure (a broken walk checkpoint, or rule and
formula constructions that disagree).  Every refusal (argparse's, a
request that would build or write more than ``_MAX_CELLS`` cells, checked
before anything is built or read, and a matrix file longer than its
shape allows) raises InputError; main alone turns it into exit 2.
Complex numbers serialize as [re, im] pairs in JSON and as re,im column
pairs in CSV; matrices in JSON always use the object form
``{"rows": R, "cols": C, "entries": [[re, im], ...]}`` (row-major), which
is also the accepted input file format for ``decompose``.
"""

import argparse
import json
import signal
import sys
from itertools import chain

import numpy as np

from .matops import DEFAULT_ABS_EPS, as_matrix
from .gellmann import basis
from .swap import WalkCheckpointError, swap_by_formula, swap_by_rule
from .product import decompose_product, extended_labels, identity_errors

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# the most cells a request may build or write: one n^2 x n^2 matrix at
# n = 64, the largest size the identities are checked at in CI
_MAX_CELLS = 1 << 24


class InputError(Exception):
    """Unusable command input (bad value, unreadable or misshapen file)."""


def _check_cells(request, cells):
    """Raise InputError if ``request`` would build or write more than _MAX_CELLS cells."""
    if cells > _MAX_CELLS:
        raise InputError(f"{request} would take {cells} cells, over the {_MAX_CELLS}-cell limit")


# ---------------------------------------------------------------------------
# output
#
# Output goes to sys.stdout (looked up at each write, so redirected
# capture works) about _CHUNK entries at a time: each writer gives the
# text of the records of one chunk, every value formatted in the record
# that holds it.  Dense matrices are rendered from their sparse source: a
# swap row's 1 or a generator's triplets spliced into the text of zeros.
# The bytes are those of json.dump(indent=2), csv.writer and one print
# per line.

_CHUNK = 1 << 16  # entries formatted and written at a time
_LIST = _PREFIX = "\x00"  # marks a pre-rendered JSON list or a csv record prefix; argv and numbers hold no NUL
_LIST_TOKEN = json.dumps(_LIST)
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x):
    text = repr(x)
    return _JSON_NONFINITE.get(text, text)


def _json_pair(depth):
    """Formatter of a complex value as json.dump(indent=2) writes its ``[re, im]`` list at ``depth``."""
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    return lambda z: f"[{inner}{_json_float(z.real)},{inner}{_json_float(z.imag)}{outer}]"


def _json_lead(depth):
    """What json.dump(indent=2) writes between two items of a list at ``depth``."""
    return ",\n" + "  " * depth


def _csv_field(text):
    """``text`` as csv.writer quotes a field: only when it holds a delimiter, quote or line end."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_pair(z):
    return f"{z.real!r},{z.imag!r}\r\n"


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


def _write_records(count, per_record, texts, lead=""):
    """Write ``count`` records of ``per_record`` entries, about _CHUNK entries per write:
    ``texts(start, stop)`` gives the text of each of records start..stop-1, and
    ``lead`` goes between two records.  No chunk's text outlives its write."""
    step = max(1, _CHUNK // per_record)
    for start in range(0, count, step):
        sys.stdout.write((lead if start else "") + lead.join(texts(start, min(start + step, count))))


def _zeros(heads, zero, tail=""):
    """``zero`` after each of ``heads``, then ``tail``; and the offset of each ``zero``."""
    ends = np.cumsum([len(head) + len(zero) for head in heads])
    return zero.join(heads) + zero + tail, ends - len(zero)


def _spliced(template, starts, ends, texts):
    """``template`` with its ascending spans ``starts[t]:ends[t]`` replaced by ``texts[t]``."""
    parts, end = [], 0
    for start, stop, text in zip(starts, ends, texts):
        parts += template[end:start], text
        end = stop
    parts.append(template[end:])
    return "".join(parts)


def _write_json(payload, lists):
    """Write ``json.dumps(payload, indent=2)`` and a newline.

    Each ``_LIST`` value in ``payload`` stands, in document order, for one
    of ``lists``: a ``(depth, count, per_record, texts)`` tuple for a list
    at nesting ``depth`` of ``count`` records of ``per_record`` items, whose
    ``texts`` are as for :func:`_write_records`.
    """
    out = sys.stdout
    pieces = json.dumps(payload, indent=2).split(_LIST_TOKEN)
    for piece, (depth, count, per_record, texts) in zip(pieces, lists):
        out.write(piece)
        if count == 0:
            out.write("[]")
            continue
        out.write("[\n" + "  " * depth)
        _write_records(count, per_record, texts, _json_lead(depth))
        out.write(f"\n{'  ' * (depth - 1)}]")
    out.write(pieces[-1] + "\n")


def _write_basis(fmt, b):
    """Write the generators of the basis ``b`` in ``fmt`` (json, csv or pretty),
    each spliced from its triplets into the text of an n x n zero matrix."""
    n = b.n
    k, i, j, value = b.triplets  # by generator and row-major within each, so the spans ascend
    lo = np.searchsorted(k, np.arange(len(b) + 1)).tolist()  # generator g holds lo[g]..lo[g + 1] - 1
    fmt_value = {"json": _json_pair(5), "csv": _csv_pair, "pretty": _fmt_complex}[fmt]
    texts = [fmt_value(z) for z in value.tolist()]
    if fmt == "pretty":
        # a cell is two spaces and its text right-aligned to its generator's widest
        lengths = np.array([len(text) for text in texts], dtype=np.int64)
        widths = np.ones(len(b), dtype=np.int64)
        np.maximum.at(widths, k, lengths)
        w = widths[k] + 2
        ends = i * (n * w + 1) + (j + 1) * w
        starts, ends, widths = (ends - lengths).tolist(), ends.tolist(), widths.tolist()
    elif fmt == "json":
        template, starts = _zeros([""] + [_json_lead(5)] * (n * n - 1), fmt_value(0j))
        starts = starts[i * n + j]
        starts, ends = starts.tolist(), (starts + len(fmt_value(0j))).tolist()

    def spliced(g, template):
        at = slice(lo[g], lo[g + 1])
        return _spliced(template, starts[at], ends[at], texts[at])

    # ordinal, kind and the indices i, j, d of each generator; 0 marks an index it lacks
    table = list(enumerate(zip(*(a.tolist() for a in b.table)), start=1))
    if fmt == "json":
        generators = [
            {"ordinal": ordinal, "kind": kind, **{k: v for k, v in zip("ijd", ijd) if v},
             "matrix": {"rows": n, "cols": n, "entries": _LIST}}
            for ordinal, (kind, *ijd) in table
        ]
        _write_json({"command": "basis", "n": n, "generators": generators},
                    ((5, 1, n * n, lambda a, z, g=g: [spliced(g, template)]) for g in range(len(b))))
        return
    if fmt == "csv":
        sys.stdout.write("ordinal,kind,i,j,d,row,col,re,im\r\n")
        prefixes = [f"{ordinal},{kind},{i or ''},{j or ''},{d or ''}," for ordinal, (kind, i, j, d) in table]
        # a record is the generator's prefix and its cell's text, a zero cell's rendered once per command
        cells = [f"{r},{c}," for r in range(1, n + 1) for c in range(1, n + 1)]
        zeros, places = ["", *(cell + fmt_value(0j) for cell in cells)], (i * n + j).tolist()

        def generator(g):
            records = zeros.copy()
            for t in range(lo[g], lo[g + 1]):
                records[places[t] + 1] = cells[places[t]] + texts[t]
            return prefixes[g].join(records)
    else:
        generator = lambda g: f"[{g + 1}] {b.labels[g]}\n" + spliced(g, ((" " * (widths[g] + 1) + "0") * n + "\n") * n)
    _write_records(len(b), n * n, lambda a, z: [generator(g) for g in range(a, z)])


def _write_swap(fmt, u, method, dense):
    """Write the swap ``u`` built by ``method`` in ``fmt``, which under
    ``both`` states that the methods agree; ``dense`` adds the whole matrix."""
    p, q, size = u.p, u.q, u.size
    # the 1 of row k + 1 sits in column cols[k]: the inverse permutation, 1-based, filled by chunk
    cols = np.empty(size, dtype=np.int64)
    for a in range(0, size, _CHUNK):
        cols[u.perm[a:a + _CHUNK]] = np.arange(a + 1, min(a + _CHUNK, size) + 1)
    out = sys.stdout

    def ones(a, b):
        """The (row, col) pairs of the ones of rows a + 1..b: each chunk
        formats its own, so no text is held for the whole swap."""
        return zip(range(a + 1, b + 1), cols[a:b].tolist())

    if dense:
        fmt_value = {"json": _json_pair(3), "csv": _csv_pair, "pretty": _fmt_complex}[fmt]
        zero, one = fmt_value(0j), fmt_value(1 + 0j)  # of one length in every format
        heads = ([""] + [_json_lead(3)] * (size - 1) if fmt == "json" else
                 [f"{_PREFIX}{c}," for c in range(1, size + 1)] if fmt == "csv" else ["  "] * size)
        template, starts = _zeros(heads, zero, "\n" if fmt == "pretty" else "")
        starts = starts[cols - 1].tolist()

        def rows(a, b):  # only a csv template holds a _PREFIX
            return [_spliced(template, [s], [s + len(one)], [one]).replace(_PREFIX, f"{r},")
                    for r, s in enumerate(starts[a:b], start=a + 1)]

    if fmt == "json":
        payload = {"command": "swap", "p": p, "q": q, "method": method, "size": size, "positions": _LIST}
        lists = [(2, size, 1, lambda a, b: [f"[\n      {r},\n      {c}\n    ]" for r, c in ones(a, b)])]
        if method == "both":
            payload["methods_agree"] = True
        if dense:
            payload["dense"] = {"rows": size, "cols": size, "entries": _LIST}
            lists.append((3, size, size, rows))
        _write_json(payload, lists)
    elif fmt == "csv":
        if dense:
            out.write("row,col,re,im\r\n")
            _write_records(size, size, rows)
        else:
            out.write("row,col\r\n")
            _write_records(size, 1, lambda a, b: [f"{r},{c}\r\n" for r, c in ones(a, b)])
    else:
        out.write(f"swap {p} (x) {q}: {size} x {size} permutation matrix\nones at (row, col): ")
        _write_records(size, 1, lambda a, b: [f"({r},{c})" for r, c in ones(a, b)], lead=", ")
        out.write("\n")
        if method == "both":
            out.write("rule and formula constructions agree\n")
        if dense:
            _write_records(size, size, rows)


def _write_decompose(fmt, p, q, source, threshold, grid, left, right):
    """Write the cells of the coefficient ``grid`` with modulus above
    ``threshold`` in ``fmt``; ``left`` and ``right`` label its axes."""
    rows, cols = np.nonzero(np.abs(grid) > threshold)
    values = grid[rows, cols]
    count = len(values)

    def kept(a, b):  # the row, column and value of kept cells a..b-1
        return zip(rows[a:b].tolist(), cols[a:b].tolist(), values[a:b].tolist())

    if fmt == "json":
        key, inner = "\n      ", "\n        "  # key also ends the value's list
        by_left = [f'{{{key}"left_index": {a},{key}"right_index": ' for a in range(len(left))]
        by_right = [f'{b},{key}"left": ' for b in range(len(right))]
        left_names = [f'{json.dumps(name)},{key}"right": ' for name in left]
        right_names = [f'{json.dumps(name)},{key}"value": ' for name in right]
        payload = {"command": "decompose", "p": p, "q": q, "source": source, "threshold": threshold,
                   "left_labels": left, "right_labels": right, "entries": _LIST}
        _write_json(payload, [(2, count, 1, lambda a, b: [
            f"{by_left[r]}{by_right[c]}{left_names[r]}{right_names[c]}"
            f"[{inner}{_json_float(z.real)},{inner}{_json_float(z.imag)}{key}]\n    }}"
            for r, c, z in kept(a, b)
        ])])
    elif fmt == "csv":
        sys.stdout.write("left_index,right_index,left,right,re,im\r\n")
        left_names, right_names = ([_csv_field(name) for name in labels] for labels in (left, right))
        _write_records(count, 1, lambda a, b: [f"{r},{c},{left_names[r]},{right_names[c]},{z.real!r},{z.imag!r}\r\n"
                                               for r, c, z in kept(a, b)])
    else:
        sys.stdout.write(f"decomposition over {{I, ...}} (x) {{I, ...}} for p={p}, q={q} "
                         f"({count} of {p * p * q * q} coefficients above {threshold:g}):\n")
        _write_records(count, 1, lambda a, b: [f"  {left[r]} (x) {right[c]}: {_fmt_complex(z)}\n"
                                               for r, c, z in kept(a, b)])


# ---------------------------------------------------------------------------
# input

def _load_matrix_file(path, size):
    """Read the ``size`` x ``size`` matrix ``{"rows": R, "cols": C, "entries": [[re, im], ...]}``
    (row-major) from a file of at most 128 characters per entry and 4096 more:
    json.dump(indent=4) of the longest doubles takes 96 per entry."""
    bound = size * size * 128 + 4096
    try:
        with open(path, encoding="utf-8") as fh:
            text = ""  # a MiB at a time: one read of bound + 1 would reserve that much memory
            while len(text) <= bound and (piece := fh.read(min(1 << 20, bound + 1 - len(text)))):
                text += piece
        if len(text) > bound:
            raise InputError(f"matrix file {path!r} is longer than the {bound} characters "
                             f"a {size} x {size} matrix may take")
        data = json.loads(text)
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
    if (rows, cols) != (size, size):
        raise InputError(f"matrix file {path!r} is {rows} x {cols}, expected {size} x {size}")
    try:
        values = _pair_values(entries)
    except TypeError:
        raise InputError(f"matrix file {path!r}: entries must be [re, im] pairs")
    except OverflowError:
        raise InputError(f"matrix file {path!r}: an entry is too large for a float")
    try:
        return as_matrix(values.reshape(rows, cols))
    except ValueError as exc:
        raise InputError(f"matrix file {path!r}: {exc}")


def _pair_values(entries):
    """JSON ``[[re, im], ...]`` as complex128, checked in bulk.

    Raises TypeError if any entry is no pair of ints and floats (a bool is
    neither), and only then OverflowError if a number is too large for a
    float: a type fault anywhere wins.
    """
    if set(map(type, entries)) == {list} and set(map(len, entries)) == {2}:
        flat = list(chain.from_iterable(entries))
        if set(map(type, flat)) <= {int, float}:
            return np.array(flat, dtype=np.float64).view(np.complex128)
    raise TypeError("entries must be [re, im] pairs")


# ---------------------------------------------------------------------------
# subcommands

def cmd_basis(args):
    n = args.n
    if n < 2:
        raise InputError("--n must be at least 2")
    _check_cells(f"the {n * n - 1} generators of n = {n}", (n * n - 1) * n * n)
    _write_basis(args.format, basis(n))
    return EXIT_OK


def cmd_swap(args):
    p, q = args.p, args.q
    if p < 1 or q < 1:
        raise InputError("--p and --q must be at least 1")
    if args.dense:
        _check_cells(f"the dense {p * q} x {p * q} swap", (p * q) ** 2)
    else:
        _check_cells(f"the positions of the {p} (x) {q} swap", p * q)
    # under --method rule a broken walk checkpoint ends in main, exit 3
    u = (swap_by_rule if args.method == "rule" else swap_by_formula)(p, q)
    if args.method == "both":
        try:
            agree = np.array_equal(u.perm, swap_by_rule(p, q).perm)
        except WalkCheckpointError:
            agree = False
        if not agree:
            return _internal_failure("rule and formula constructions disagree")
    _write_swap(args.format, u, args.method, args.dense)
    return EXIT_OK


def cmd_decompose(args):
    p, q = args.p, args.q
    if p < 1 or q < 1:
        raise InputError("--p and --q must be at least 1")
    if not np.isfinite(args.threshold) or args.threshold < 0:
        raise InputError("--threshold must be finite and non-negative")
    n = max(p, q)
    _check_cells(f"the ({n * n}, {n * n}) arrays of decompose at factor size {n}", n ** 4)
    m = swap_by_formula(p, q).dense() if args.input == "swap" else _load_matrix_file(args.input, p * q)
    # + 0.0 makes each -0.0, whose sign depends on the order of the
    # arithmetic, a 0.0.  Entries near the float64 limit can overflow a
    # coefficient; the grid printed is checked, as which flags are raised
    # on the way depends on the kernel
    with np.errstate(over="ignore", invalid="ignore"):
        grid = decompose_product(m, p, q).grid + 0.0
    if not np.isfinite(grid).all():
        raise InputError(f"matrix file {args.input!r}: the projection overflows float64")
    _write_decompose(args.format, p, q, args.input, args.threshold, grid, extended_labels(p), extended_labels(q))
    return EXIT_OK


def cmd_verify(args):
    if args.n_max < 2:
        raise InputError("--n-max must be at least 2")
    _check_cells(f"the {args.n_max ** 2} x {args.n_max ** 2} identities of n = {args.n_max}", args.n_max ** 4)
    if not np.isfinite(args.tol) or args.tol < 0:
        raise InputError("--tol must be finite and non-negative")
    all_ok = True
    for n in range(2, args.n_max + 1):
        closed_err, off_err, diag_err = identity_errors(n)
        ok = closed_err <= args.tol and off_err <= args.tol and diag_err <= args.tol
        all_ok = all_ok and ok
        print(
            f"n={n:2d}  closed-form {closed_err:.3e}  "
            f"pair families {off_err:.3e}  diagonal family {diag_err:.3e}  "
            f"{'ok' if ok else 'FAIL'}"
        )
    if all_ok:
        print(f"verify: all checks passed for n = 2..{args.n_max} (tol {args.tol:g})")
        return EXIT_OK
    print(f"verify: FAILED at tol {args.tol:g}", file=sys.stderr)
    return EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's refusals, the subparsers' too, end in main as exit 2
        raise InputError(message)


def build_parser():
    parser = _Parser(
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
        default=DEFAULT_ABS_EPS,
        help="comparison tolerance (default %(default)g)",
    )
    p_ver.set_defaults(func=cmd_verify)
    return parser


def _internal_failure(message):
    print(f"tcm: internal consistency failure: {message}", file=sys.stderr)
    return EXIT_INTERNAL


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"tcm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WalkCheckpointError as exc:
        return _internal_failure(exc)


def run():
    """The ``tcm`` program.  A reader that closes the pipe early ends it as it
    ends cat: by SIGPIPE, with no traceback.  Windows has no SIGPIPE."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
