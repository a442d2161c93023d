"""The CLI's output layer writes the same bytes as the per-entry serializers
in ``emit_reference``, at random shapes, values, labels and chunk sizes."""

import contextlib
import io
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emit_reference as ref
from tcm import cli
from tcm.gellmann import GellMannBasis, Triplets, basis
from tcm.swap import swap_by_formula, swap_by_rule

FORMATS = st.sampled_from(["json", "csv", "pretty"])
# 0.1 + 0.2 prints 17 digits, 1e16 and 1e-7 switch repr to exponents,
# 5e-324 is subnormal, and -0.0 is the one value whose ".10g" form is "-0"
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-7, 0.1 + 0.2, 1.0, -2.0, 3.0, 2.0 ** 53,
           float("inf"), float("-inf"), float("nan")]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
COMPLEXES = st.builds(complex, FLOATS, FLOATS)
# labels with csv delimiters, quotes and line ends, and a non-ASCII letter for JSON escapes
LABELS = st.text(alphabet='SAD(),12 "\n\ré', max_size=6)
CHUNKS = st.sampled_from([1, 2, 3, 5, 1 << 16])
# signed zeros, the smallest subnormal and non-finite parts, alone and in
# pairs that == cannot tell apart; the all-zero and NaN-modulus ones fall
# below decompose's threshold 0
EDGES = np.array([-0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324, complex(0.0, 5e-324), complex(-0.0, 5e-324),
                  complex(1.0, 0.0), complex(1.0, -0.0), complex(float("nan"), -0.0), complex(float("inf"), float("nan")),
                  complex(-float("inf"), -0.0), complex(2.0, float("inf"))])
EDGE_BASIS = GellMannBasis(n=2, triplets=Triplets(*np.unravel_index(np.arange(12), (3, 2, 2)), EDGES))
EDGE_DECOMPOSITION = (2, 2, "edges", 0.0, np.resize(EDGES, (4, 4)), ["I", "S(1,2)", "A(1,2)", "D(1)"], ["I", "x", "y", "z"])


def written(write, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write(*args)
    return out.getvalue()


def assert_same_text(got, want):
    # a bare == on two large outputs makes pytest build their whole diff
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"outputs of {len(got)} and {len(want)} characters first differ at offset {at}:\n"
                    f"got      {got[max(0, at - 40):at + 40]!r}\nexpected {want[max(0, at - 40):at + 40]!r}",
                    pytrace=False)


def assert_same_output(chunk, new, old, *args):
    with mock.patch.object(cli, "_CHUNK", chunk):
        got = written(new, *args)
    assert_same_text(got, written(old, *args))


def with_examples(**case):
    """Run ``case`` in each format at _CHUNK 1 and 1 << 16 as explicit examples of a hypothesis test."""
    def decorate(test):
        for fmt in ["json", "csv", "pretty"]:
            for chunk in [1, 1 << 16]:
                test = example(fmt=fmt, chunk=chunk, **case)(test)
        return test
    return decorate


def complex_array(draw, shape):
    values = draw(st.lists(COMPLEXES, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values, dtype=np.complex128).reshape(shape)


@st.composite
def bases(draw):
    # triplets for a random set of cells, in a random order: every cell can
    # hold a random value at n = 2, up to 3 n^2 cells above, and n = 4, 5
    # number the generators past 9
    n = draw(st.integers(2, 5))
    cells = (n * n - 1) * n * n
    flat = draw(st.sets(st.integers(0, cells - 1), max_size=min(cells, 3 * n * n)))
    flat = np.array(draw(st.permutations(sorted(flat))), dtype=np.int64)
    k, i, j = np.unravel_index(flat, (n * n - 1, n, n))
    return GellMannBasis(n=n, triplets=Triplets(k, i, j, complex_array(draw, flat.shape)))


@st.composite
def decompositions(draw):
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    grid = complex_array(draw, (p * p, q * q))
    left = draw(st.lists(LABELS, min_size=p * p, max_size=p * p))
    right = draw(st.lists(LABELS, min_size=q * q, max_size=q * q))
    source = draw(st.text(alphabet='ab/.,"\\é ', max_size=8))
    threshold = draw(st.sampled_from([0.0, 1e-12, 0.5, 1e300]))
    return p, q, source, threshold, grid, left, right


@with_examples(b=EDGE_BASIS)
@settings(max_examples=150, deadline=None)
@given(fmt=FORMATS, b=bases(), chunk=CHUNKS)
def test_basis_matches_reference(fmt, b, chunk):
    assert_same_output(chunk, cli._write_basis, ref.write_basis, fmt, b)


@settings(max_examples=150, deadline=None)
@given(fmt=FORMATS, p=st.integers(1, 5), q=st.integers(1, 5), rule=st.booleans(),
       method=st.sampled_from(["formula", "rule", "both"]), dense=st.booleans(), chunk=CHUNKS)
def test_swap_matches_reference(fmt, p, q, rule, method, dense, chunk):
    u = swap_by_rule(p, q) if rule else swap_by_formula(p, q)
    agree = True if method == "both" else None
    assert_same_output(chunk, cli._write_swap, ref.write_swap, fmt, u, method, agree, dense)


# rows, columns and ordinals of two digits at n = 10, ordinals of three at
# n = 11; swap indices of two digits at 3 (x) 4 and of three at 10 (x) 10
@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("n", [10, 11])
def test_basis_past_the_digit_boundaries_matches_reference(n, fmt, chunk):
    assert_same_output(chunk, cli._write_basis, ref.write_basis, fmt, basis(n))


@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("p, q", [(3, 4), (10, 10)])
def test_dense_swap_past_the_digit_boundaries_matches_reference(p, q, fmt, chunk):
    assert_same_output(chunk, cli._write_swap, ref.write_swap, fmt, swap_by_formula(p, q), "formula", None, True)


@with_examples(case=EDGE_DECOMPOSITION)
@settings(max_examples=200, deadline=None)
@given(fmt=FORMATS, case=decompositions(), chunk=CHUNKS)
def test_decompose_matches_reference(fmt, case, chunk):
    assert_same_output(chunk, cli._write_decompose, ref.write_decompose, fmt, *case)


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_decompose_with_nothing_kept_matches_reference(fmt):
    case = (2, 2, "swap", 1.0, np.full((4, 4), 0.5 + 0j), ["I", "S(1,2)", "A(1,2)", "D(1)"], ["I", "x", "y", "z"])
    got = written(cli._write_decompose, fmt, *case)
    assert_same_text(got, written(ref.write_decompose, fmt, *case))
    if fmt == "json":
        assert '  "entries": []\n}\n' in got

