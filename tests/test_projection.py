"""The projections checked from their definitions, and never against a
replay of the library's own order of arithmetic.

``decompose_product``/``reconstruct_product`` and
``expand_in_basis``/``reconstruct`` match the cell and term loops of
``loop_reference`` within 1e-14 max(1, max|m|), on random operators and
on the random, hermitian and swap inputs of every size up to 12 (x) 5,
and the products of the conjugate generator stacks within the same bound
up to 16 (x) 16; the cached operands give the bits of a fresh build.
Beyond the loops' reach four laws tie the product layer to the
single-basis and swap layers: product, swap conjugation and adjoint
within 1e-14 max|m|, and scale by 2^k, which is exact, bit for bit.  A
sum of Kronecker squares matches one ``np.kron`` per matrix.  The bytes
of the output are pinned by ``tests/golden/``, ``workload.sha256`` and
``test_emit.py``, not here.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loop_reference as loops
from loop_reference import basis_coefficients, basis_sum, extended_factors, product_grid, product_sum, realign, unrealign
from tcm import gellmann, product
from tcm.gellmann import BasisCoefficients, Triplets, _complex_operands, _real_operands, basis, expand_in_basis, reconstruct
from tcm.matops import DEFAULT_ABS_EPS, max_abs_diff
from tcm.product import ProductCoefficients, decompose_product, reconstruct_product
from tcm.swap import swap_by_formula

dims = st.integers(min_value=1, max_value=6)
KINDS = ("complex", "hermitian", "swap")
kinds = st.sampled_from(KINDS)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_operator(seed, kind, d):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if kind == "hermitian":
        m = (m + m.conj().T) / 2
    return m


def operator(kind, p, q, seed):
    """A seeded random complex or hermitian pq x pq operator, or the swap of
    p (x) q, whose coefficients carry the signed zeros that json prints."""
    return swap_by_formula(p, q).dense() if kind == "swap" else random_operator(seed, kind, p * q)


def bound(m):
    return 1e-14 * max(1.0, np.max(np.abs(m)))


def with_examples(examples):
    """Each keyword dict of ``examples`` as one explicit hypothesis example."""
    def decorate(test):
        for kwargs in examples:
            test = example(**kwargs)(test)
        return test
    return decorate


LOOP_SIZES = [(p, q) for p in range(1, 9) for q in range(1, 9)] + [(12, 5)]
SIZE_EXAMPLES = [dict(p=p, q=q, kind=kind, seed=1000 * p + q) for p, q in LOOP_SIZES for kind in KINDS]


@settings(max_examples=60, deadline=None)
@given(p=dims, q=dims, kind=kinds, seed=seeds)
@with_examples(SIZE_EXAMPLES)
def test_decompose_matches_cell_loop(p, q, kind, seed):
    m = operator(kind, p, q, seed)
    grid = decompose_product(m, p, q).grid
    expected = product_grid(m, p, q)
    assert np.max(np.abs(grid - expected)) <= bound(m)
    assert max_abs_diff(reconstruct_product(ProductCoefficients(p=p, q=q, grid=grid)), m) <= bound(m)
    if kind == "swap":
        np.testing.assert_array_equal(np.abs(grid) > 1e-12, np.abs(expected) > 1e-12)


@settings(max_examples=60, deadline=None)
@given(p=dims, q=dims, kind=kinds, seed=seeds)
@with_examples(SIZE_EXAMPLES)
def test_reconstruct_matches_term_loop(p, q, kind, seed):
    grid = operator(kind, p, q, seed).reshape(p * p, q * q)
    got = reconstruct_product(ProductCoefficients(p=p, q=q, grid=grid))
    assert max_abs_diff(got, product_sum(grid, p, q)) <= bound(grid)


def factors(n):
    """n's smallest factor d and n / d: the swap of d (x) n / d is the
    identity for prime n."""
    d = next(d for d in range(2, n + 1) if n % d == 0) if n > 1 else 1
    return d, n // d


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=8), kind=kinds, seed=seeds)
@with_examples([dict(n=n, kind=kind, seed=n) for n in range(1, 17) for kind in KINDS])
def test_expansion_matches_generator_loop(n, kind, seed):
    m = operator(kind, *factors(n), seed)
    coeffs = expand_in_basis(m)
    c0, c = basis_coefficients(m)
    assert abs(coeffs.c0 - c0) <= bound(m)
    assert np.max(np.abs(coeffs.c - c), initial=0.0) <= bound(m)
    assert max_abs_diff(reconstruct(coeffs), basis_sum(n, c0, c)) <= bound(m)
    assert max_abs_diff(reconstruct(BasisCoefficients(n=n, c0=c0, c=c)), m) <= bound(m)


SCALES = (-60, -3, 5, 40)


def coefficient_vector(m):
    coeffs = expand_in_basis(m)
    return np.concatenate(([coeffs.c0], coeffs.c))


def law_violations(decompose, p, q, seed):
    """The laws that ``decompose(m, p, q)``, a (p^2, q^2) coefficient grid,
    breaks on seeded random complex operators.

    - product: ``decompose(kron(A, B))`` is the outer product of the
      expansions of A and B;
    - swap conjugation: with ``out[ix_(perm, perm)] = m``, the paper's
      ``U m U^T``, ``decompose(out, q, p)`` is ``decompose(m, p, q).T``;
    - adjoint: ``decompose(m^H)`` is ``conj(decompose(m))``;
    - scale: ``decompose(2^k m)`` is ``2^k decompose(m)`` bit for bit.

    The first three may differ by 1e-14 max|m|, the rounding of two
    orders of arithmetic.
    """
    rng = np.random.default_rng(seed)
    a, b, m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (p, q, p * q))
    kron = np.kron(a, b)
    swapped = np.empty_like(m)
    perm = swap_by_formula(p, q).perm
    swapped[np.ix_(perm, perm)] = m
    grid = decompose(m, p, q)
    residuals = {
        "product": (decompose(kron, p, q) - np.outer(coefficient_vector(a), coefficient_vector(b)), kron),
        "swap conjugation": (decompose(swapped, q, p) - grid.T, m),
        "adjoint": (decompose(m.conj().T, p, q) - grid.conj(), m),
    }
    violated = [law for law, (r, x) in residuals.items() if np.max(np.abs(r)) > 1e-14 * np.max(np.abs(x))]
    if any(decompose(2.0**k * m, p, q).tobytes() != (2.0**k * grid).tobytes() for k in SCALES):
        violated.append("scale")
    return violated


@settings(max_examples=40, deadline=None)
@given(p=st.integers(min_value=1, max_value=8), q=st.integers(min_value=1, max_value=8), seed=seeds)
@example(p=16, q=16, seed=16)
@example(p=16, q=24, seed=1624)
@example(p=12, q=5, seed=125)
@example(p=1, q=4, seed=14)
@example(p=5, q=1, seed=51)
def test_decompose_keeps_the_laws(p, q, seed):
    assert law_violations(lambda m, p, q: decompose_product(m, p, q).grid, p, q, seed) == []


def stack_decompose(m, p, q, conj=np.conj):
    """``conj(A) @ R(m) @ conj(B).T / outer(norms_p, norms_q)`` from the
    stacks of the single-generator functions."""
    (a, a_norms), (b, b_norms) = extended_factors(p), extended_factors(q)
    return conj(a.reshape(p * p, -1)) @ realign(m, p, q) @ conj(b.reshape(q * q, -1)).T / np.outer(a_norms, b_norms)


# Without conj, each A(i,j) weight is phase / norm instead of
# conj(phase) / norm; R(m^T) is the realignment with rows and columns
# exchanged.
WRONG_DECOMPOSITIONS = {
    "weights-without-conj": lambda m, p, q: stack_decompose(m, p, q, conj=lambda x: x),
    "transposed-realignment": lambda m, p, q: stack_decompose(m.T, p, q),
}


@pytest.mark.parametrize("p,q", [(3, 2), (16, 16)])
@pytest.mark.parametrize("defect", WRONG_DECOMPOSITIONS)
def test_laws_catch_a_wrong_decomposition(defect, p, q):
    assert law_violations(stack_decompose, p, q, seed=0) == []
    assert law_violations(WRONG_DECOMPOSITIONS[defect], p, q, seed=0) != []


def cold(call):
    """``call()`` with the basis and operand caches cleared first: the
    per-call form, every operand built for this one call."""
    basis.cache_clear()
    _real_operands.cache_clear()
    _complex_operands.cache_clear()
    return call()


def stack_reconstruct(grid, p, q):
    """``sum_ab grid[a, b] kron(A_a, B_b)`` as ``R^-1(A^T grid B)``, the
    rows of A and B the flattened single-generator matrices."""
    a, b = (extended_factors(n)[0].reshape(n * n, n * n) for n in (p, q))
    return unrealign(a.T @ grid @ b, p, q)


PRODUCT_SIZES = LOOP_SIZES + [(16, 16)]


@pytest.mark.parametrize("p,q", PRODUCT_SIZES)
def test_product_projection_equals_the_per_call_form_bitwise(p, q):
    # Both calls run the library's own arithmetic; the cached operands,
    # shared by every later call, must hold what a fresh build gives.
    for kind in KINDS:
        m = operator(kind, p, q, 1000 * p + q)
        grid = cold(lambda: decompose_product(m, p, q).grid)
        back = cold(lambda: reconstruct_product(ProductCoefficients(p=p, q=q, grid=grid)))
        assert decompose_product(m, p, q).grid.tobytes() == grid.tobytes(), kind
        assert reconstruct_product(ProductCoefficients(p=p, q=q, grid=grid)).tobytes() == back.tobytes(), kind


@pytest.mark.parametrize("p,q", PRODUCT_SIZES)
def test_product_projection_is_within_1e_14_of_the_complex_form(p, q):
    # The complex products of the conjugate stacks with R(m), and of the
    # grid with the stacks; at 16 (x) 16 beyond the cell loop's reach.
    for kind in KINDS:
        m = operator(kind, p, q, 1000 * p + q)
        grid = decompose_product(m, p, q).grid
        assert np.max(np.abs(grid - stack_decompose(m, p, q))) <= bound(m), kind
        back = reconstruct_product(ProductCoefficients(p=p, q=q, grid=grid))
        assert max_abs_diff(back, stack_reconstruct(grid, p, q)) <= bound(m), kind


@pytest.mark.parametrize("n", range(1, 17))
def test_expansion_equals_the_per_call_form_bitwise(n):
    for kind in KINDS:
        m = operator(kind, *factors(n), n)
        coeffs = cold(lambda: expand_in_basis(m))
        back = cold(lambda: reconstruct(coeffs))
        assert coefficient_vector(m).tobytes() == np.concatenate(([coeffs.c0], coeffs.c)).tobytes(), kind
        assert reconstruct(coeffs).tobytes() == back.tobytes(), kind


@pytest.mark.parametrize("n", range(1, 17))
def test_expansion_is_within_1e_14_of_the_stack_product(n):
    # The product of the conjugate stack with vec(m), and of the
    # coefficients with the stack.
    stack, norms = extended_factors(n)
    stack = stack.reshape(n * n, n * n)
    for kind in KINDS:
        m = operator(kind, *factors(n), n)
        got = coefficient_vector(m)
        assert np.max(np.abs(got - stack.conj() @ m.ravel() / norms)) <= bound(m), kind
        assert max_abs_diff(reconstruct(expand_in_basis(m)), (got @ stack).reshape(n, n)) <= bound(m), kind


def refuse(*args):
    raise AssertionError("this path must not run at this size")


# Each projection has two kernels, chosen by size: complex products up to
# pq = 16 (products) and n = 12 (expansions), the real products and the
# triplets above.  With the other kernel made to raise, sizes at or below
# each threshold must still give the right answer, and sizes above it must
# reach the raise.
@pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (4, 4), (3, 5), (5, 3), (2, 8), (1, 16), (16, 1)])
def test_small_operators_take_the_complex_products(p, q, monkeypatch):
    m = random_operator(100 * p + q, "complex", p * q)
    monkeypatch.setattr(product, "_real_products", refuse)
    coeffs = decompose_product(m, p, q)
    assert np.max(np.abs(coeffs.grid - product_grid(m, p, q))) <= bound(m)
    assert max_abs_diff(reconstruct_product(coeffs), m) <= bound(m)


@pytest.mark.parametrize("p,q", [(3, 6), (6, 3), (1, 17), (4, 5)])
def test_larger_operators_take_the_real_products(p, q, monkeypatch):
    m = random_operator(100 * p + q, "complex", p * q)
    coeffs = decompose_product(m, p, q)
    monkeypatch.setattr(product, "_real_products", refuse)
    with pytest.raises(AssertionError, match="must not run"):
        decompose_product(m, p, q)
    with pytest.raises(AssertionError, match="must not run"):
        reconstruct_product(coeffs)


@pytest.mark.parametrize("n", [1, 2, 8, 12])
def test_small_expansions_take_the_complex_products(n, monkeypatch):
    m = random_operator(n, "complex", n)
    _complex_operands(n)  # built from the triplets once, before they are refused
    monkeypatch.setattr(gellmann, "_basis", refuse)
    coeffs = expand_in_basis(m)
    c0, c = basis_coefficients(m)
    assert abs(coeffs.c0 - c0) <= bound(m)
    assert np.max(np.abs(coeffs.c - c), initial=0.0) <= bound(m)
    assert max_abs_diff(reconstruct(coeffs), m) <= bound(m)


@pytest.mark.parametrize("n", [13, 16])
def test_larger_expansions_take_the_triplets(n, monkeypatch):
    m = random_operator(n, "complex", n)
    coeffs = expand_in_basis(m)
    monkeypatch.setattr(gellmann, "_basis", refuse)
    with pytest.raises(AssertionError, match="must not run"):
        expand_in_basis(m)
    with pytest.raises(AssertionError, match="must not run"):
        reconstruct(coeffs)


def warm_peak(call):
    """Peak bytes that ``call()`` allocates once its caches are warm."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_warm_expansion_copies_no_stack():
    # an earlier form conjugated the whole (256, 256) stack: 1 MB per call
    m = random_operator(16, "complex", 16)
    assert warm_peak(lambda: expand_in_basis(m)) < 64 * 1024


def test_cold_expansion_renders_no_stack():
    # At n = 48 one n^4-entry complex array is 81 MiB; rendering the stack
    # and its conjugate peaked at 162 MiB.  The triplets and the per-call
    # gather and scatter take well under a MiB.
    n = 48
    m = random_operator(48, "complex", n)
    basis.cache_clear()
    tracemalloc.start()
    try:
        back = reconstruct(expand_in_basis(m))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "stack" not in vars(basis(n))
    assert peak < n ** 4 * np.dtype(np.complex128).itemsize / 32
    assert max_abs_diff(back, m) <= DEFAULT_ABS_EPS


def test_warm_product_projection_makes_no_conjugate_copy():
    # At 16 (x) 16 one (256, 256) complex array is 1 MiB.  The realigned
    # input, the inner product and the grid (or the grid and the norm grid)
    # peak at 2.25 of them (2 360 688 bytes measured with numpy 2.4); an
    # earlier form's conjugate stacks took that to 3.0 (3 151 056 bytes).
    one_n4_array = 16 ** 4 * np.dtype(np.complex128).itemsize
    m = random_operator(1616, "complex", 256)
    assert warm_peak(lambda: decompose_product(m, 16, 16)) < 2.5 * one_n4_array


@pytest.mark.parametrize("p,q", [(12, 12), (16, 9)])
def test_round_trips_beyond_loop_reach(p, q):
    rng = np.random.default_rng(100 * p + q)
    m = rng.standard_normal((p * q, p * q)) + 1j * rng.standard_normal((p * q, p * q))
    coeffs = decompose_product(m, p, q)
    assert max_abs_diff(reconstruct_product(coeffs), m) <= DEFAULT_ABS_EPS
    again = decompose_product(reconstruct_product(coeffs), p, q)
    assert np.max(np.abs(again.grid - coeffs.grid)) <= DEFAULT_ABS_EPS


@pytest.mark.parametrize("n", range(2, 13))
def test_identity_sums_match_kron_loops(n):
    for name in (
        "offdiag_family_sum",
        "offdiag_family_reference",
        "diagonal_family_sum",
        "diagonal_family_reference",
    ):
        assert max_abs_diff(getattr(product, name)(n), getattr(loops, name)(n)) <= 1e-12, name
    lhs = product._render(product._pair_products(basis(n).triplets, n), n)
    assert max_abs_diff(lhs, loops.closed_form_lhs(n)) <= 1e-12


def random_sparse_stack(seed, densities, n):
    """Generic complex (k, n, n) stack; matrix k keeps about ``densities[k]`` of its entries."""
    rng = np.random.default_rng(seed)
    shape = (len(densities), n, n)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    keep = rng.random(shape) < np.reshape(densities, (-1, 1, 1))
    return np.where(keep, values, 0)


@settings(max_examples=80, deadline=None)
@given(
    n=dims,
    densities=st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), max_size=6),
    seed=seeds,
)
@example(n=1, densities=[], seed=0)
@example(n=4, densities=[0.0, 1.0, 0.3], seed=1)
@example(n=6, densities=[1.0] * 6, seed=2)
def test_sum_kron_squares_matches_kron_loop(n, densities, seed):
    # density 0 is an all-zero matrix and density 1 a fully dense one
    matrices = random_sparse_stack(seed, densities, n)
    k, i, j = np.nonzero(matrices)
    got = product._render(product._pair_products(Triplets(k, i, j, matrices[k, i, j]), n), n)
    assert got.shape == (n * n, n * n)
    assert np.max(np.abs(got - loops.sum_kron_squares(matrices, n))) <= 1e-12


def test_closed_form_beyond_loop_reach():
    report = product.verify_closed_form(32)
    assert report.passed
    assert report.max_error <= 1e-12
