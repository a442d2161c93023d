"""The matrix-product and triplet forms against the term-by-term loops,
bit for bit against per-call forms of the same arithmetic, and the real
product projection and the triplet expansion within 1e-14 of the complex
products they replaced."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loop_reference as loops
from loop_reference import basis_coefficients, basis_sum, product_grid, product_sum
from tcm import product
from tcm.gellmann import BasisCoefficients, Triplets, basis, expand_in_basis, reconstruct
from tcm.matops import DEFAULT_ABS_EPS, max_abs_diff
from tcm.product import ProductCoefficients, decompose_product, reconstruct_product
from tcm.swap import swap_by_formula

dims = st.integers(min_value=1, max_value=6)
kinds = st.sampled_from(["complex", "hermitian"])
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_operator(seed, kind, d):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if kind == "hermitian":
        m = (m + m.conj().T) / 2
    return m


@settings(max_examples=60, deadline=None)
@given(p=dims, q=dims, kind=kinds, seed=seeds)
@example(p=1, q=4, kind="complex", seed=0)
@example(p=5, q=1, kind="hermitian", seed=1)
@example(p=3, q=3, kind="complex", seed=2)
@example(p=6, q=5, kind="hermitian", seed=3)
def test_decompose_matches_cell_loop(p, q, kind, seed):
    m = random_operator(seed, kind, p * q)
    coeffs = decompose_product(m, p, q)
    assert np.max(np.abs(coeffs.grid - product_grid(m, p, q))) <= DEFAULT_ABS_EPS
    assert max_abs_diff(reconstruct_product(coeffs), m) <= DEFAULT_ABS_EPS


@settings(max_examples=60, deadline=None)
@given(p=dims, q=dims, seed=seeds)
@example(p=1, q=1, seed=0)
@example(p=2, q=6, seed=1)
def test_reconstruct_matches_term_loop(p, q, seed):
    grid = random_operator(seed, "complex", p * q).reshape(p * p, q * q)
    got = reconstruct_product(ProductCoefficients(p=p, q=q, grid=grid))
    assert max_abs_diff(got, product_sum(grid, p, q)) <= DEFAULT_ABS_EPS


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=8), kind=kinds, seed=seeds)
def test_expansion_matches_generator_loop(n, kind, seed):
    m = random_operator(seed, kind, n)
    coeffs = expand_in_basis(m)
    c0, c = basis_coefficients(m)
    assert abs(coeffs.c0 - c0) <= DEFAULT_ABS_EPS
    assert np.max(np.abs(coeffs.c - c)) <= DEFAULT_ABS_EPS
    assert max_abs_diff(reconstruct(coeffs), basis_sum(n, c0, c)) <= DEFAULT_ABS_EPS
    assert max_abs_diff(reconstruct(BasisCoefficients(n=n, c0=c0, c=c)), m) <= DEFAULT_ABS_EPS


def oracle_inputs(p, q):
    """A random, a hermitian and the swap operator of p (x) q; the swap's
    coefficients carry the signed zeros that the json output prints."""
    seed = 1000 * p + q
    return {
        "random": random_operator(seed, "complex", p * q),
        "hermitian": random_operator(seed, "hermitian", p * q),
        "swap": swap_by_formula(p, q).dense(),
    }


PRODUCT_SIZES = [(p, q) for p in range(1, 9) for q in range(1, 9)] + [(12, 5), (16, 16)]


@pytest.mark.parametrize("p,q", PRODUCT_SIZES)
def test_product_projection_equals_the_per_call_form_bitwise(p, q):
    for kind, m in oracle_inputs(p, q).items():
        grid = decompose_product(m, p, q).grid
        expected = loops.decompose_real_per_call(m, p, q)
        assert grid.tobytes() == expected.tobytes(), kind
        back = reconstruct_product(ProductCoefficients(p=p, q=q, grid=grid))
        assert back.tobytes() == loops.reconstruct_product_real_per_call(expected, p, q).tobytes(), kind


@pytest.mark.parametrize("p,q", PRODUCT_SIZES)
def test_product_projection_is_within_1e_14_of_the_complex_form(p, q):
    # The complex products of the conjugate stacks; the real arithmetic
    # moved no value by more than 4e-16 at these sizes.
    for kind, m in oracle_inputs(p, q).items():
        bound = 1e-14 * max(1.0, np.max(np.abs(m)))
        grid = decompose_product(m, p, q).grid
        expected = loops.decompose_per_call(m, p, q)
        assert np.max(np.abs(grid - expected)) <= bound, kind
        back = reconstruct_product(ProductCoefficients(p=p, q=q, grid=grid))
        assert np.max(np.abs(back - loops.reconstruct_product_per_call(expected, p, q))) <= bound, kind
        if kind == "swap":
            np.testing.assert_array_equal(np.abs(grid) > 1e-12, np.abs(expected) > 1e-12)


def expansion_inputs(n):
    """``oracle_inputs`` of n's smallest factor d (x) n / d: the swap is the
    identity for prime n."""
    d = next(d for d in range(2, n + 1) if n % d == 0) if n > 1 else 1
    return oracle_inputs(d, n // d)


@pytest.mark.parametrize("n", range(1, 17))
def test_expansion_equals_the_per_call_form_bitwise(n):
    for kind, m in expansion_inputs(n).items():
        coeffs = expand_in_basis(m)
        expected = loops.expand_triplets_per_call(m)
        assert np.concatenate(([coeffs.c0], coeffs.c)).tobytes() == expected.tobytes(), kind
        back = loops.reconstruct_triplets_per_call(n, expected[0], expected[1:])
        assert reconstruct(coeffs).tobytes() == back.tobytes(), kind


@pytest.mark.parametrize("n", range(1, 17))
def test_expansion_is_within_1e_14_of_the_stack_product(n):
    # The product of the conjugate stack with vec(m) that the triplet sums
    # replaced, and the product of the coefficients with the stack.
    for kind, m in expansion_inputs(n).items():
        bound = 1e-14 * max(1.0, np.max(np.abs(m)))
        coeffs = expand_in_basis(m)
        expected = loops.expand_per_call(m)
        assert np.max(np.abs(np.concatenate(([coeffs.c0], coeffs.c)) - expected)) <= bound, kind
        back = loops.reconstruct_per_call(n, expected[0], expected[1:])
        assert np.max(np.abs(reconstruct(coeffs) - back)) <= bound, kind


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
    # the per-call form conjugated the whole (256, 256) stack: 1 MB per call
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
    # peak at 2.25 of them (2 360 688 bytes measured with numpy 2.4); the
    # per-call form's conjugate stacks took that to 3.0 (3 151 056 bytes).
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
def test_sum_kron_squares_matches_realigned_product_and_kron_loop(n, densities, seed):
    # density 0 is an all-zero matrix and density 1 a fully dense one
    matrices = random_sparse_stack(seed, densities, n)
    k, i, j = np.nonzero(matrices)
    got = product._render(product._pair_products(Triplets(k, i, j, matrices[k, i, j]), n), n)
    assert got.shape == (n * n, n * n)
    assert np.max(np.abs(got - loops.sum_kron_squares_realigned(matrices, n))) <= 1e-12
    assert np.max(np.abs(got - loops.sum_kron_squares(matrices, n))) <= 1e-12
    assert np.max(np.abs(got - loops.sum_kron_squares_nonzero(matrices, n))) <= 1e-12


def test_closed_form_beyond_loop_reach():
    report = product.verify_closed_form(32)
    assert report.passed
    assert report.max_error <= 1e-12
