import tracemalloc

import numpy as np
import pytest

from loop_reference import basis_stack, elementary, six_term_expression, six_term_pairs
from tcm.gellmann import GellMannBasis, Triplets, basis
from tcm.matops import identity, max_abs_diff
from tcm.product import (
    ProductCoefficients,
    closed_form_swap_coefficients,
    decompose_product,
    diagonal_family_reference,
    diagonal_family_sum,
    extended_labels,
    offdiag_family_reference,
    offdiag_family_sum,
    reconstruct_product,
    verify_closed_form,
)
from tcm import cli, product, swap
from tcm.swap import SwapMatrix, swap_by_formula

RT3 = np.sqrt(3.0)

# Broken generator entries; k = 1 is A(1,2) and k = 2 is D(1) at every n.
BASIS_MUTATIONS = {
    "nan": lambda t: t._replace(value=np.where(np.arange(t.k.size) == 0, np.nan, t.value)),
    "dropped A(1,2)": lambda t: Triplets(*(a[t.k != 1] for a in t)),
    "D(1) scale off by 1%": lambda t: t._replace(value=np.where(t.k == 2, 1.01 * t.value, t.value)),
}


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng, n):
    m = random_complex(rng, n)
    return (m + m.conj().T) / 2


def offdiag_delta_oracle(n):
    """Literal delta-sum evaluation of the pair-family total.

    Entry at composite row (l1, l2), column (k1, k2) equals
    2 * sum over i != j of [i == l1][j == k1][j == l2][i == k2].
    """
    out = np.zeros((n * n, n * n), dtype=np.complex128)
    for l1 in range(1, n + 1):
        for l2 in range(1, n + 1):
            for k1 in range(1, n + 1):
                for k2 in range(1, n + 1):
                    total = 0
                    for i in range(1, n + 1):
                        for j in range(1, n + 1):
                            if i != j and i == l1 and j == k1 and j == l2 and i == k2:
                                total += 1
                    out[(l1 - 1) * n + (l2 - 1), (k1 - 1) * n + (k2 - 1)] = 2 * total
    return out


def diagonal_delta_oracle(n):
    """Literal delta-sum evaluation of the diagonal-family total.

    Entry at composite row (l1, l2), column (k1, k2) equals
    -(2/n) [l1 == k1][l2 == k2] + 2 * sum over i of
    [i == l1][i == k1][i == l2][i == k2].
    """
    out = np.zeros((n * n, n * n), dtype=np.complex128)
    for l1 in range(1, n + 1):
        for l2 in range(1, n + 1):
            for k1 in range(1, n + 1):
                for k2 in range(1, n + 1):
                    value = 0.0
                    if l1 == k1 and l2 == k2:
                        value -= 2.0 / n
                    for i in range(1, n + 1):
                        if i == l1 and i == k1 and i == l2 and i == k2:
                            value += 2.0
                    out[(l1 - 1) * n + (l2 - 1), (k1 - 1) * n + (k2 - 1)] = value
    return out


def six_term_grid_32():
    """Distributive expansion of the six-term 3 (x) 2 expression.

    Each term contributes the outer product of its factor coefficient
    vectors; axis index 0 is the identity, 1..n^2-1 canonical order.
    """
    terms = [
        ({0: 1 / 3, 3: 1 / 2, 8: RT3 / 6}, {0: 1 / 2, 3: 1 / 2}),
        ({1: 1 / 2, 2: 1j / 2}, {1: 1 / 2, 2: -1j / 2}),
        ({6: 1 / 2, 7: 1j / 2}, {0: 1 / 2, 3: 1 / 2}),
        ({1: 1 / 2, 2: -1j / 2}, {0: 1 / 2, 3: -1 / 2}),
        ({6: 1 / 2, 7: -1j / 2}, {1: 1 / 2, 2: 1j / 2}),
        ({0: 1 / 3, 8: -RT3 / 3}, {0: 1 / 2, 3: -1 / 2}),
    ]
    grid = np.zeros((9, 4), dtype=np.complex128)
    for left, right in terms:
        lvec = np.zeros(9, dtype=np.complex128)
        rvec = np.zeros(4, dtype=np.complex128)
        for idx, z in left.items():
            lvec[idx] = z
        for idx, z in right.items():
            rvec[idx] = z
        grid += np.outer(lvec, rvec)
    return grid


class TestDecompose:
    def test_swap_2x2_coefficients(self):
        grid = decompose_product(swap_by_formula(2, 2).dense(), 2, 2).grid
        expected = np.diag([0.5, 0.5, 0.5, 0.5]).astype(complex)
        assert np.max(np.abs(grid - expected)) <= 1e-12

    def test_swap_3x3_coefficients(self):
        grid = decompose_product(swap_by_formula(3, 3).dense(), 3, 3).grid
        expected = np.diag([1 / 3] + [0.5] * 8).astype(complex)
        assert np.max(np.abs(grid - expected)) <= 1e-12

    def test_swap_3x2_identity_cell_from_trace(self):
        # independent route to the (I, I) cell: trace over squared norm
        u = swap_by_formula(3, 2).dense()
        grid = decompose_product(u, 3, 2).grid
        assert abs(grid[0, 0] - np.trace(u) / 6) <= 1e-15
        assert abs(grid[0, 0] - 1 / 3) <= 1e-12

    def test_swap_3x2_grid_matches_six_term_expansion(self):
        grid = decompose_product(swap_by_formula(3, 2).dense(), 3, 2).grid
        assert np.max(np.abs(grid - six_term_grid_32())) <= 1e-12

    def test_hermitian_source_gives_real_coefficients(self):
        rng = np.random.default_rng(500)
        m = random_hermitian(rng, 6)
        grid = decompose_product(m, 3, 2).grid
        assert np.max(np.abs(grid.imag)) <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            decompose_product(identity(5), 2, 3)

    def test_grid_shape_validation(self):
        with pytest.raises(ValueError):
            ProductCoefficients(p=2, q=2, grid=np.zeros((3, 4)))

    def test_coefficients_hash_and_compare_by_identity(self):
        # a generated __eq__/__hash__ would compare the ndarray field and raise
        first, second = decompose_product(identity(4), 2, 2), decompose_product(identity(4), 2, 2)
        assert first == first and first != second
        assert hash(first) == hash(first)
        assert len({first, second, first}) == 2

    def test_grid_is_an_owned_copy(self):
        # writing through a view of the caller's array must not reach the grid
        a = np.zeros((4, 4), dtype=complex)
        v = a[:]
        coeffs = ProductCoefficients(2, 2, a)
        v[:] = 1
        assert not np.shares_memory(a, coeffs.grid)
        assert not coeffs.grid.any()

    def test_callers_array_stays_writable(self):
        a = np.zeros((4, 4), dtype=complex)
        ProductCoefficients(2, 2, a)
        assert a.flags.writeable
        a[0, 0] = 1
        assert a[0, 0] == 1

    @pytest.mark.parametrize(
        "grid",
        [np.zeros((8, 4), dtype=complex)[:4], np.zeros((4, 4)), np.zeros((4, 9), dtype=complex)],
        ids=["view", "float64", "wrong-shape"],
    )
    def test_adopt_refuses_all_but_an_owned_complex_grid_of_its_shape(self, grid):
        with pytest.raises(ValueError, match="only an owned complex128 grid"):
            ProductCoefficients._adopt(2, 2, grid)
        assert grid.flags.writeable

    @pytest.mark.parametrize(
        "build",
        # the complex products, the closed form and the real products
        [lambda: decompose_product(identity(6), 2, 3), lambda: closed_form_swap_coefficients(3),
         lambda: decompose_product(identity(18), 3, 6)],
    )
    def test_built_grid_is_read_only_and_owns_its_data(self, build):
        grid = build().grid
        assert grid.dtype == np.complex128
        assert not grid.flags.writeable
        assert grid.base is None


class TestReconstruct:
    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)])
    def test_round_trip_matrices(self, p, q):
        rng = np.random.default_rng(510 + 10 * p + q)
        for _ in range(5):
            m = random_complex(rng, p * q)
            back = reconstruct_product(decompose_product(m, p, q))
            assert max_abs_diff(back, m) <= 1e-10

    def test_round_trip_grids(self):
        rng = np.random.default_rng(511)
        grid = random_complex(rng, 16)
        coeffs = ProductCoefficients(p=4, q=4, grid=grid)
        again = decompose_product(reconstruct_product(coeffs), 4, 4)
        assert np.max(np.abs(again.grid - grid)) <= 1e-10

    def test_identity_cell_only(self):
        grid = np.zeros((9, 4), dtype=complex)
        grid[0, 0] = 1.0
        out = reconstruct_product(ProductCoefficients(p=3, q=2, grid=grid))
        np.testing.assert_array_equal(out, identity(6))

    def test_degenerate_factor(self):
        rng = np.random.default_rng(512)
        m = random_complex(rng, 3)
        back = reconstruct_product(decompose_product(m, 1, 3))
        assert max_abs_diff(back, m) <= 1e-12

    @pytest.mark.parametrize(
        "p,q,shape", [(-1, -1, (1, 1)), (0, 2, (0, 4)), (2, 0, (4, 0)), (0, 0, (0, 0)), (-2, 3, (4, 9))]
    )
    def test_dimensions_below_one_rejected(self, p, q, shape):
        # (-1)^2 = 1, so a shape check alone would accept the first case
        with pytest.raises(ValueError):
            ProductCoefficients(p=p, q=q, grid=np.zeros(shape))

    @pytest.mark.parametrize("p,q,size", [(0, 0, 0), (0, 3, 0), (-1, -2, 2)])
    def test_decompose_rejects_dimensions_below_one(self, p, q, size):
        with pytest.raises(ValueError):
            decompose_product(np.zeros((size, size)), p, q)


class TestClosedForm:
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_matches_projection(self, n):
        grid = decompose_product(swap_by_formula(n, n).dense(), n, n).grid
        expected = closed_form_swap_coefficients(n).grid
        assert np.max(np.abs(grid - expected)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 5, 12, np.int64(4)])
    def test_verify_report(self, n):
        report = verify_closed_form(n)
        assert type(report.n) is int and report.n == n
        assert report.passed
        assert report.max_error <= 1e-12

    def test_verify_fails_when_two_swap_columns_trade_ones(self, monkeypatch, capsys):
        def two_columns_swapped(p, q):
            perm = swap_by_formula(p, q).perm.copy()
            perm[[0, 1]] = perm[[1, 0]]
            return SwapMatrix(p=p, q=q, perm=perm)

        monkeypatch.setattr(swap, "swap_by_formula", two_columns_swapped)
        report = verify_closed_form(3)
        assert not report.passed
        assert report.max_error >= 1
        assert cli.main(["verify", "--n-max", "3"]) == 1

    def test_verify_fails_on_a_nan(self, monkeypatch):
        real = product._pair_products

        def with_nan(triplets, n):
            keys, products = real(triplets, n)
            products[1] = np.nan
            return keys, products

        monkeypatch.setattr(product, "_pair_products", with_nan)
        report = verify_closed_form(3)
        assert not report.passed

    @pytest.mark.parametrize("mutation", sorted(BASIS_MUTATIONS))
    def test_verify_fails_on_a_broken_generator(self, mutation, monkeypatch, capsys):
        real = product.basis

        def broken(n):
            b = real(n)
            return GellMannBasis(n=n, triplets=BASIS_MUTATIONS[mutation](b.triplets))

        monkeypatch.setattr(product, "basis", broken)
        assert not verify_closed_form(3).passed
        assert cli.main(["verify", "--n-max", "3"]) == 1

    def test_verify_builds_nothing_of_n4_entries(self):
        n = 40
        basis(n)
        one_n4_array = n ** 4 * np.dtype(np.complex128).itemsize
        for check in (verify_closed_form, product.identity_errors):
            tracemalloc.start()
            try:
                check(n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < one_n4_array / 4, check.__name__

    def test_reconstruct_equals_swap(self):
        for n in range(2, 13):
            out = reconstruct_product(closed_form_swap_coefficients(n))
            assert max_abs_diff(out, swap_by_formula(n, n).dense()) <= 1e-10

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            closed_form_swap_coefficients(1)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_coefficient_grid_bitwise(self, n):
        expected = np.zeros((n * n, n * n), dtype=np.complex128)
        expected[0, 0] = 1.0 / n
        for k in range(1, n * n):
            expected[k, k] = 0.5
        assert closed_form_swap_coefficients(n).grid.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", range(2, 13))
def test_reference_cells_have_complex_values_and_unique_keys(n):
    # complex values keep np.add.at on its fast path, and unique keys make
    # rendering a reference a placement
    for cells in (product._offdiag_reference_cells, product._diagonal_reference_cells, product._closed_form_cells):
        keys, values = cells(n)
        assert keys.dtype.kind == "i" and values.dtype == np.complex128, cells.__name__
        assert keys.shape == values.shape and 0 <= keys.min() and keys.max() < n ** 4, cells.__name__
    for cells in (product._offdiag_reference_cells, product._diagonal_reference_cells):
        keys, _ = cells(n)
        assert np.unique(keys).size == keys.size, cells.__name__
    # the closed form repeats only the keys of the swap's ones on the
    # diagonal, (i, i) (x) (i, i), which also carry -2/n
    keys, _ = product._closed_form_cells(n)
    values, counts = np.unique(keys, return_counts=True)
    diagonal_ones = np.arange(n) * (n + 1) * (n * n + 1)
    assert values[counts > 1].tolist() == diagonal_ones.tolist()
    assert counts.max() == 2
    rhs = 2 * swap_by_formula(n, n).dense() - (2 / n) * identity(n * n)
    assert max_abs_diff(product._render(product._closed_form_cells(n), n), rhs) <= 1e-15


class TestFamilySums:
    def test_offdiag_n2_frozen(self):
        expected = 2 * (
            np.kron(elementary(2, 1, 2), elementary(2, 2, 1))
            + np.kron(elementary(2, 2, 1), elementary(2, 1, 2))
        )
        assert max_abs_diff(offdiag_family_sum(2), expected) == 0

    def test_diagonal_n2_frozen(self):
        # single diagonal generator at n=2: kron(diag(1,-1), diag(1,-1))
        expected = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
        assert max_abs_diff(diagonal_family_sum(2), expected) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_offdiag_matches_delta_oracle(self, n):
        assert max_abs_diff(offdiag_family_sum(n), offdiag_delta_oracle(n)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_diagonal_matches_delta_oracle(self, n):
        assert max_abs_diff(diagonal_family_sum(n), diagonal_delta_oracle(n)) <= 1e-12

    def test_diagonal_case_values_n3(self):
        # diagonal entries: 2 - 2/n when the two factor indices agree,
        # -2/n when they differ
        total = diagonal_family_sum(3)
        for k1 in range(3):
            for k2 in range(3):
                idx = k1 * 3 + k2
                expected = 2 - 2 / 3 if k1 == k2 else -2 / 3
                assert abs(total[idx, idx] - expected) <= 1e-12

    def test_diagonal_condensed_n6(self):
        assert max_abs_diff(diagonal_family_sum(6), diagonal_family_reference(6)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_references_match_sums(self, n):
        assert max_abs_diff(offdiag_family_sum(n), offdiag_family_reference(n)) <= 1e-12
        assert max_abs_diff(diagonal_family_sum(n), diagonal_family_reference(n)) <= 1e-12

    def test_summands_hermitian(self):
        total = offdiag_family_sum(3) + diagonal_family_sum(3)
        assert max_abs_diff(total, total.conj().T) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_assembly_identity(self, n):
        lhs = offdiag_family_sum(n) + diagonal_family_sum(n)
        rhs = 2 * swap_by_formula(n, n).dense() - (2 / n) * identity(n * n)
        assert max_abs_diff(lhs, rhs) <= 1e-10


class TestSixTermExpressions:
    # the hand expansion of the paper, evaluated by the test oracle over the
    # single-generator stacks, against the library's swaps

    def test_32_equals_swap(self):
        assert max_abs_diff(six_term_expression(three_first=True), swap_by_formula(3, 2).dense()) <= 1e-12

    def test_23_equals_swap(self):
        assert max_abs_diff(six_term_expression(three_first=False), swap_by_formula(2, 3).dense()) <= 1e-12

    def test_transpose_relation(self):
        assert max_abs_diff(six_term_expression(True).T, six_term_expression(False)) <= 1e-12

    @pytest.mark.parametrize("dropped", range(6), ids=[f"term {t}" for t in range(1, 7)])
    def test_oracle_fails_without_any_one_term(self, dropped):
        pairs = six_term_pairs()
        del pairs[dropped]
        for three_first, (p, q) in ((True, (3, 2)), (False, (2, 3))):
            assert max_abs_diff(six_term_expression(three_first, pairs), swap_by_formula(p, q).dense()) > 1e-12

    def test_oracle_fails_with_term_2_conjugated(self):
        # term 2 is (lambda_1/2 + 0.5j lambda_2) (x) (sigma_1/2 - 0.5j sigma_2), E_12 (x) E_21
        _, l1, l2, *_ = basis_stack(3)
        pairs = six_term_pairs()
        pairs[1] = (l1 / 2 - 0.5j * l2, pairs[1][1])
        for three_first, (p, q) in ((True, (3, 2)), (False, (2, 3))):
            assert max_abs_diff(six_term_expression(three_first, pairs), swap_by_formula(p, q).dense()) > 1e-12


class TestLabels:
    def test_extended_labels(self):
        assert extended_labels(2) == ["I", "S(1,2)", "A(1,2)", "D(1)"]
        assert extended_labels(1) == ["I"]
