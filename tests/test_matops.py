import numpy as np
import pytest

import tcm
from loop_reference import diagonal_generator, elementary, realign, symmetric_generator, unrealign
from tcm.gellmann import basis
from tcm.matops import as_matrix, dimension, hs_inner, identity, max_abs_diff
from tcm.product import decompose_product


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def kron_oracle(a, b):
    """Brute-force double loop straight from the block definition."""
    ar, ac = a.shape
    br, bc = b.shape
    out = np.zeros((ar * br, ac * bc), dtype=np.complex128)
    for i1 in range(ar):
        for i2 in range(br):
            for j1 in range(ac):
                for j2 in range(bc):
                    out[i1 * br + i2, j1 * bc + j2] = a[i1, j1] * b[i2, j2]
    return out


class TestIdentity:
    def test_base_case(self):
        assert identity(1).tolist() == [[1]]

    def test_two(self):
        np.testing.assert_array_equal(identity(2), np.eye(2))

    def test_kron_of_identities(self):
        np.testing.assert_array_equal(np.kron(identity(2), identity(3)), identity(6))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            identity(0)


class TestDimension:
    @pytest.mark.parametrize("n", [3, np.int64(3), np.int32(3), np.uint8(3), np.intp(3)])
    def test_integers_pass_as_a_plain_int(self, n):
        assert type(dimension(n, 1)) is int
        assert dimension(n, 2) == 3

    @pytest.mark.parametrize(
        "n,least,words",
        [
            (True, 1, "integer"),
            (np.bool_(True), 1, "integer"),
            (2.5, 1, "integer"),
            (3.0, 1, "integer"),
            (np.float64(3.0), 1, "integer"),
            ("3", 1, "integer"),
            (np.array(3), 1, "integer"),
            (np.arange(3), 1, "integer"),
            (None, 1, "integer"),
            (0, 1, "positive"),
            (np.int64(-4), 1, "positive"),
            (1, 2, "at least 2"),
            (np.uint8(1), 2, "at least 2"),
        ],
    )
    def test_anything_else_raises_one_line(self, n, least, words):
        with pytest.raises(ValueError, match=words) as info:
            dimension(n, least)
        assert "\n" not in str(info.value)


# every public size argument, as a call that puts ``v`` in its place
SIZE_ARGUMENTS = {
    "basis": lambda v: tcm.basis(v),
    "extended_labels": lambda v: tcm.extended_labels(v),
    "swap_by_formula p": lambda v: tcm.swap_by_formula(v, 3),
    "swap_by_formula q": lambda v: tcm.swap_by_formula(3, v),
    "swap_by_rule p": lambda v: tcm.swap_by_rule(v, 3),
    "swap_by_rule q": lambda v: tcm.swap_by_rule(3, v),
    "SwapMatrix p": lambda v: tcm.SwapMatrix(v, 3, np.arange(9)),
    "SwapMatrix q": lambda v: tcm.SwapMatrix(3, v, np.arange(9)),
    "ProductCoefficients p": lambda v: tcm.ProductCoefficients(v, 2, np.zeros((9, 4))),
    "ProductCoefficients q": lambda v: tcm.ProductCoefficients(2, v, np.zeros((4, 9))),
    "decompose_product p": lambda v: tcm.decompose_product(np.eye(6), v, 2),
    "decompose_product q": lambda v: tcm.decompose_product(np.eye(6), 2, v),
    "expand_in_basis": lambda v: tcm.expand_in_basis(np.eye(3), n=v),
    "reconstruct": lambda v: tcm.reconstruct(tcm.BasisCoefficients(n=v, c0=1.0, c=np.zeros(8))),
    "closed_form_swap_coefficients": lambda v: tcm.closed_form_swap_coefficients(v),
    "identity": lambda v: tcm.identity(v),
    "verify_closed_form": lambda v: tcm.verify_closed_form(v),
    "identity_errors": lambda v: tcm.identity_errors(v),
    "offdiag_family_sum": lambda v: tcm.offdiag_family_sum(v),
    "offdiag_family_reference": lambda v: tcm.offdiag_family_reference(v),
    "diagonal_family_sum": lambda v: tcm.diagonal_family_sum(v),
    "diagonal_family_reference": lambda v: tcm.diagonal_family_reference(v),
}


@pytest.mark.parametrize("call", SIZE_ARGUMENTS.values(), ids=SIZE_ARGUMENTS.keys())
def test_a_size_that_is_no_integer_raises_one_line(call):
    for value in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError) as info:
            call(value)
        assert "\n" not in str(info.value), value
    call(np.int64(3))  # a numpy integer is an integer


class TestElementary:
    """The oracles' 1-based elementary matrices (``loop_reference.elementary``)."""

    def test_definition(self):
        np.testing.assert_array_equal(elementary(2, 1, 2), [[0, 1], [0, 0]])
        np.testing.assert_array_equal(elementary(3, 1, 1), np.diag([1.0, 0, 0]))

    def test_one_based_placement(self):
        m = elementary(6, 2, 3)
        assert m[1, 2] == 1
        assert np.count_nonzero(m) == 1


class TestKron:
    """The block layout of ``np.kron``, the package's composite-index convention."""

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 2), (1, 4), (4, 1), (2, 5)])
    def test_realignment_matches_oracle(self, p, q):
        # R(kron(A, B)) = outer(vec A, vec B) is what every projection relies on.
        # Integer entries make every product exact, so equality is bitwise.
        rng = np.random.default_rng(10 * p + q)
        a = rng.integers(-50, 51, (p, p)) + 1j * rng.integers(-50, 51, (p, p))
        b = rng.integers(-50, 51, (q, q)) + 1j * rng.integers(-50, 51, (q, q))
        k = kron_oracle(a, b)
        outer = np.outer(a.ravel(), b.ravel())
        np.testing.assert_array_equal(realign(k, p, q), outer)
        np.testing.assert_array_equal(unrealign(outer, p, q), k)

    def test_block_definition(self):
        x = np.array([[0, 1], [1, 0]])
        expected = [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ]
        np.testing.assert_array_equal(np.kron(x, identity(2)), expected)

    def test_elementary_factorization(self):
        got = np.kron(elementary(3, 1, 2), elementary(2, 2, 1))
        np.testing.assert_array_equal(got, elementary(6, 2, 3))

    def test_matches_brute_force_oracle(self):
        # scalar and vectorized complex multiplies may differ by 1 ulp
        rng = np.random.default_rng(101)
        for _ in range(10):
            a = random_complex(rng, 2, 3)
            b = random_complex(rng, 3, 2)
            assert max_abs_diff(np.kron(a, b), kron_oracle(a, b)) <= 1e-13

    def test_bilinearity(self):
        rng = np.random.default_rng(102)
        for _ in range(10):
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            a = random_complex(rng, 3, 2)
            a2 = random_complex(rng, 3, 2)
            b = random_complex(rng, 2, 4)
            lhs = np.kron(alpha * a + a2, b)
            rhs = alpha * np.kron(a, b) + np.kron(a2, b)
            assert max_abs_diff(lhs, rhs) <= 1e-10

    def test_mixed_product_property(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            m, n, k = rng.integers(1, 5, size=3)
            p, r, s = rng.integers(1, 5, size=3)
            a = random_complex(rng, m, n)
            c = random_complex(rng, n, k)
            b = random_complex(rng, p, r)
            d = random_complex(rng, r, s)
            lhs = np.kron(a, b) @ np.kron(c, d)
            rhs = np.kron(a @ c, b @ d)
            assert max_abs_diff(lhs, rhs) <= 1e-10

    def test_trace_factorizes(self):
        rng = np.random.default_rng(104)
        for _ in range(10):
            a = random_complex(rng, 3, 3)
            b = random_complex(rng, 4, 4)
            assert abs(np.trace(np.kron(a, b)) - np.trace(a) * np.trace(b)) <= 1e-10

    def test_dagger_distributes(self):
        rng = np.random.default_rng(105)
        a = random_complex(rng, 2, 3)
        b = random_complex(rng, 3, 2)
        assert max_abs_diff(np.kron(a, b).conj().T, np.kron(a.conj().T, b.conj().T)) == 0

    def test_rejects_non_finite(self):
        # every library entry point coerces its operands through as_matrix
        with pytest.raises(ValueError):
            as_matrix(np.kron([[np.inf, 0], [0, 1]], np.ones((2, 2))))


class TestMatmul:
    def test_identity_neutral(self):
        rng = np.random.default_rng(106)
        m = random_complex(rng, 3, 3)
        np.testing.assert_array_equal(identity(3) @ m, m)

    def test_pauli_x_squares_to_identity(self):
        sigma1 = basis(2).matrices[0]
        np.testing.assert_array_equal(sigma1 @ sigma1, identity(2))

    def test_elementary_product(self):
        got = elementary(2, 1, 2) @ elementary(2, 2, 1)
        np.testing.assert_array_equal(got, elementary(2, 1, 1))


class TestDagger:
    def test_pauli_y_is_hermitian(self):
        sigma2 = basis(2).matrices[1]
        np.testing.assert_array_equal(sigma2, [[0, -1j], [1j, 0]])
        np.testing.assert_array_equal(sigma2.conj().T, sigma2)

    def test_identity_fixed(self):
        np.testing.assert_array_equal(identity(4).conj().T, identity(4))


class TestTrace:
    def test_identity(self):
        assert np.trace(identity(5)) == 5

    def test_traceless_diagonal_generator(self):
        lam3 = diagonal_generator(3, 1)
        np.testing.assert_array_equal(lam3, np.diag([1.0, -1.0, 0.0]))
        assert np.trace(lam3) == 0

    def test_squared_generator_norm(self):
        lam1 = symmetric_generator(3, 1, 2)
        assert np.trace(lam1 @ lam1) == 2

    def test_non_square(self):
        # the (I, I) cell of a product decomposition is Tr(m) / pq
        with pytest.raises(ValueError):
            decompose_product(np.zeros((6, 4)), 3, 2)


class TestHsInner:
    def test_orthogonal_generators(self):
        lam1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
        lam2 = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
        assert hs_inner(lam1, lam2) == 0

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_identity_norm(self, n):
        assert hs_inner(identity(n), identity(n)) == n

    def test_traceless_orthogonal_to_identity(self):
        lam8 = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3)
        assert abs(hs_inner(identity(3), lam8)) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hs_inner(identity(2), identity(3))


class TestMaxAbsDiff:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(108)
        m = random_complex(rng, 4, 4)
        assert max_abs_diff(m, m) == 0

    def test_identity_vs_zeros(self):
        assert max_abs_diff(identity(2), np.zeros((2, 2))) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            max_abs_diff(identity(2), identity(3))
