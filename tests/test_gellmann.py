import numpy as np
import pytest

from loop_reference import elementary
from tcm.gellmann import (
    BasisCoefficients,
    GeneratorLabel,
    antisymmetric_generator,
    basis,
    diagonal_generator,
    expand_in_basis,
    extended_stack,
    reconstruct,
    symmetric_generator,
)
from tcm.matops import identity, max_abs_diff

RT3 = np.sqrt(3.0)

# Classical listings, frozen entrywise.
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


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng, n):
    m = random_complex(rng, n)
    return (m + m.conj().T) / 2


class TestGenerators:
    def test_symmetric_examples(self):
        np.testing.assert_array_equal(symmetric_generator(2, 1, 2), PAULI[0])
        np.testing.assert_array_equal(symmetric_generator(3, 1, 2), LAMBDA[0])
        np.testing.assert_array_equal(symmetric_generator(3, 2, 3), LAMBDA[5])

    def test_antisymmetric_examples(self):
        np.testing.assert_array_equal(antisymmetric_generator(2, 1, 2), PAULI[1])
        np.testing.assert_array_equal(antisymmetric_generator(3, 1, 2), LAMBDA[1])
        np.testing.assert_array_equal(antisymmetric_generator(3, 2, 3), LAMBDA[6])

    def test_diagonal_examples(self):
        np.testing.assert_array_equal(diagonal_generator(2, 1), PAULI[2])
        assert max_abs_diff(diagonal_generator(3, 2), LAMBDA[7]) <= 1e-15
        expected = np.diag([1.0, 1.0, 1.0, -3.0]) / np.sqrt(6.0)
        assert max_abs_diff(diagonal_generator(4, 3), expected) <= 1e-15

    @pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (0, 2), (1, 4)])
    def test_pair_index_validation(self, i, j):
        with pytest.raises(ValueError):
            symmetric_generator(3, i, j)
        with pytest.raises(ValueError):
            antisymmetric_generator(3, i, j)

    @pytest.mark.parametrize("d", [0, 3, -1])
    def test_diagonal_index_validation(self, d):
        with pytest.raises(ValueError):
            diagonal_generator(3, d)

    def test_elementary_combination(self):
        # E_ij = (S_ij + i A_ij) / 2 for i < j, the off-diagonal splitting
        # used implicitly by every expansion.
        for n, i, j in [(2, 1, 2), (3, 1, 3), (5, 2, 4)]:
            s = symmetric_generator(n, i, j)
            a = antisymmetric_generator(n, i, j)
            assert max_abs_diff((s + 1j * a) / 2, elementary(n, i, j)) == 0


class TestBasis:
    def test_pauli_order(self):
        b = basis(2)
        assert len(b) == 3
        for got, expected in zip(b.matrices, PAULI):
            np.testing.assert_array_equal(got, expected)

    def test_classical_order_n3(self):
        b = basis(3)
        assert len(b) == 8
        for got, expected in zip(b.matrices, LAMBDA):
            assert max_abs_diff(got, expected) <= 1e-15

    def test_labels_n3(self):
        assert [str(l) for l in basis(3).labels] == [
            "S(1,2)", "A(1,2)", "D(1)",
            "S(1,3)", "A(1,3)", "S(2,3)", "A(2,3)", "D(2)",
        ]

    def test_count(self):
        assert len(basis(5)) == 24

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            basis(1)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_well_formed(self, n):
        b = basis(n)
        stack = np.array(b.matrices).reshape(len(b), -1)
        for m in b.matrices:
            assert max_abs_diff(m, m.conj().T) <= 1e-12
            assert abs(np.trace(m)) <= 1e-12
        gram = stack.conj() @ stack.T
        assert np.max(np.abs(gram - 2 * np.eye(len(b)))) <= 1e-12

    def test_cached_matrices_are_read_only(self):
        m = basis(4).matrices[0]
        with pytest.raises(ValueError):
            m[0, 0] = 5


class TestStack:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_one_read_only_stack_with_identity_first(self, n):
        b = basis(n)
        assert not hasattr(b, "elements")
        assert b.stack.shape == (n * n, n, n)
        assert b.stack.dtype == np.complex128
        assert not b.stack.flags.writeable
        np.testing.assert_array_equal(b.stack[0], identity(n))
        assert np.shares_memory(b.matrices, b.stack)
        stack, norms = extended_stack(n)
        assert np.shares_memory(stack[0], b.stack)
        assert not stack[0].flags.writeable
        assert norms.tolist() == [n] + [2.0] * (n * n - 1)

    def test_pairs_view_the_stack(self):
        b = basis(3)
        pairs = list(b)
        assert len(pairs) == len(b) == 8
        label, matrix = b[-1]
        assert str(label) == "D(2)"
        assert np.shares_memory(matrix, b.stack)
        for k, (label, matrix) in enumerate(pairs, start=1):
            assert label == b.labels[k - 1]
            np.testing.assert_array_equal(matrix, b.stack[k])

    def test_antisymmetric_entries_keep_negative_zero_real_parts(self):
        # -1j is complex(-0.0, -1.0); the json output of `tcm basis` prints that sign
        a12 = basis(2).matrices[1]
        assert np.signbit(a12[0, 1].real) and not np.signbit(a12[1, 0].real)

    def test_one_dimensional_stack(self):
        stack, norms = extended_stack(1)
        assert stack.tolist() == [[1]]
        assert norms.tolist() == [1]

    @pytest.mark.parametrize(
        "call",
        [lambda: extended_stack(0), lambda: extended_stack(-2), lambda: expand_in_basis(np.zeros((0, 0)))],
        ids=["extended_stack(0)", "extended_stack(-2)", "expand_in_basis(0x0)"],
    )
    def test_dimension_below_one_raises_value_error(self, call):
        with pytest.raises(ValueError):
            call()


class TestExpand:
    def test_elementary_11_dim3(self):
        coeffs = expand_in_basis(elementary(3, 1, 1))
        assert abs(coeffs.c0 - 1 / 3) <= 1e-15
        expected = np.zeros(8, dtype=complex)
        expected[2] = 0.5          # D(1)
        expected[7] = RT3 / 6      # D(2)
        assert np.max(np.abs(coeffs.c - expected)) <= 1e-15

    def test_elementary_11_dim2(self):
        coeffs = expand_in_basis(elementary(2, 1, 1))
        assert abs(coeffs.c0 - 0.5) <= 1e-15
        assert np.max(np.abs(coeffs.c - np.array([0, 0, 0.5]))) <= 1e-15

    def test_elementary_12_dim3(self):
        coeffs = expand_in_basis(elementary(3, 1, 2))
        assert abs(coeffs.c0) <= 1e-15
        expected = np.zeros(8, dtype=complex)
        expected[0] = 0.5
        expected[1] = 0.5j
        assert np.max(np.abs(coeffs.c - expected)) <= 1e-15

    def test_explicit_n_mismatch(self):
        with pytest.raises(ValueError):
            expand_in_basis(identity(3), n=2)

    def test_non_square(self):
        with pytest.raises(ValueError):
            expand_in_basis(np.zeros((2, 3)))


class TestReconstruct:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_round_trip_hermitian(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(5):
            m = random_hermitian(rng, n)
            assert max_abs_diff(reconstruct(expand_in_basis(m)), m) <= 1e-10

    def test_round_trip_general(self):
        # The extended set {identity} + basis spans everything, hermitian
        # or not: 100 unconstrained complex matrices across n = 2..6.
        rng = np.random.default_rng(300)
        for trial in range(100):
            n = 2 + trial % 5
            m = random_complex(rng, n)
            assert max_abs_diff(reconstruct(expand_in_basis(m)), m) <= 1e-10

    def test_identity_coefficients(self):
        coeffs = BasisCoefficients(n=4, c0=1.0, c=np.zeros(15, dtype=complex))
        np.testing.assert_array_equal(reconstruct(coeffs), identity(4))

    def test_frozen_elementary_coefficients(self):
        c = np.zeros(8, dtype=complex)
        c[2] = 0.5
        c[7] = RT3 / 6
        got = reconstruct(BasisCoefficients(n=3, c0=1 / 3, c=c))
        assert max_abs_diff(got, elementary(3, 1, 1)) <= 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            reconstruct(BasisCoefficients(n=3, c0=0.0, c=np.zeros(5)))


class TestGeneratorLabel:
    def test_str_forms(self):
        assert str(GeneratorLabel("symmetric", i=1, j=2)) == "S(1,2)"
        assert str(GeneratorLabel("antisymmetric", i=2, j=5)) == "A(2,5)"
        assert str(GeneratorLabel("diagonal", d=3)) == "D(3)"

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorLabel("symmetric", i=2, j=2)
        with pytest.raises(ValueError):
            GeneratorLabel("diagonal", d=0)
        with pytest.raises(ValueError):
            GeneratorLabel("spiral", i=1, j=2)
