import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as loops
from loop_reference import (
    antisymmetric_generator,
    diagonal_generator,
    elementary,
    label_fields,
    symmetric_generator,
)
from tcm.gellmann import (
    ANTISYMMETRIC,
    DIAGONAL,
    SYMMETRIC,
    BasisCoefficients,
    _basis,
    _complex_operands,
    _real_operands,
    basis,
    expand_in_basis,
    reconstruct,
)
from tcm.matops import identity, max_abs_diff
from tcm.product import decompose_product

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
        b = basis(3)
        assert b.labels == (
            "S(1,2)", "A(1,2)", "D(1)",
            "S(1,3)", "A(1,3)", "S(2,3)", "A(2,3)", "D(2)",
        )
        kind, i, j, d = b.table
        assert kind.tolist() == [SYMMETRIC, ANTISYMMETRIC, DIAGONAL] + [SYMMETRIC, ANTISYMMETRIC] * 2 + [DIAGONAL]
        assert i.tolist() == [1, 1, 0, 1, 1, 2, 2, 0]
        assert j.tolist() == [2, 2, 0, 3, 3, 3, 3, 0]
        assert d.tolist() == [0, 0, 1, 0, 0, 0, 0, 2]

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

    def test_bases_hash_and_compare_by_identity_across_a_cache_clear(self):
        # a generated __eq__/__hash__ would compare the ndarray field and raise
        before = basis(2)
        assert before == basis(2)
        assert hash(before) == hash(basis(2))
        basis.cache_clear()
        after = basis(2)
        assert after is not before
        assert after != before
        assert len({before, after}) == 2

    @pytest.mark.parametrize(
        "call,cache",
        # 9 (x) 9 takes the real products, 3 (x) 3 the complex ones
        [(basis, _basis), (lambda n: decompose_product(np.eye(n ** 4), n * n, n * n), _real_operands),
         (lambda n: decompose_product(np.eye(9), n, n), _complex_operands)],
        ids=["basis", "real_operands", "complex_operands"],
    )
    def test_a_numpy_integer_shares_the_cache_entry_of_its_int(self, call, cache):
        # one entry per size: a second would hold a second copy of the arrays
        for _ in range(2):
            cache.cache_clear()
            for n in (np.int64(3), 3, np.int32(3)):
                call(n)
            assert cache.cache_info().currsize == 1
        assert type(basis(np.int64(3)).n) is int


def generator(n, label):
    kind, i, j, d = label_fields(label)
    if kind == DIAGONAL:
        return diagonal_generator(n, d)
    make = antisymmetric_generator if kind == ANTISYMMETRIC else symmetric_generator
    return make(n, i, j)


def assert_triplets_are_the_generators(n):
    b = basis(n)
    k, i, j, value = b.triplets
    assert all(not a.flags.writeable for a in b.triplets)
    # canonical order: by generator, row-major within each one
    assert np.all(np.diff((k * n + i) * n + j) > 0)
    starts = np.searchsorted(k, np.arange(len(b) + 1))
    for g, label in enumerate(b.labels):
        expected = generator(n, label)
        at = slice(starts[g], starts[g + 1])
        rows, cols = np.nonzero(expected)
        assert i[at].tolist() == rows.tolist() and j[at].tolist() == cols.tolist(), label
        # tobytes compares bit patterns, so the -0.0 real part of -1j counts
        assert value[at].tobytes() == expected[rows, cols].tobytes(), label


def assert_table_and_labels_are_the_loop(n):
    b = basis(n)
    labels = loops.basis_labels(n)
    assert b.labels == labels
    assert all(type(label) is str for label in b.labels)
    assert all(a.shape == (len(b),) and not a.flags.writeable for a in b.table)
    assert list(zip(*(a.tolist() for a in b.table))) == [label_fields(label) for label in labels]


class TestTriplets:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_equal_the_generator_functions_bitwise(self, n):
        assert_triplets_are_the_generators(n)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 40))
    def test_equal_the_generator_functions_bitwise_at_random_n(self, n):
        assert_triplets_are_the_generators(n)

    def test_builds_no_label_until_labels_is_read(self):
        basis.cache_clear()
        b = basis(5)
        assert len(b) == 24
        assert {"table", "labels"}.isdisjoint(vars(b))
        assert len(b.labels) == 24
        assert b.labels is b.labels
        assert b.table is b.table

    @pytest.mark.parametrize("n", range(2, 13))
    def test_lazy_labels_equal_the_eager_loop(self, n):
        assert_table_and_labels_are_the_loop(n)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 40))
    def test_lazy_labels_equal_the_eager_loop_at_random_n(self, n):
        assert_table_and_labels_are_the_loop(n)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_lazy_stack_equals_the_eager_loop_bitwise(self, n):
        basis.cache_clear()
        b = basis(n)
        assert "stack" not in vars(b)
        assert b.stack.tobytes() == loops.basis_stack(n).tobytes()
        assert b.stack is b.stack


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

    def test_pairs_view_the_stack(self):
        b = basis(3)
        pairs = list(zip(b.labels, b.matrices))
        assert len(pairs) == len(b) == 8
        label, matrix = pairs[-1]
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
        # {I_1} alone: no generator nonzeros, so every matrix is c0 * I_1
        assert all(a.size == 0 for a in _basis(1).triplets)
        coeffs = expand_in_basis([[2 - 3j]])
        assert coeffs.c0 == 2 - 3j
        assert coeffs.c.shape == (0,)
        assert reconstruct(coeffs).tolist() == [[2 - 3j]]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: expand_in_basis(np.zeros((0, 0))),
            lambda: reconstruct(BasisCoefficients(n=-2, c0=0.0, c=np.zeros(3))),
            lambda: decompose_product(np.zeros((0, 0)), 0, 3),
        ],
        ids=[
            "expand_in_basis(0x0)",
            "reconstruct(n=-2)",
            "decompose_product(0x0, 0, 3)",
        ],
    )
    def test_dimension_below_one_raises_value_error(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_cached_operands_refuse_writes(self, n):
        # one caller's write to the cached triplets would corrupt every
        # later projection of size n
        for name, a in _basis(n).triplets._asdict().items():
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a[...] = 0
            with pytest.raises(ValueError):
                np.multiply(a, 2, out=a)
        m = np.arange(n * n, dtype=np.complex128).reshape(n, n)
        assert max_abs_diff(reconstruct(expand_in_basis(m)), m) <= 1e-12


def assert_real_operands_are_the_split_generators(n):
    real, phase, weights = _real_operands(n)
    expected_real, expected_phase, norms = loops.real_stack(n)
    assert real.dtype == np.float64 and real.shape == (n * n, n * n)
    assert real.tobytes() == expected_real.tobytes()
    assert phase.tobytes() == expected_phase.tobytes()
    assert weights.tobytes() == (expected_phase.conj() / norms).tobytes()


class TestRealOperands:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_equal_the_split_of_the_generator_functions_bitwise(self, n):
        assert_real_operands_are_the_split_generators(n)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 40))
    def test_equal_the_split_of_the_generator_functions_bitwise_at_random_n(self, n):
        # every generator real or purely imaginary, at the sizes the triplets are checked at
        assert_real_operands_are_the_split_generators(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_phases_times_real_rows_are_the_stack(self, n):
        real, phase, _ = _real_operands(n)
        product = phase[:, None] * real
        assert product.tobytes() == basis(n).stack.reshape(n * n, n * n).tobytes()

    def test_antisymmetric_rows_are_imaginary_with_minus_one_above_the_diagonal(self):
        # A(1,2) is row 2 of {I} + basis(2): -1j at (1,2), +1j at (2,1)
        real, phase, weights = _real_operands(2)
        assert phase.tolist() == [1, 1, 1j, 1]
        assert real[2].tolist() == [0.0, -1.0, 1.0, 0.0]
        assert weights.tolist() == [0.5, 0.5, -0.5j, 0.5]

    def test_one_dimensional_operands(self):
        real, phase, weights = _real_operands(1)
        assert real.tolist() == [[1.0]]
        assert phase.tolist() == weights.tolist() == [1]

    def test_built_from_the_triplets_without_the_stack(self):
        basis.cache_clear()
        _real_operands.cache_clear()
        _real_operands(6)
        assert "stack" not in vars(basis(6))
        assert _real_operands(6) is _real_operands(6)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_refuse_writes(self, n):
        for name, a in _real_operands(n)._asdict().items():
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a[0] = 7.0



class TestComplexOperands:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 16])
    def test_are_the_weighted_and_phased_real_rows_exactly(self, n):
        real, phase, weights = _real_operands(n)
        weighted, stack = _complex_operands(n)
        assert weighted.dtype == stack.dtype == np.complex128
        assert weighted.tobytes() == (weights[:, None] * real).tobytes()
        assert stack.tobytes() == (phase[:, None] * real).tobytes()

    def test_are_cached_per_n(self):
        _complex_operands.cache_clear()
        assert _complex_operands(4) is _complex_operands(4)
        assert _complex_operands(4) is not _complex_operands(3)
        assert _complex_operands.cache_info().currsize == 2

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_refuse_writes(self, n):
        for name, a in _complex_operands(n)._asdict().items():
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a[0, 0] = 7.0


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

    def test_non_square(self):
        with pytest.raises(ValueError):
            expand_in_basis(np.zeros((2, 3)))

    def test_coefficients_hash_and_compare_by_identity(self):
        # a generated __eq__/__hash__ would compare the ndarray field and raise
        m = np.arange(9.0).reshape(3, 3)
        first, second = expand_in_basis(m), expand_in_basis(m)
        assert first == first and first != second
        assert hash(first) == hash(first)
        assert len({first, second, first}) == 2


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

    @pytest.mark.parametrize("n", [32, 64])
    def test_round_trip_at_desk_scale_and_beyond(self, n):
        rng = np.random.default_rng(400 + n)
        m = random_complex(rng, n)
        coeffs = expand_in_basis(m)
        assert max_abs_diff(reconstruct(coeffs), m) <= 1e-10
        again = expand_in_basis(reconstruct(coeffs))
        assert abs(again.c0 - coeffs.c0) <= 1e-10
        assert np.max(np.abs(again.c - coeffs.c)) <= 1e-10

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
