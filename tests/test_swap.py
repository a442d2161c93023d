import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loop_reference
from tcm.matops import identity, max_abs_diff
from tcm.swap import SwapMatrix, _is_permutation, swap_by_formula, swap_by_rule

# Frozen 2 (x) 2 swap matrix.
U22 = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

# 1-based (row, col) of the ones of the 3 (x) 2 swap, sorted by row.
POSITIONS_32 = [(1, 1), (2, 3), (3, 5), (4, 2), (5, 4), (6, 6)]


def random_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def kron_vec(x, y):
    """Tensor product of vectors via scalar products.

    Scalar complex multiplication commutes bitwise, so building both
    a (x) b and b (x) a this way makes the swapped pair exactly equal
    entry by entry; the vectorized np.kron may drift by 1 ulp between
    the two orders.
    """
    return np.array([xi * yj for xi in x for yj in y])


class TestFormula:
    def test_2x2_dense(self):
        np.testing.assert_array_equal(swap_by_formula(2, 2).dense(), U22)

    def test_3x2_positions(self):
        assert np.array_equal(swap_by_formula(3, 2).one_positions(), POSITIONS_32)

    @pytest.mark.parametrize("p,q", [(1, 4), (4, 1), (1, 1)])
    def test_degenerate_factor_is_identity(self, p, q):
        np.testing.assert_array_equal(swap_by_formula(p, q).dense(), identity(p * q))

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            swap_by_formula(0, 3)
        with pytest.raises(ValueError):
            swap_by_rule(3, 0)


class TestRule:
    def test_matches_formula_2x2(self):
        np.testing.assert_array_equal(swap_by_rule(2, 2).dense(), U22)

    def test_3x2_positions(self):
        assert np.array_equal(swap_by_rule(3, 2).one_positions(), POSITIONS_32)

    def test_agrees_with_formula_exhaustively(self):
        for p in range(2, 9):
            for q in range(2, 9):
                rule = swap_by_rule(p, q)
                formula = swap_by_formula(p, q)
                assert np.array_equal(rule.perm, formula.perm), (p, q)

    @pytest.mark.parametrize("p,q", [(1, 5), (5, 1), (1, 1)])
    def test_degenerate_factor_is_identity(self, p, q):
        np.testing.assert_array_equal(swap_by_rule(p, q).dense(), identity(p * q))

    @settings(max_examples=120, deadline=None)
    @given(p=st.integers(1, 40), q=st.integers(1, 40))
    @example(p=400000, q=1)
    @example(p=1, q=400000)
    @example(p=20000, q=20)
    @example(p=20, q=20000)
    @example(p=7919, q=13)
    def test_group_walk_matches_column_walk_and_formula(self, p, q):
        rule = swap_by_rule(p, q).perm
        assert np.array_equal(rule, loop_reference.swap_by_rule_walk(p, q).perm)
        assert np.array_equal(rule, swap_by_formula(p, q).perm)


class TestOnePositions:
    @settings(max_examples=80, deadline=None)
    @given(p=st.integers(1, 40), q=st.integers(1, 40))
    def test_matches_sorted_tuples(self, p, q):
        u = swap_by_formula(p, q)
        got = u.one_positions()
        expected = loop_reference.one_positions(u)
        assert len(got) == len(expected)
        for row, pair in zip(got.tolist(), expected):
            assert tuple(row) == pair

    def test_int64_array_of_pairs(self):
        positions = swap_by_formula(3, 2).one_positions()
        assert isinstance(positions, np.ndarray)
        assert positions.dtype == np.int64
        assert positions.shape == (6, 2)
        assert np.array_equal(positions, POSITIONS_32)

    def test_fresh_array_each_call(self):
        u = swap_by_formula(3, 2)
        first = u.one_positions()
        first[:] = 0
        assert np.array_equal(u.one_positions(), POSITIONS_32)

    def test_column_major_with_contiguous_columns(self):
        positions = swap_by_rule(3, 2).one_positions()
        assert positions.flags.f_contiguous and positions.flags.writeable
        assert positions[:, 1].flags.c_contiguous


class TestApply:
    @pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (2, 3), (4, 5)])
    def test_defining_property(self, p, q):
        rng = np.random.default_rng(400 + 10 * p + q)
        u = swap_by_formula(p, q)
        for _ in range(100):
            a = random_vector(rng, p)
            b = random_vector(rng, q)
            got = u.apply(kron_vec(a, b))
            np.testing.assert_array_equal(got, kron_vec(b, a))

    def test_moves_entries_without_arithmetic(self):
        # out[j2*p + j1] must hold the very bits of v[j1*q + j2]
        rng = np.random.default_rng(403)
        p, q = 4, 3
        v = random_vector(rng, p * q)
        out = swap_by_formula(p, q).apply(v)
        for j1 in range(p):
            for j2 in range(q):
                assert out[j2 * p + j1] == v[j1 * q + j2]

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(401)
        v = random_vector(rng, 12)
        forward = swap_by_formula(3, 4)
        back = swap_by_formula(4, 3)
        np.testing.assert_array_equal(back.apply(forward.apply(v)), v)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            swap_by_formula(2, 3).apply(np.zeros(5))


class TestDense:
    def test_permutation_shape(self):
        m = swap_by_formula(3, 4).dense()
        assert np.array_equal(m.sum(axis=0), np.ones(12))
        assert np.array_equal(m.sum(axis=1), np.ones(12))
        assert set(np.unique(m.real)) == {0.0, 1.0}

    def test_inverse_product(self):
        prod = swap_by_formula(2, 3).dense() @ swap_by_formula(3, 2).dense()
        np.testing.assert_array_equal(prod, identity(6))

    def test_transpose_relation(self):
        for p, q in [(2, 3), (3, 5), (4, 4)]:
            u = swap_by_formula(p, q).dense()
            v = swap_by_formula(q, p).dense()
            np.testing.assert_array_equal(u.T, v)

    @settings(max_examples=80, deadline=None)
    @given(p=st.integers(1, 12), q=st.integers(1, 12))
    def test_transpose_is_reverse_swap(self, p, q):
        for build in (swap_by_formula, swap_by_rule):
            np.testing.assert_array_equal(build(p, q).dense().T, build(q, p).dense())

    def test_unitary(self):
        u = swap_by_formula(3, 4).dense()
        np.testing.assert_array_equal(u @ u.conj().T, identity(12))

    def test_trace_counts_fixed_points(self):
        # independent count: columns with perm[c] == c
        p, q = 3, 2
        fixed = sum(
            1
            for j1 in range(p)
            for j2 in range(q)
            if j1 * q + j2 == j2 * p + j1
        )
        assert fixed == 2
        assert np.trace(swap_by_formula(p, q).dense()) == fixed

    def test_self_inverse_square_case(self):
        u = swap_by_formula(3, 3).dense()
        np.testing.assert_array_equal(u @ u, identity(9))


class TestSwapMatrixType:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            SwapMatrix(p=2, q=2, perm=np.array([0, 0, 1, 2]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SwapMatrix(p=2, q=2, perm=np.arange(3))

    @pytest.mark.parametrize("perm", [[0, 1, 2, 4], [0, 1, 2, 2**62], [-1, 0, 1, 2], [-5, 0, 1, 2]])
    def test_rejects_out_of_range_index(self, perm):
        with pytest.raises(ValueError, match="permutation"):
            SwapMatrix(p=2, q=2, perm=perm)

    def test_rejects_negative_dimensions(self):
        # the product of -1 and -2 is the length of a valid permutation
        with pytest.raises(ValueError, match="positive") as info:
            SwapMatrix(p=-1, q=-2, perm=[0, 1])
        assert "\n" not in str(info.value)

    def test_rejects_non_integer_perm(self):
        # 1.9 must not be truncated to 1
        with pytest.raises(ValueError, match="integers") as info:
            SwapMatrix(p=1, q=2, perm=[0.0, 1.9])
        assert "\n" not in str(info.value)

    def test_swaps_hash_and_compare_by_identity(self):
        # a generated __eq__/__hash__ would compare the ndarray field and raise
        u, v = swap_by_formula(2, 3), swap_by_formula(2, 3)
        assert u == u and u != v
        assert hash(u) == hash(u)
        assert len({u, v, u}) == 2

    def test_perm_read_only(self):
        u = swap_by_formula(2, 2)
        with pytest.raises(ValueError):
            u.perm[0] = 3

    def test_perm_is_an_owned_copy(self):
        # writing through a view of the caller's array must not reach the swap
        b = np.arange(2)
        v = b[:]
        u = SwapMatrix(1, 2, b)
        v[:] = 1
        assert u.perm.tolist() == [0, 1]

    def test_callers_array_stays_writable(self):
        b = np.arange(2)
        SwapMatrix(1, 2, b)
        assert b.flags.writeable
        b[0] = 1
        assert b.tolist() == [1, 1]

    @pytest.mark.parametrize("build", [swap_by_formula, swap_by_rule])
    @pytest.mark.parametrize("p,q", [(1, 1), (3, 2), (1, 7), (7, 1), (40, 25)])
    def test_constructed_perm_is_read_only_and_owns_its_data(self, build, p, q):
        perm = build(p, q).perm
        assert perm.dtype == np.int64
        assert not perm.flags.writeable
        assert perm.base is None

    def test_public_constructor_still_copies(self):
        b = np.arange(6)
        u = SwapMatrix(6, 1, b)
        assert not np.shares_memory(u.perm, b)
        assert u.perm.base is None

    def test_adopt_refuses_a_view(self):
        owner = np.arange(4)
        with pytest.raises(ValueError, match="owned"):
            SwapMatrix._adopt(2, 2, owner[:])

    def test_kron_consistency_with_dense(self):
        # dense @ kron(a, b) must equal apply(kron(a, b))
        rng = np.random.default_rng(402)
        u = swap_by_formula(3, 2)
        a = random_vector(rng, 3)
        b = random_vector(rng, 2)
        v = np.kron(a, b)
        assert max_abs_diff(
            (u.dense() @ v).reshape(6, 1), u.apply(v).reshape(6, 1)
        ) <= 1e-12


@st.composite
def perm_candidates(draw):
    """A length ``total`` and an int64 array to test as a permutation of it.

    Mixes true permutations, permutations with one entry changed, and
    arbitrary lists: values of ``total`` and more, in [-total, -1], below
    -total, duplicates and wrong lengths.
    """
    total = draw(st.integers(1, 30))
    values = st.one_of(
        st.integers(-3 * total, 3 * total),
        st.integers(-(2**63), 2**63 - 1),
    )
    kind = draw(st.sampled_from(["permutation", "one changed", "arbitrary"]))
    if kind == "arbitrary":
        perm = draw(st.lists(values, min_size=0, max_size=total + 2))
    else:
        perm = draw(st.permutations(range(total)))
        if kind == "one changed":
            perm[draw(st.integers(0, total - 1))] = draw(values)
    return total, np.array(perm, dtype=np.int64)


class TestIsPermutation:
    @settings(max_examples=400, deadline=None)
    @given(case=perm_candidates())
    def test_agrees_with_set_oracle(self, case):
        total, perm = case
        expected = len(perm) == total and set(perm.tolist()) == set(range(total))
        assert _is_permutation(perm, total) is expected
