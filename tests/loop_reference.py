"""Term-by-term loops and single-generator constructions kept as the
independent oracles of the library, written from the definitions and
not from its order of arithmetic.

``symmetric_generator``, ``antisymmetric_generator`` and
``diagonal_generator`` build one generator each from its definition.
``basis_stack`` fills ``identity(n)`` and the generators in canonical
order from them one generator at a time, ``basis_labels`` writes the
labels by a loop over the pairs, independently of the library's
numbering, and ``label_fields`` reads a label's kind and indices back
from its text.  ``real_stack`` splits that stack into a real matrix and
phases, exact values that the library's real operands must equal.

The projection oracles take one Hilbert-Schmidt inner product per cell
(``product_grid``, ``basis_coefficients``) and add one Kronecker product
or one generator per term (``product_sum``, ``basis_sum``).
``sum_kron_squares`` is the one oracle for a sum of Kronecker squares,
one ``np.kron`` per matrix, and the family sums and their references
are the same loops over the generators and the elementary matrices.
``realign`` and ``unrealign`` are the Van Loan-Pitsianis rearrangement
``R(m)[(i1, j1), (i2, j2)] = m[(i1, i2), (j1, j2)]`` and its inverse.
``one_positions`` sorts the (row, col) pairs of a swap as Python tuples,
``swap_by_rule_walk`` walks the swap one column at a time, and
``elementary`` places a single 1 by its 1-based indices.
``six_term_expression`` evaluates the paper's hand expansion of the
3 (x) 2 and 2 (x) 3 swaps term by term over ``basis_stack(3)`` and
``basis_stack(2)``.
"""

import re

import numpy as np

from tcm.gellmann import ANTISYMMETRIC, DIAGONAL, SYMMETRIC, basis
from tcm.matops import dimension, hs_inner, identity
from tcm.swap import SwapMatrix, WalkCheckpointError


def elementary(n, i, j):
    """n x n matrix with a single 1 at row ``i``, column ``j`` (1-based)."""
    m = np.zeros((n, n), dtype=np.complex128)
    m[i - 1, j - 1] = 1.0
    return m


def _check_pair(n, i, j):
    if n < 2:
        raise ValueError(f"generator dimension must be at least 2, got {n}")
    if not (1 <= i < j <= n):
        raise ValueError(f"pair indices need 1 <= i < j <= n, got ({i},{j}) for n={n}")


def symmetric_generator(n, i, j):
    """Generator with ones at (i,j) and (j,i), 1 <= i < j <= n."""
    _check_pair(n, i, j)
    m = np.zeros((n, n), dtype=np.complex128)
    m[i - 1, j - 1] = 1.0
    m[j - 1, i - 1] = 1.0
    return m


def antisymmetric_generator(n, i, j):
    """Generator with -1j at (i,j) and +1j at (j,i), 1 <= i < j <= n."""
    _check_pair(n, i, j)
    m = np.zeros((n, n), dtype=np.complex128)
    m[i - 1, j - 1] = -1.0j
    m[j - 1, i - 1] = 1.0j
    return m


def diagonal_generator(n, d):
    """Diagonal generator D(d): d entries 1/s then -d/s, s = sqrt(d(d+1)/2)."""
    if n < 2:
        raise ValueError(f"generator dimension must be at least 2, got {n}")
    if not 1 <= d <= n - 1:
        raise ValueError(f"diagonal index needs 1 <= d <= n-1, got d={d} for n={n}")
    scale = 1.0 / np.sqrt(d * (d + 1) / 2.0)
    m = np.zeros((n, n), dtype=np.complex128)
    m[range(d), range(d)] = scale
    m[d, d] = -d * scale
    return m


def extended_factors(n):
    """``{I_n} + basis(n)`` built by the single-generator functions, and
    their squared HS norms."""
    norms = np.full(n * n, 2.0)
    norms[0] = n
    return basis_stack(n), norms


def product_grid(m, p, q):
    """``grid[a, b] = hs_inner(kron(A_a, B_b), m) / (|A_a|^2 |B_b|^2)``."""
    a_mats, a_norms = extended_factors(p)
    b_mats, b_norms = extended_factors(q)
    grid = np.empty((p * p, q * q), dtype=np.complex128)
    for a, (ma, na) in enumerate(zip(a_mats, a_norms)):
        for b, (mb, nb) in enumerate(zip(b_mats, b_norms)):
            grid[a, b] = np.vdot(np.kron(ma, mb), m) / (na * nb)
    return grid


def product_sum(grid, p, q):
    """``sum_ab grid[a, b] * kron(A_a, B_b)``."""
    a_mats, _ = extended_factors(p)
    b_mats, _ = extended_factors(q)
    out = np.zeros((p * q, p * q), dtype=np.complex128)
    for a, ma in enumerate(a_mats):
        for b, mb in enumerate(b_mats):
            out += grid[a, b] * np.kron(ma, mb)
    return out


def realign(m, p, q):
    """``R(m)``: the (p^2, q^2) rearrangement of a pq x pq matrix,
    ``R(m)[(i1, j1), (i2, j2)] = m[(i1, i2), (j1, j2)]``."""
    return m.reshape(p, q, p, q).transpose(0, 2, 1, 3).reshape(p * p, q * q)


def unrealign(r, p, q):
    """Inverse of :func:`realign`."""
    return r.reshape(p, p, q, q).transpose(0, 2, 1, 3).reshape(p * q, p * q)


def real_stack(n):
    """``{identity} + basis(n)`` split as ``phase[:, None] * real``, rebuilt
    from the single-generator functions: a matrix with an imaginary entry
    gives its imaginary part and phase 1j, any other its real part and
    phase 1.  Returns ``(real, phase, norms)``, the norms as floats."""
    stack, norms = extended_factors(n)
    stack = stack.reshape(n * n, n * n)
    imaginary = np.any(stack.imag != 0, axis=1)
    return np.where(imaginary[:, None], stack.imag, stack.real), np.where(imaginary, 1j, 1.0 + 0j), norms


def basis_coefficients(m):
    """``(Tr(m) / n, [hs_inner(G_k, m) / 2 for each generator])``."""
    n = m.shape[0]
    c = np.array([hs_inner(g, m) / 2.0 for g in basis_stack(n)[1:]], dtype=np.complex128)
    return np.trace(m) / n, c


def basis_sum(n, c0, c):
    """``c0 * identity(n) + sum_k c[k] * G_k``."""
    out = c0 * identity(n)
    for ck, g in zip(c, basis_stack(n)[1:]):
        out += ck * g
    return out


def offdiag_family_sum(n):
    """``sum_{i<j} kron(S_ij, S_ij) + kron(A_ij, A_ij)``."""
    out = np.zeros((n * n, n * n), dtype=np.complex128)
    for j in range(2, n + 1):
        for i in range(1, j):
            s = symmetric_generator(n, i, j)
            a = antisymmetric_generator(n, i, j)
            out += np.kron(s, s) + np.kron(a, a)
    return out


def offdiag_family_reference(n):
    """``2 sum_{i!=j} kron(E_ij, E_ji)``."""
    out = np.zeros((n * n, n * n), dtype=np.complex128)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                out += 2.0 * np.kron(elementary(n, i, j), elementary(n, j, i))
    return out


def diagonal_family_sum(n):
    """``sum_{d=1..n-1} kron(D_d, D_d)``."""
    out = np.zeros((n * n, n * n), dtype=np.complex128)
    for d in range(1, n):
        g = diagonal_generator(n, d)
        out += np.kron(g, g)
    return out


def diagonal_family_reference(n):
    """``-(2/n) I + 2 sum_i kron(E_ii, E_ii)``."""
    out = -(2.0 / n) * identity(n * n)
    for i in range(1, n + 1):
        e = elementary(n, i, i)
        out += 2.0 * np.kron(e, e)
    return out


def sum_kron_squares(matrices, n):
    """``sum_k kron(M_k, M_k)``, one Kronecker product per matrix."""
    out = np.zeros((n * n, n * n), dtype=np.complex128)
    for m in matrices:
        out += np.kron(m, m)
    return out


def basis_stack(n):
    """``identity(n)`` and then the generators in canonical order, as one
    (n^2, n, n) stack filled by the single-generator functions."""
    stack = np.empty((n * n, n, n), dtype=np.complex128)
    stack[0] = identity(n)
    k = 1
    for j in range(2, n + 1):
        for i in range(1, j):
            stack[k] = symmetric_generator(n, i, j)
            stack[k + 1] = antisymmetric_generator(n, i, j)
            k += 2
        stack[k] = diagonal_generator(n, j - 1)
        k += 1
    return stack


def basis_labels(n):
    """The labels of ``basis(n)``: for j = 2..n, S(i,j) and A(i,j) for
    i = 1..j-1, then D(j-1)."""
    labels = []
    for j in range(2, n + 1):
        for i in range(1, j):
            labels.append(f"S({i},{j})")
            labels.append(f"A({i},{j})")
        labels.append(f"D({j - 1})")
    return tuple(labels)


_LABEL = re.compile(r"([SA])\((\d+),(\d+)\)|D\((\d+)\)")
_KINDS = {"S": SYMMETRIC, "A": ANTISYMMETRIC}


def label_fields(label):
    """``(kind, i, j, d)`` of the label ``S(i,j)``, ``A(i,j)`` or ``D(d)``,
    with 0 for the indices it lacks."""
    letter, i, j, d = _LABEL.fullmatch(label).groups()
    if d is not None:
        return DIAGONAL, 0, 0, int(d)
    return _KINDS[letter], int(i), int(j), 0


def closed_form_lhs(n):
    """``sum_k kron(G_k, G_k)`` over ``basis(n)``."""
    return sum_kron_squares(basis(n).matrices, n)


def one_positions(u):
    """1-based (row, col) pairs of the ones of a swap, sorted by row."""
    return sorted((int(u.perm[col]) + 1, col + 1) for col in range(u.size))


def swap_by_rule_walk(p, q):
    """The swap by the column walk, one column per step.

    Start with a 1 at row 1, column 1; in each following column descend p
    rows and place a 1.  Whenever fewer than p rows remain (after the k-th
    group of q ones), restart the descent at row k+1 in the next column.
    """
    p, q = dimension(p, 1), dimension(q, 1)
    total = p * q
    rows = np.empty(total, dtype=np.int64)
    row = 1
    group = 1
    for col in range(1, total + 1):
        rows[col - 1] = row
        if row + p <= total:
            row += p
        else:
            # Walk checkpoints: each group holds exactly q ones, and group
            # k+1 starts in the next column at row k+1.
            if col != group * q:
                raise WalkCheckpointError(
                    f"group {group} ended at column {col}, expected {group * q}"
                )
            group += 1
            row = group
    if rows[-1] != total:
        raise WalkCheckpointError("walk must end with a 1 at (pq, pq)")
    return SwapMatrix(p=p, q=q, perm=rows - 1)


def six_term_pairs():
    """The (3-factor, 2-factor) pairs of the six-term 3 (x) 2 swap expression.

    Each pair is an elementary 6 x 6 matrix of the swap written as the
    tensor product of its factor expansions over {I_3, lambda} and
    {I_2, sigma}.
    """
    i3, *l = basis_stack(3)  # l[0] = lambda_1, ..., l[7] = lambda_8
    i2, s1, s2, s3 = basis_stack(2)
    rt3 = np.sqrt(3.0)
    return [
        (i3 / 3 + l[2] / 2 + rt3 / 6 * l[7], i2 / 2 + s3 / 2),
        (l[0] / 2 + 0.5j * l[1], s1 / 2 - 0.5j * s2),
        (l[5] / 2 + 0.5j * l[6], i2 / 2 + s3 / 2),
        (l[0] / 2 - 0.5j * l[1], i2 / 2 - s3 / 2),
        (l[5] / 2 - 0.5j * l[6], s1 / 2 + 0.5j * s2),
        (i3 / 3 - rt3 / 3 * l[7], i2 / 2 - s3 / 2),
    ]


def six_term_expression(three_first, pairs=None):
    """The sum of the six terms, ``pairs`` or :func:`six_term_pairs`, with the
    3-factor outer (the 3 (x) 2 swap) or inner.

    With the 3-factor inner, the two factors of each term trade places and
    are transposed (which negates the antisymmetric generators and keeps
    the others); the terms are then those of the 2 (x) 3 swap,
    ``swap(3, 2).T``.
    """
    pairs = six_term_pairs() if pairs is None else pairs
    if three_first:
        return sum(np.kron(a, b) for a, b in pairs)
    return sum(np.kron(b.T, a.T) for a, b in pairs)
