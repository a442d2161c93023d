"""Reference results for the benchmark's correctness checks.

Nothing here calls into ``tcm``.  The generators, the product-basis
projection, the swap permutation and the family sums are rebuilt from
their definitions with numpy, so each check compares two code paths
instead of one path with itself.  Every function is cheap next to the
library call it checks: the projection uses the Van Loan-Pitsianis
rearrangement (two matrix products) instead of one inner product per cell.
"""

from functools import cache

import numpy as np


@cache
def generators(n):
    """(n*n-1, n, n) generalized Gell-Mann matrices in tcm's canonical order.

    For each larger index j: S(i,j), A(i,j) for i < j, then D(j-1).
    """
    mats = []
    for j in range(1, n):
        for i in range(j):
            s = np.zeros((n, n), dtype=np.complex128)
            s[i, j] = s[j, i] = 1.0
            a = np.zeros((n, n), dtype=np.complex128)
            a[i, j], a[j, i] = -1.0j, 1.0j
            mats += [s, a]
        d = np.zeros((n, n), dtype=np.complex128)
        scale = np.sqrt(2.0 / (j * (j + 1)))
        d[np.arange(j), np.arange(j)] = scale
        d[j, j] = -j * scale
        mats.append(d)
    stack = np.array(mats).reshape(n * n - 1, n, n)
    stack.setflags(write=False)
    return stack


@cache
def _extended(n):
    """``{I_n} + generators(n)`` flattened to (n*n, n*n) rows, and their squared norms."""
    rows = [np.eye(n, dtype=np.complex128).ravel()]
    norms = [float(n)]
    if n >= 2:
        rows.extend(generators(n).reshape(n * n - 1, n * n))
        norms.extend([2.0] * (n * n - 1))
    return np.array(rows), np.array(norms)


def product_grid(m, p, q):
    """p^2 x q^2 product-basis coefficients of ``m`` by realignment."""
    a, na = _extended(p)
    b, nb = _extended(q)
    realigned = m.reshape(p, q, p, q).transpose(0, 2, 1, 3).reshape(p * p, q * q)
    return (a.conj() @ realigned @ b.conj().T) / np.outer(na, nb)


def basis_coefficients(m):
    """``(c0, c)`` of ``m`` over ``{I} + generators(n)``."""
    n = m.shape[0]
    c = generators(n).conj().reshape(n * n - 1, n * n) @ m.ravel() / 2.0
    return np.trace(m) / n, c


def swap_perm(p, q):
    """Row of the single 1 in each column of the p (x) q swap.

    Column ``j1*q + j2`` holds its 1 at row ``j2*p + j1``: read the
    row-major q x p index grid column by column.
    """
    return np.arange(p * q).reshape(q, p).T.ravel()


def swap_dense(p, q):
    """Dense p (x) q swap matrix."""
    return np.eye(p * q, dtype=np.complex128)[swap_perm(p, q)].T.copy()


def offdiag_family(n):
    """``2 sum_{i != j} E_ij (x) E_ji``: a 2 at row i*n+j, column j*n+i."""
    out = np.zeros((n * n, n * n), dtype=np.complex128)
    i, j = np.divmod(np.arange(n * n), n)
    off = i != j
    out[(i * n + j)[off], (j * n + i)[off]] = 2.0
    return out


def diagonal_family(n):
    """``-(2/n) I + 2 sum_i E_ii (x) E_ii``."""
    out = -(2.0 / n) * np.eye(n * n, dtype=np.complex128)
    k = np.arange(n) * (n + 1)
    out[k, k] += 2.0
    return out


def one_positions(p, q):
    """1-based (row, col) pairs of the swap's ones sorted by row, as an (pq, 2) array."""
    inverse = np.argsort(swap_perm(p, q))
    return np.column_stack([np.arange(1, p * q + 1), inverse + 1])
