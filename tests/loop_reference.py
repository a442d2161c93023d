"""Cell-by-cell projections kept as the reference for the library's
matrix-product forms.

``decompose_product``/``reconstruct_product`` and
``expand_in_basis``/``reconstruct`` compute every coefficient at once from
stacks of vectorized basis matrices.  The loops here evaluate the same
quantities one basis element at a time, straight from the definitions:
one Hilbert-Schmidt inner product per cell, one Kronecker product per
term.
"""

import numpy as np

from tcm.gellmann import basis
from tcm.matops import hs_inner, identity, trace


def extended_factors(n):
    """Matrices and squared HS norms of ``{I_n} + basis(n)``."""
    mats = [identity(n)]
    norms = [float(n)]
    if n >= 2:
        mats.extend(basis(n).matrices)
        norms.extend([2.0] * (n * n - 1))
    return mats, norms


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


def basis_coefficients(m):
    """``(trace(m) / n, [hs_inner(G_k, m) / 2 for each generator])``."""
    n = m.shape[0]
    c = np.array([hs_inner(g, m) / 2.0 for g in basis(n).matrices], dtype=np.complex128)
    return trace(m) / n, c


def basis_sum(n, c0, c):
    """``c0 * identity(n) + sum_k c[k] * G_k``."""
    out = c0 * identity(n)
    for ck, g in zip(c, basis(n).matrices):
        out += ck * g
    return out
