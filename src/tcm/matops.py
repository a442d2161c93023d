"""Dense complex matrix helpers used throughout the package.

Matrices are plain numpy arrays with dtype ``complex128``.  Composite
indices follow the block layout of ``np.kron``: the entry of
``np.kron(a, b)`` at composite row ``(i1, i2)`` and composite column
``(j1, j2)`` equals ``a[i1, j1] * b[i2, j2]``, stored at row
``i1 * b_rows + i2``, column ``j1 * b_cols + j2``.  Indices at the API
surface (generator labels, swap positions) are 1-based; everything
internal is 0-based.
"""

import numpy as np

#: Default per-entry absolute comparison tolerance.  All generator entries
#: are O(1) and intermediate magnitudes stay below the matrix dimension, so
#: double precision leaves several orders of headroom at supported sizes.
DEFAULT_ABS_EPS = 1e-10


def as_matrix(m):
    """Coerce ``m`` to a 2-D complex128 array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got a {a.ndim}-D array")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def dimension(n, least):
    """The size argument ``n`` as a plain int; ValueError unless it is a
    Python or numpy integer (a bool is none) of at least ``least``."""
    if type(n) is not int:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"a dimension must be an integer, got {type(n).__name__}")
        n = int(n)
    if n < least:
        bound = "positive" if least == 1 else f"at least {least}"
        raise ValueError(f"a dimension must be {bound}, got {n}")
    return n


def identity(n):
    """n x n identity matrix, n >= 1."""
    return np.eye(dimension(n, 1), dtype=np.complex128)


def hs_inner(a, b):
    """Hilbert-Schmidt inner product ``Tr(a.conj().T @ b)``.

    Conjugate-linear in the first argument; defined for any pair of
    same-shaped matrices.
    """
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"hs_inner shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def max_abs_diff(a, b):
    """Largest entrywise modulus of ``a - b``."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"max_abs_diff shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))
