"""Tensor commutation (swap) matrices.

``swap(p, q)`` is the pq x pq permutation matrix U satisfying
``U @ kron(a, b) == kron(b, a)`` for every p-vector ``a`` and q-vector
``b``.  Two independent constructions are provided: a delta formula
(`swap_by_formula`, the implementation of record) and a constructive
column walk (`swap_by_rule`, a cross-check), computed as one prefix sum
of the walk's moves.  Both store the permutation as an index map; the
dense 0/1 matrix and the (row, col) positions of its ones are rendered on
demand.  Each construction writes its index map once and hands it to the
swap without a copy; the public ``SwapMatrix(p, q, perm)`` copies the
caller's array.  Either way it is checked once and made read-only.

Index layout matches :mod:`tcm.matops`: the column of the single 1 for
input slot ``(j1, j2)`` is ``j1*q + j2`` (``j1 < p`` outer, ``j2 < q``
inner) and its row is ``j2*p + j1``, so applying U moves the entry of
``a (x) b`` at (j1, j2) to the slot of ``b (x) a`` at (j2, j1).
"""

from dataclasses import dataclass

import numpy as np

from .matops import dimension


class WalkCheckpointError(RuntimeError):
    """The column walk of :func:`swap_by_rule` broke one of its checkpoints."""


@dataclass(frozen=True, eq=False)
class SwapMatrix:
    """Permutation representation of the p (x) q swap.

    ``perm[col]`` is the row holding the single 1 of that column
    (0-based).  Instances are immutable and safe to share, and compare
    and hash by identity.
    """

    p: int
    q: int
    perm: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", dimension(self.p, 1))
        object.__setattr__(self, "q", dimension(self.q, 1))
        self._freeze(np.array(self.perm))  # owned: the caller's array stays theirs

    @classmethod
    def _adopt(cls, p, q, perm):
        """Wrap a freshly built int64 ``perm`` that owns its data, without a copy."""
        if perm.dtype != np.int64 or perm.base is not None:
            raise ValueError("only an owned int64 array can be adopted")
        swap = object.__new__(cls)
        object.__setattr__(swap, "p", p)
        object.__setattr__(swap, "q", q)
        swap._freeze(perm)
        return swap

    def _freeze(self, perm):
        """Check an owned ``perm`` against (p, q), make it read-only and store it."""
        total = self.p * self.q
        if perm.dtype.kind not in "iu":
            raise ValueError(f"perm must hold integers, got dtype {perm.dtype}")
        perm = perm.astype(np.int64, copy=False)
        if not _is_permutation(perm, total):
            raise ValueError(f"perm must be a permutation of 0..{total - 1}")
        perm.setflags(write=False)
        object.__setattr__(self, "perm", perm)

    @property
    def size(self):
        return self.p * self.q

    def apply(self, v):
        """Permute a length-pq vector without building the dense matrix.

        ``out[perm[c]] = v[c]``; for ``v = kron(a, b)`` the result equals
        ``kron(b, a)`` exactly (entries are moved, never recomputed).
        """
        v = np.asarray(v, dtype=np.complex128)
        if v.shape != (self.size,):
            raise ValueError(f"vector length must be {self.size}, got {v.shape}")
        out = np.empty_like(v)
        out[self.perm] = v
        return out

    def dense(self):
        """Dense pq x pq rendering with one 1 per row and column."""
        total = self.size
        m = np.zeros((total, total), dtype=np.complex128)
        m[self.perm, np.arange(total)] = 1.0
        return m

    def one_positions(self):
        """1-based (row, col) pairs of the ones, sorted by row.

        A fresh (pq, 2) int64 array, column-major: the transpose of a
        (2, pq) array whose first row is ``1..pq`` and whose second,
        contiguous row is the inverse permutation, filled by one scatter.
        """
        total = self.size
        out = np.empty((2, total), dtype=np.int64)
        rows, cols = out
        rows[:] = np.arange(1, total + 1)
        cols[self.perm] = rows
        return out.T


def _is_permutation(perm, total):
    """O(pq): ``total`` in-range indices that hit every slot hit each once.

    An index of ``total`` or more makes the scatter raise ``IndexError``,
    so no separate pass looks for the largest one.
    """
    if perm.shape != (total,) or perm.min() < 0:
        return False
    seen = np.zeros(total, dtype=bool)
    try:
        seen[perm] = True
    except IndexError:
        return False
    return bool(seen.all())


def swap_by_formula(p, q):
    """Construct the swap from the delta formula.

    The entry at composite row ``(i1, i2)`` and column ``(j1, j2)`` is 1
    exactly when ``i1 == j2`` and ``i2 == j1``, i.e.
    ``perm[j1*q + j2] = j2*p + j1``.  A factor of dimension 1 yields the
    identity permutation (the degenerate swap of a scalar factor).
    """
    p, q = dimension(p, 1), dimension(q, 1)
    j1, j2 = np.ogrid[:p, :q]
    perm = np.empty(p * q, dtype=np.int64)
    np.add(j2 * p, j1, out=perm.reshape(p, q))
    return SwapMatrix._adopt(p, q, perm)


def swap_by_rule(p, q):
    """Construct the swap by the constructive column walk.

    Start with a 1 at row 1, column 1; in each following column descend p
    rows and place a 1.  Whenever fewer than p rows remain (after the k-th
    group of q ones), restart the descent at row k+1 in the next column.
    Group k is thus the descent ``k, k+p, k+2p, ...`` over the rows that
    do not pass pq, and the walk is one prefix sum of its moves: p in
    every column, except the first column of group k+1, whose move goes
    from group k's last row back to row k+1.  It ends with a 1 at
    (pq, pq); a broken checkpoint raises :class:`WalkCheckpointError`.
    Kept free of any call into :func:`swap_by_formula` so the two
    constructions stay independent cross-checks of each other.
    """
    p, q = dimension(p, 1), dimension(q, 1)
    total = p * q
    group = np.arange(1, p + 1)
    sizes = (total - group) // p + 1  # the descent stops before passing pq
    ends = np.cumsum(sizes)
    # Walk checkpoint: each group holds exactly q ones, so group k ends at
    # column k*q and group k+1 starts in the next column.
    broken = np.flatnonzero(ends != group * q)
    if broken.size:
        k = int(broken[0])
        raise WalkCheckpointError(
            f"group {k + 1} ended at column {ends[k]}, expected {(k + 1) * q}"
        )
    lasts = group + (sizes - 1) * p
    if lasts[-1] != total:
        raise WalkCheckpointError("walk must end with a 1 at (pq, pq)")
    # 0-based rows: start at row 0, then add each column's move in place.
    rows = np.full(total, p, dtype=np.int64)
    rows[0] = 0
    rows[ends[:-1]] = group[1:] - lasts[:-1]
    np.cumsum(rows, out=rows)
    return SwapMatrix._adopt(p, q, rows)
