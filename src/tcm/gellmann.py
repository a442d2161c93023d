"""Generalized Gell-Mann generator basis for any dimension n >= 2.

Three families of traceless hermitian n x n matrices:

* symmetric pair generators ``S(i,j)``, 1 <= i < j <= n, with ones at
  positions (i,j) and (j,i);
* antisymmetric pair generators ``A(i,j)`` with ``-1j`` at (i,j) and
  ``+1j`` at (j,i);
* diagonal generators ``D(d)``, 1 <= d <= n-1, with d leading diagonal
  entries ``1/sqrt(d(d+1)/2)`` followed by ``-d/sqrt(d(d+1)/2)``.

Together they satisfy ``Tr(G_a G_b) = 2 delta_ab`` and, extended by the
identity, span all n x n matrices.  The canonical order groups the pairs
by their larger index j and appends ``D(j-1)`` after each group; this
reproduces the Pauli matrices at n=2 and the classical Gell-Mann matrices
at n=3.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matops import as_matrix, identity

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"
DIAGONAL = "diagonal"


@dataclass(frozen=True)
class GeneratorLabel:
    """Identity of one generator: S(i,j), A(i,j) or D(d), indices 1-based."""

    kind: str
    i: int = 0
    j: int = 0
    d: int = 0

    def __post_init__(self):
        if self.kind in (SYMMETRIC, ANTISYMMETRIC):
            if not 1 <= self.i < self.j:
                raise ValueError("pair generators need indices 1 <= i < j")
        elif self.kind == DIAGONAL:
            if self.d < 1:
                raise ValueError("diagonal generators need d >= 1")
        else:
            raise ValueError(f"unknown generator kind {self.kind!r}")

    def __str__(self):
        if self.kind == DIAGONAL:
            return f"D({self.d})"
        return f"{'S' if self.kind == SYMMETRIC else 'A'}({self.i},{self.j})"


@dataclass(frozen=True)
class GellMannBasis:
    """Ordered basis for dimension ``n``: n^2 - 1 (label, matrix) pairs.

    ``stack`` is one shared, read-only (n^2, n, n) array holding
    ``identity(n)`` and then ``matrices``; copy before modifying.
    """

    n: int
    labels: tuple
    stack: np.ndarray

    @property
    def matrices(self):
        return self.stack[1:]

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return zip(self.labels, self.matrices)

    def __getitem__(self, k):
        return self.labels[k], self.matrices[k]


@dataclass(frozen=True)
class BasisCoefficients:
    """Expansion of an n x n matrix over ``{identity} + basis(n)``.

    ``c0`` multiplies the identity; ``c[k]`` multiplies the k-th basis
    element in canonical order.
    """

    n: int
    c0: complex
    c: np.ndarray


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


@lru_cache(maxsize=None)
def basis(n):
    """Return the canonically ordered :class:`GellMannBasis` for dimension n.

    Order: for j = 2..n emit S(i,j), A(i,j) for i = 1..j-1, then D(j-1).
    At n=2 this is (sigma_1, sigma_2, sigma_3); at n=3 it is the classical
    (lambda_1, ..., lambda_8).  Results are cached; the stack is filled in
    place and marked read-only so the cache stays safe to share.
    """
    if n < 2:
        raise ValueError(f"basis dimension must be at least 2, got {n}")
    labels = []
    stack = np.empty((n * n, n, n), dtype=np.complex128)
    stack[0] = identity(n)
    for j in range(2, n + 1):
        for i in range(1, j):
            labels.append(GeneratorLabel(SYMMETRIC, i=i, j=j))
            stack[len(labels)] = symmetric_generator(n, i, j)
            labels.append(GeneratorLabel(ANTISYMMETRIC, i=i, j=j))
            stack[len(labels)] = antisymmetric_generator(n, i, j)
        labels.append(GeneratorLabel(DIAGONAL, d=j - 1))
        stack[len(labels)] = diagonal_generator(n, j - 1)
    stack.setflags(write=False)
    return GellMannBasis(n=n, labels=tuple(labels), stack=stack)


def extended_stack(n):
    """Vectorized ``{identity} + basis(n)`` and the squared HS norms, n >= 1.

    Returns ``basis(n).stack`` viewed as (n^2, n^2): row k is the
    row-major ``vec`` of element k, the identity first.  The squared norms
    are n for the identity and 2 for each generator.  Dimension 1 has no
    generators: its stack is ``[[1]]`` with norms ``[1]``.
    """
    if n < 1:
        raise ValueError(f"extended stack dimension must be positive, got {n}")
    stack = basis(n).stack if n > 1 else identity(1)
    norms = np.full(n * n, 2.0)
    norms[0] = n
    return stack.reshape(n * n, n * n), norms


def expand_in_basis(m, n=None):
    """Expand ``m`` over ``{identity} + basis(n)`` by orthogonal projection.

    ``c0 = Tr(m) / n`` and ``c[k] = hs_inner(basis_k, m) / 2``, all
    computed as one product of the conjugated :func:`extended_stack` with
    ``vec(m)``; the input need not be hermitian, in which case
    coefficients are complex.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expand_in_basis needs a square matrix, got {m.shape}")
    if n is None:
        n = m.shape[0]
    elif m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match n={n}")
    stack, norms = extended_stack(n)
    coeffs = stack.conj() @ m.ravel() / norms
    return BasisCoefficients(n=n, c0=complex(coeffs[0]), c=coeffs[1:])


def reconstruct(coeffs):
    """Evaluate ``c0 * identity(n) + sum_k c[k] * basis_k``."""
    n = coeffs.n
    c = np.asarray(coeffs.c, dtype=np.complex128)
    if c.shape != (n * n - 1,):
        raise ValueError(f"need {n * n - 1} coefficients for n={n}, got {c.shape}")
    stack, _ = extended_stack(n)
    return (np.concatenate(([coeffs.c0], c)) @ stack).reshape(n, n)
