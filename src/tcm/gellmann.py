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

Every generator has at most n nonzeros, about 2.5 n^2 for the whole basis,
so a basis is ``n`` and its (k, i, j, value) triplets, built straight from
the definitions above.  One helper, :func:`_numbering`, gives each
generator its place in the canonical order; the triplets and the
(kind, i, j, d) :class:`GeneratorTable` are placed by it.  The table, the
string labels (``"S(1,2)"``, ...) rendered from it and the dense
(n^2, n, n) stack are built only when a consumer first reads them.

Every element of ``{identity} + basis(n)`` is real (the identity, S, D)
or purely imaginary (A), so the flattened stack is ``phase[:, None] *
real`` with a real (n^2, n^2) matrix, built from the triplets without
the stack, and phases 1 or 1j: the :class:`RealOperands` of each n,
built once and read-only.  From them, and only for the small n that use
them, the :class:`ComplexOperands` cache the stack and its weighted
conjugate as complex matrices.

Projections over ``{identity} + basis(n)`` take one of two paths by n.
Up to n = 12 (``_COMPLEX_EXPANSION_MAX``) :func:`expand_in_basis` is one
complex product, the weighted conjugate stack times ``vec(m)``, and
:func:`reconstruct` the coefficients times the stack: at these sizes a
cached product costs less than the per-call index work of the triplets.
Above it :func:`expand_in_basis` gathers the entries of ``m`` at the
generators' nonzeros and sums them per generator, and :func:`reconstruct`
scatters the weighted nonzeros back into one n x n array: O(n^2) work
and no n^4-entry operand.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .matops import as_matrix, dimension, identity

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"
DIAGONAL = "diagonal"

# expand_in_basis and reconstruct take one complex product up to this n
# and the triplets above it.  The product's lead falls from about 55 % at
# n <= 6 to nothing at n = 12, and it is behind from n = 14 on (the ladder
# is in CHANGES.md)
_COMPLEX_EXPANSION_MAX = 12


class Triplets(NamedTuple):
    """Entries of a stack of matrices: matrix ``k[t]`` holds ``value[t]`` at
    row ``i[t]``, column ``j[t]`` (0-based); entries not listed are zero."""

    k: np.ndarray
    i: np.ndarray
    j: np.ndarray
    value: np.ndarray


class GeneratorTable(NamedTuple):
    """The generators of a basis in canonical order, one entry each, as
    read-only arrays: ``kind`` is SYMMETRIC, ANTISYMMETRIC or DIAGONAL;
    ``i`` and ``j`` are the 1-based pair of S(i,j) and A(i,j), 0 for D(d);
    ``d`` is that of D(d), 0 for the pairs."""

    kind: np.ndarray
    i: np.ndarray
    j: np.ndarray
    d: np.ndarray


@dataclass(frozen=True, eq=False)
class GellMannBasis:
    """Ordered basis for dimension ``n``: its n^2 - 1 generators.

    ``triplets`` lists the generators' nonzeros by ``k``, the canonical
    order, and row-major within each generator; its consumers rely on that
    order.  ``table``, ``labels`` and ``stack`` are rendered on first read;
    ``stack`` is one shared, read-only (n^2, n, n) array holding
    ``identity(n)`` and then ``matrices``; copy before modifying.  Bases
    compare and hash by identity, as array fields have no usable ``==``.
    """

    n: int
    triplets: Triplets

    @cached_property
    def table(self):
        """The generators' :class:`GeneratorTable`, in the order of :func:`basis`."""
        i, j, k, d, k_diagonal = _numbering(self.n)
        pairs = np.concatenate((k, k + 1))
        kind = np.full(len(self), DIAGONAL, dtype=f"<U{len(ANTISYMMETRIC)}")
        kind[k], kind[k + 1] = SYMMETRIC, ANTISYMMETRIC
        table = GeneratorTable(kind, *np.zeros((3, len(self)), dtype=np.int64))
        table.i[pairs] = np.tile(i + 1, 2)
        table.j[pairs] = np.tile(j + 1, 2)
        table.d[k_diagonal] = d
        for a in table:
            a.setflags(write=False)
        return table

    @cached_property
    def labels(self):
        """The generators' labels ``S(i,j)``, ``A(i,j)`` and ``D(d)`` as
        strings, in the order of :func:`basis`."""
        return tuple(
            f"D({d})" if kind == DIAGONAL else f"{kind[0].upper()}({i},{j})"
            for kind, i, j, d in zip(*(a.tolist() for a in self.table))
        )

    @cached_property
    def stack(self):
        """The (n^2, n, n) stack, placed from ``triplets`` on first read."""
        n, (k, i, j, value) = self.n, self.triplets
        stack = np.zeros((n * n, n, n), dtype=np.complex128)
        stack[0] = identity(n)
        stack[k + 1, i, j] = value
        stack.setflags(write=False)
        return stack

    @property
    def matrices(self):
        return self.stack[1:]

    def __len__(self):
        return self.n * self.n - 1


@dataclass(frozen=True, eq=False)
class BasisCoefficients:
    """Expansion of an n x n matrix over ``{identity} + basis(n)``.

    ``c0`` multiplies the identity; ``c[k]`` multiplies the k-th basis
    element in canonical order.  Compares and hashes by identity.
    """

    n: int
    c0: complex
    c: np.ndarray


def _numbering(n):
    """The place of each generator of dimension ``n`` in the canonical order.

    Returns ``(i, j, k, d, k_diagonal)``: the 0-based pairs ``i < j``, by j
    and then i, with ``k = j^2 - 1 + 2i`` the 0-based place of S(i+1,j+1)
    (A(i+1,j+1) is at k + 1), and ``d = 1..n-1`` with D(d) at
    ``k_diagonal = (d+1)^2 - 2``.
    """
    j, i = np.tril_indices(n, -1)  # the pairs i < j, by j and then i
    d = np.arange(1, n)
    return i, j, j * j - 1 + 2 * i, d, (d + 1) ** 2 - 2


def _triplets(n):
    """Nonzeros of the generators of ``basis(n)``, sorted by generator and
    row-major within each one, numbered by :func:`_numbering`.

    Real and imaginary parts are set apart so that ``-1j`` keeps its
    negative zero real part, ``complex(-0.0, -1.0)``.
    """
    i, j, k_pair, _, k_diagonal = _numbering(n)
    k_pair = np.repeat(k_pair, 4) + np.tile([0, 0, 1, 1], i.size)
    rows_pair = np.stack((i, j, i, j), axis=1).ravel()
    cols_pair = np.stack((j, i, j, i), axis=1).ravel()
    re_pair = np.tile([1.0, 1.0, -0.0, 0.0], i.size)
    im_pair = np.tile([0.0, 0.0, -1.0, 1.0], i.size)
    # D(d) has d + 1 diagonal entries, (m, m) for m = 0..d: row d of a
    # lower triangle, whose row 0 is no generator
    d, m = (a[1:] for a in np.tril_indices(n))
    scale = 1.0 / np.sqrt(d * (d + 1) / 2.0)
    k = np.concatenate((k_pair, k_diagonal[d - 1]))
    rows = np.concatenate((rows_pair, m))
    cols = np.concatenate((cols_pair, m))
    order = np.argsort((k * n + rows) * n + cols)
    value = np.empty(order.size, dtype=np.complex128)
    value.real = np.concatenate((re_pair, np.where(m < d, 1.0, -d) * scale))[order]
    value.imag = np.concatenate((im_pair, np.zeros(m.size)))[order]
    triplets = Triplets(k[order], rows[order], cols[order], value)
    for a in triplets:
        a.setflags(write=False)
    return triplets


def basis(n):
    """Return the canonically ordered :class:`GellMannBasis` for dimension n.

    Order: for j = 2..n emit S(i,j), A(i,j) for i = 1..j-1, then D(j-1).
    At n=2 this is (sigma_1, sigma_2, sigma_3); at n=3 it is the classical
    (lambda_1, ..., lambda_8).  Results are cached by the checked int n; the
    triplets are read-only so the cache stays safe to share.
    """
    return _basis(dimension(n, 2))


@lru_cache(maxsize=None)
def _basis(n):
    """The basis of a checked ``n >= 1``; at n = 1 it has no generators."""
    return GellMannBasis(n, _triplets(n))


basis.cache_clear = _basis.cache_clear


class RealOperands(NamedTuple):
    """``{identity} + basis(n)`` split into a real matrix and phases, for one n.

    Every element is real (the identity, S(i,j), D(d)) or purely imaginary
    (A(i,j)), so row k of the (n^2, n^2) stack is ``phase[k] * real[k]``:
    ``real`` is float64, and ``phase`` is 1, or 1j for A(i,j), whose real
    row holds -1 at (i,j) and +1 at (j,i).  ``weights`` is
    ``conj(phase) / norms``, the factor that turns ``real`` products into
    projections.  ``phase`` and ``weights`` are complex128; all are read-only.
    """

    real: np.ndarray
    phase: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def _real_operands(n):
    """The :class:`RealOperands` of a checked ``n >= 1`` from the triplets, not
    the stack: ``[[1.0]]`` at n = 1, and 8 MB of ``real`` at n = 32."""
    k, i, j, value = _basis(n).triplets
    real = np.zeros((n * n, n * n))
    real[0, :: n + 1] = 1.0
    real[k + 1, i * n + j] = value.real + value.imag  # one of the two is zero
    phase = np.ones(n * n, dtype=np.complex128)
    phase[k[value.imag != 0] + 1] = 1j
    norms = np.full(n * n, 2.0)
    norms[0] = n
    operands = RealOperands(real, phase, phase.conj() / norms)
    for a in operands:
        a.setflags(write=False)
    return operands


class ComplexOperands(NamedTuple):
    """``{identity} + basis(n)`` as two complex (n^2, n^2) matrices, for one n.

    ``stack`` is the flattened stack ``phase[:, None] * real`` (row k is
    element k, row-major) and ``weighted`` is ``weights[:, None] * real``,
    each row conjugated and divided by its squared norm, so that
    ``weighted @ vec(m)`` projects ``m`` and ``c @ stack`` evaluates the
    expansion ``c``.  Both are complex128 and read-only.
    """

    weighted: np.ndarray
    stack: np.ndarray


@lru_cache(maxsize=None)
def _complex_operands(n):
    """The :class:`ComplexOperands` of a checked ``n >= 1``, from its
    :class:`RealOperands`: 2 MB at n = 16."""
    real, phase, weights = _real_operands(n)
    operands = ComplexOperands(weights[:, None] * real, phase[:, None] * real)
    for a in operands:
        a.setflags(write=False)
    return operands


def expand_in_basis(m):
    """Expand the n x n ``m`` over ``{identity} + basis(n)`` by orthogonal
    projection.

    ``c0 = Tr(m) / n`` and ``c[k] = hs_inner(basis_k, m) / 2``, which is
    half the sum of ``conj(value) * m[i, j]`` over the (i, j, value)
    nonzeros of generator k.  Up to n = 12 that is one product with the
    cached weighted conjugate stack, ``weighted @ vec(m)``; above it one
    gather from ``m`` and one sum per generator, read from
    ``basis(n).triplets``.  The input need not be hermitian, in which case
    coefficients are complex.
    """
    m = as_matrix(m)
    n = dimension(m.shape[0], 1)
    if m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match n={n}")
    if n <= _COMPLEX_EXPANSION_MAX:
        c = _complex_operands(n).weighted @ m.ravel()
        return BasisCoefficients(n=n, c0=complex(c[0]), c=c[1:])
    k, i, j, value = _basis(n).triplets
    terms = np.conj(value)
    terms *= m.ravel()[i * n + j]
    c = np.empty(n * n - 1, dtype=np.complex128)
    c.real = np.bincount(k, terms.real, c.size)
    c.imag = np.bincount(k, terms.imag, c.size)
    c *= 0.5
    return BasisCoefficients(n=n, c0=complex(m.trace() / n), c=c)


def reconstruct(coeffs):
    """Evaluate ``c0 * identity(n) + sum_k c[k] * basis_k``: up to n = 12 as
    ``[c0, c] @ stack`` with the cached stack, above it by adding each
    generator's nonzeros, times its coefficient, into one n x n array."""
    n = dimension(coeffs.n, 1)
    c = np.asarray(coeffs.c, dtype=np.complex128)
    if c.shape != (n * n - 1,):
        raise ValueError(f"need {n * n - 1} coefficients for n={n}, got {c.shape}")
    if n <= _COMPLEX_EXPANSION_MAX:
        extended = np.empty(n * n, dtype=np.complex128)
        extended[0] = coeffs.c0
        extended[1:] = c
        return (extended @ _complex_operands(n).stack).reshape(n, n)
    k, i, j, value = _basis(n).triplets
    m = np.zeros(n * n, dtype=np.complex128)
    np.add.at(m, i * n + j, c[k] * value)
    m[:: n + 1] += coeffs.c0
    return m.reshape(n, n)
