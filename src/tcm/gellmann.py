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

Up to n = 12 (``_COMPLEX_EXPANSION_MAX``) :func:`expand_in_basis` and
:func:`reconstruct` are one complex product with the cached stack or its
weighted conjugate (:class:`ComplexOperands`).  Above it they run the
transform: S(i,j) and A(i,j) are half the sum and, turned by -1j, half
the difference of the entries (i, j) and (j, i), and the identity and D(d)
an (n, n) matrix times the diagonal.  Its kernels act in place on the rows
of an (n^2, c) array, so :mod:`tcm.product` runs them on each side of
R(m): O(n^2) work per column and no n^4-entry operand.
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
# and the transform above it.  The product's lead falls from about 60 % at
# n <= 7 to 12 % at n = 12, and it is behind from n = 13 on (the ladder is
# in CHANGES.md)
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


class ComplexOperands(NamedTuple):
    """``{identity} + basis(n)`` as two complex (n^2, n^2) matrices, for one n.

    ``stack`` is the flattened stack (row k is element k, row-major) and
    ``weighted`` is each row conjugated and divided by its squared norm, so
    that ``weighted @ vec(m)`` projects ``m`` and ``c @ stack`` evaluates the
    expansion ``c``.  Both are complex128 and read-only.
    """

    weighted: np.ndarray
    stack: np.ndarray


@lru_cache(maxsize=None)
def _complex_operands(n):
    """The :class:`ComplexOperands` of a checked ``n >= 1`` from the triplets,
    2 MB at n = 16: each row is a phase, 1 or 1j for A(i,j), times a real row."""
    k, i, j, value = _basis(n).triplets
    real = np.zeros((n * n, n * n))
    real[0, :: n + 1] = 1.0
    real[k + 1, i * n + j] = value.real + value.imag  # one of the two is zero
    phase = np.ones(n * n, dtype=np.complex128)
    phase[k[value.imag != 0] + 1] = 1j
    norms = np.append(n, np.full(n * n - 1, 2.0))
    operands = ComplexOperands((phase.conj() / norms)[:, None] * real, phase[:, None] * real)
    for a in operands:
        a.setflags(write=False)
    return operands


class Transform(NamedTuple):
    """``{identity} + basis(n)`` as an O(n^2) map on rows, for one n.

    The kernels act on the rows of an (n^2, c) array laid out by ``layout``,
    the vec index ``i*n + j`` of each row: the (i, j) of the P pairs i < j
    in canonical order, then their (j, i), then the n diagonal entries:
    disjoint blocks, so numpy writes one from another without a copy.
    :func:`_forward` leaves S(i,j) and A(i,j) of pair t in rows t and P + t,
    the identity and D(d) in the diagonal rows, and ``order`` lists these
    rows in canonical order.  ``stack`` is the (n, n) matrix of the identity
    and D(d) on the diagonal, ``weighted`` its rows over their squared
    norms.  All are read-only.
    """

    layout: np.ndarray
    order: np.ndarray
    weighted: np.ndarray
    stack: np.ndarray


@lru_cache(maxsize=None)
def _transform(n):
    """The :class:`Transform` of a checked ``n >= 1``, with the D(d) values of the triplets."""
    i, j, k, _, k_diagonal = _numbering(n)
    layout = np.concatenate((i * n + j, j * n + i, np.arange(n) * (n + 1)))
    order = np.argsort(np.concatenate((k + 1, k + 2, [0], k_diagonal + 1)))  # inverts the rows' canonical places
    t = _basis(n).triplets
    stack = np.zeros((n, n))
    stack[0] = 1.0
    stack[1:][np.tril_indices(n - 1, 1, n)] = t.value.real[t.i == t.j]  # the D(d), by d and then entry
    weighted = stack / np.append(n, np.full(n - 1, 2.0))[:, None]
    plan = Transform(layout, order, weighted, stack)
    for a in plan:
        a.setflags(write=False)
    return plan


def _forward(x, t):
    """Project in place the columns of the C-contiguous complex128 (n^2, c)
    ``x`` laid out by ``t``: with u, l the (i, j), (j, i) rows of a pair,
    S(i,j) = u/2 + l/2 and A(i,j) = -1j (l/2 - u/2), each weight inside
    the sum, so that a sum overflows only where its coefficient does, and
    the identity and D(d) are ``t.weighted`` times the diagonal rows."""
    half = (len(x) - len(t.stack)) // 2
    u, l, diagonal = x[:half], x[half:2 * half], x[2 * half:]
    x[:2 * half] *= 0.5
    difference = l - u
    u += l
    np.multiply(difference, -1j, out=l)
    diagonal[...] = (t.weighted @ diagonal.view(np.float64)).view(np.complex128)


def _adjoint(x, t):
    """Evaluate in place the coefficients that :func:`_forward` leaves in
    ``x``: rows (i, j) and (j, i) become ``S - 1j A`` and ``S + 1j A``, and
    the diagonal ``t.stack.T`` times the identity and D(d) coefficients."""
    half = (len(x) - len(t.stack)) // 2
    s, a, diagonal = x[:half], x[half:2 * half], x[2 * half:]
    turned = a * 1j
    np.add(s, turned, out=a)
    s -= turned
    diagonal[...] = (t.stack.T @ diagonal.view(np.float64)).view(np.complex128)


def _placed(x, rows):
    """A new C-contiguous complex128 array with row ``rows[r]`` set to row r of ``x``."""
    out = np.empty(x.shape, dtype=np.complex128)
    out[rows] = x
    return out


def expand_in_basis(m):
    """Expand the n x n ``m`` over ``{identity} + basis(n)`` by orthogonal
    projection.

    ``c0 = Tr(m) / n`` and ``c[k] = hs_inner(basis_k, m) / 2``.  Up to
    n = 12 that is one product with the cached weighted conjugate stack,
    ``weighted @ vec(m)``; above it the transform of a copy of ``vec(m)``,
    read in canonical order.  The input need not be hermitian, in which
    case coefficients are complex.
    """
    m = as_matrix(m)
    n = dimension(m.shape[0], 1)
    if m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match n={n}")
    if n <= _COMPLEX_EXPANSION_MAX:
        c = _complex_operands(n).weighted @ m.ravel()
    else:
        t = _transform(n)
        x = m.reshape(n * n, 1)[t.layout]
        _forward(x, t)
        c = x[t.order, 0]
    return BasisCoefficients(n=n, c0=complex(c[0]), c=c[1:])


def reconstruct(coeffs):
    """Evaluate ``c0 * identity(n) + sum_k c[k] * basis_k``: up to n = 12 as
    ``[c0, c] @ stack`` with the cached stack, above it by the adjoint
    transform of the coefficients, each put at its place."""
    n = dimension(coeffs.n, 1)
    c = np.asarray(coeffs.c, dtype=np.complex128)
    if c.shape != (n * n - 1,):
        raise ValueError(f"need {n * n - 1} coefficients for n={n}, got {c.shape}")
    extended = np.concatenate(([coeffs.c0], c))
    if n <= _COMPLEX_EXPANSION_MAX:
        return (extended @ _complex_operands(n).stack).reshape(n, n)
    t = _transform(n)
    x = _placed(extended[:, None], t.order)
    _adjoint(x, t)
    return _placed(x, t.layout).reshape(n, n)
