"""Decomposition of pq x pq operators over the product generator basis.

The product basis is ``{I_p, G_1, ..., G_{p^2-1}} (x) {I_q, H_1, ...}``
with G, H the generator bases of the two factors.  Coefficients are
recovered by Hilbert-Schmidt projection: each basis element is orthogonal
to the others, with squared norm n for the identity of dimension n and 2
for every generator, so every grid cell is an independent projection.

All cells are computed at once through the Van Loan-Pitsianis
rearrangement (Van Loan & Pitsianis 1993, "Approximation with Kronecker
products").  Writing composite indices as ``(i1, i2)``, the realignment

    R(m)[(i1, j1), (i2, j2)] = m[(i1, i2), (j1, j2)]

maps ``kron(A_a, B_b)`` to the rank-one ``outer(vec(A_a), vec(B_b))``, so
with A, B the stacks of vectorized factor bases the projection is
``grid = conj(A) @ R(m) @ conj(B).T / outer(norms_p, norms_q)`` and the
reconstruction is ``R^-1(A.T @ grid @ B)``.  The operands are cached,
read-only, per factor size; nothing is cached per (p, q) pair.  Two
kernels compute these products, chosen by the operator's size pq:

* up to pq = 16 (``_COMPLEX_PRODUCT_MAX``), two complex products with
  the weights inside the operand, ``C = conj(A) / norms``
  (:class:`~tcm.gellmann.ComplexOperands`): ``grid = C_p @ R(m) @ C_q.T``
  and ``R^-1(A_p.T @ grid @ A_q)``.  At these sizes a product costs less
  than the elementwise passes that the real kernel adds;
* above it, real products.  Every row of A is real or purely imaginary,
  ``A = phase[:, None] * Q`` with Q real
  (:class:`~tcm.gellmann.RealOperands`), so ``grid = w_p[:, None] *
  (Q_p @ R(m) @ Q_q.T) * w_q`` with the weights ``w = conj(phase) /
  norms``, and the reconstruction applies the phases to the grid, then
  ``Q_p.T`` and ``Q_q``.  Each product is one float64 product on the
  interleaved real and imaginary parts of a complex array, half the work
  of a complex product with real factors, and there is no p^2 x q^2 norm
  grid and no complex division.  The realigned input is copied once,
  transposed, into a buffer that also takes the inner product's
  transpose, and the second product is written into the grid.

Either kernel hands its grid to :class:`ProductCoefficients` without a
copy.

For equal factors the swap matrix has the closed-form expansion

    swap(n, n) = (1/n) I (x) I + (1/2) sum_k G_k (x) G_k

exposed as a coefficient grid by :func:`closed_form_swap_coefficients`
and checked numerically by :func:`verify_closed_form`.  The per-family
sums behind that expansion (`offdiag_family_sum`, `diagonal_family_sum`)
are provided together with their condensed elementary-matrix forms so the
identity can be audited piecewise.

Every term of these identities is a list of cells: a flat key
``row * n^2 + col`` and a complex128 value.  Each sum of squares
``sum_k kron(G_k, G_k)`` is formed from the (k, i, j, value) triplets of
``basis(n)``: every ordered pair of one generator's at most n nonzeros
gives one cell, O(n^3) work in all, with no matrix product.  A family is
the subset of the triplets on the diagonal, or off it.  The public sums
and references add their cells into a dense (n^2, n^2) array; the checks
(:func:`verify_closed_form`, :func:`identity_errors`) never do: they
concatenate the cells of the sum with those of the right-hand side,
negated, coalesce equal keys and take the largest modulus, so they hold
O(n^3) entries and no n^4-entry array.  The condensed forms are placed
from their own formulas, so each sum is still checked against an
independent computation.
"""

from dataclasses import dataclass

import numpy as np

from .matops import DEFAULT_ABS_EPS, as_matrix, dimension
from .gellmann import Triplets, _basis, _complex_operands, _real_operands, basis

# decompose_product and reconstruct_product take the complex products up to
# this pq and the real ones above it.  The complex kernel's lead falls from
# about 30 % at 2 (x) 2 to a few % at pq = 25, and it is behind from 6 (x) 6
# on (the ladder is in CHANGES.md)
_COMPLEX_PRODUCT_MAX = 16


@dataclass(frozen=True, eq=False)
class ProductCoefficients:
    """p^2 x q^2 coefficient grid over the product basis.

    Index 0 on each axis is the identity; indices 1..n^2-1 follow the
    canonical generator order of the corresponding factor.  Compares and
    hashes by identity.
    """

    p: int
    q: int
    grid: np.ndarray

    def __post_init__(self):
        p, q = dimension(self.p, 1), dimension(self.q, 1)
        grid = np.array(self.grid, dtype=np.complex128)  # owned: the caller's array stays theirs
        expected = (p * p, q * q)
        if grid.shape != expected:
            raise ValueError(f"grid shape must be {expected}, got {grid.shape}")
        self._store(p, q, grid)

    @classmethod
    def _adopt(cls, p, q, grid):
        """Wrap a freshly built complex128 (p^2, q^2) ``grid`` that owns its
        data, for checked p and q, without a copy."""
        if grid.dtype != np.complex128 or grid.base is not None or grid.shape != (p * p, q * q):
            raise ValueError(f"only an owned complex128 grid of shape {(p * p, q * q)} can be adopted")
        coeffs = object.__new__(cls)
        coeffs._store(p, q, grid)
        return coeffs

    def _store(self, p, q, grid):
        """Make the owned ``grid`` read-only and store the three fields."""
        grid.setflags(write=False)
        fields = vars(self)  # frozen; cheaper than three object.__setattr__ calls
        fields["p"], fields["q"], fields["grid"] = p, q, grid


@dataclass(frozen=True)
class ClosedFormReport:
    """Outcome of one closed-form swap check."""

    n: int
    max_error: float
    passed: bool


def extended_labels(n):
    """Axis labels for a coefficient grid: ``I`` then S/A/D notation."""
    n = dimension(n, 1)
    return ["I", *_basis(n).labels]


def _real_products(first, second, buffer):
    """``second @ (first @ buffer).T`` for float64 ``first`` and ``second``
    and an owned, C-contiguous complex128 ``buffer``.

    Each product is one float64 product on the interleaved real and
    imaginary parts of its complex operand.  The transpose in between is
    written into ``buffer``, so at most one more array of its size is live
    next to it, and the second product into a new complex128 array that
    owns its data, through its float64 view.
    """
    inner = buffer.reshape(buffer.shape[::-1])
    inner[...] = (first @ buffer.view(np.float64)).view(np.complex128).T
    out = np.empty((second.shape[0], inner.shape[1]), dtype=np.complex128)
    np.matmul(second, inner.view(np.float64), out=out.view(np.float64))
    return out


def decompose_product(m, p, q):
    """Project ``m`` onto the product basis of dimensions p and q.

    Cell (a, b) is ``hs_inner(kron(A_a, B_b), m)`` divided by the product
    of the factors' squared norms.  Up to pq = 16 that is ``(C_p R(m)
    C_q^T)[a, b]``, two complex products with the weights inside the
    cached operands ``C = conj(A) / norms``.  Above it, with ``A_a =
    phase_a Q_a``, it is ``w_a (Q_p R(m) Q_q^T)[a, b] w_b`` with the weights
    ``w = conj(phase) / norms``: two float64 products on one copy of
    ``R(m)^T``, then both factors' weights in place.  Entries near the
    float64 limit can overflow: such cells are inf or NaN, and whether
    numpy also warns depends on the kernel.
    """
    p, q = dimension(p, 1), dimension(q, 1)
    m = as_matrix(m)
    if m.shape != (p * q, p * q):
        raise ValueError(f"matrix shape {m.shape} does not match p*q = {p * q}")
    if p * q <= _COMPLEX_PRODUCT_MAX:
        # R(m)[(i1, j1), (i2, j2)] = m[(i1, i2), (j1, j2)]
        rm = m.reshape(p, q, p, q).transpose(0, 2, 1, 3).reshape(p * p, q * q)
        grid = _complex_operands(p).weighted @ rm @ _complex_operands(q).weighted.T
    else:
        a, b = _real_operands(p), _real_operands(q)
        # R(m)^T[(i2, j2), (i1, j1)] = m[(i1, i2), (j1, j2)], copied, as the
        # products overwrite it and at p = 1 or q = 1 the transpose alone is
        # a view of m; passed unnamed, it is freed when the products return
        rt = m.reshape(p, q, p, q).transpose(1, 3, 0, 2)
        grid = _real_products(b.real, a.real, rt.copy().reshape(q * q, p * p))
        grid *= a.weights[:, None]
        grid *= b.weights
    return ProductCoefficients._adopt(p, q, grid)


def reconstruct_product(coeffs):
    """Evaluate ``sum_ab grid[a, b] * kron(A_a, B_b)``.

    Up to pq = 16 that is ``R^-1(A_p^T grid A_q)``, two complex products
    with the cached stacks.  Above it, with ``A_a = phase_a Q_a``, it is
    ``R^-1(Q_p^T (phase_a phase_b grid[a, b]) Q_q)``: a copy of the grid
    times both factors' phases, then two float64 products, which give
    ``R(m)^T``, unrealigned into that copy.
    """
    p, q = coeffs.p, coeffs.q  # checked by ProductCoefficients
    if p * q <= _COMPLEX_PRODUCT_MAX:
        r = _complex_operands(p).stack.T @ coeffs.grid @ _complex_operands(q).stack
        return r.reshape(p, p, q, q).transpose(0, 2, 1, 3).reshape(p * q, p * q)
    a, b = _real_operands(p), _real_operands(q)
    buffer = coeffs.grid * a.phase[:, None]
    buffer *= b.phase
    rt = _real_products(a.real.T, b.real.T, buffer)
    m = buffer.reshape(p * q, p * q)
    m.reshape(p, q, p, q)[...] = rt.reshape(q, q, p, p).transpose(2, 0, 3, 1)
    return m


def closed_form_swap_coefficients(n):
    """Coefficient grid of ``swap(n, n)``: 1/n at (0,0), 1/2 on the diagonal."""
    n = dimension(n, 2)
    grid = np.zeros((n * n, n * n), dtype=np.complex128)
    np.fill_diagonal(grid, 0.5)
    grid[0, 0] = 1.0 / n
    return ProductCoefficients._adopt(n, n, grid)


def _pair_products(triplets, n):
    """The cells of ``sum_k kron(M_k, M_k)`` from the entries of the M_k.

    ``kron(M, M)`` holds ``M[i1, j1] * M[i2, j2]`` at row ``i1*n + i2``,
    column ``j1*n + j2``, so every ordered pair (a, b) of one matrix's
    entries adds one product at one place.  Returns the flat keys
    ``row * n^2 + col`` and the products of the pairs of all matrices:
    O(sum_k nnz_k^2) work, which is O(n^3) for the generators (at most n
    nonzeros each), with no matrix product.  ``triplets`` must be sorted by
    matrix.
    """
    k, i, j, value = triplets
    counts = np.bincount(k)
    first = np.cumsum(counts) - counts
    group = counts[k]
    # a repeats each entry once per entry of its matrix, and b steps
    # through that matrix's entries alongside: every ordered pair once.
    a = np.repeat(np.arange(k.size), group)
    step = np.arange(a.size) - np.repeat(np.cumsum(group) - group, group)
    b = first[k[a]] + step
    keys = (i[a] * n + i[b]) * (n * n) + j[a] * n + j[b]
    return keys, value[a] * value[b]


def _largest_residual(cells, reference):
    """Largest modulus of the (keys, values) ``cells`` minus ``reference``.

    Both go into one list, the reference negated; the values of one key
    are summed and the largest modulus returned.  A NaN propagates.
    """
    keys, values = cells
    ref_keys, ref_values = reference
    _, where = np.unique(np.concatenate((keys, ref_keys)), return_inverse=True)
    values = np.concatenate((values, -ref_values))
    re = np.bincount(where, weights=values.real)
    im = np.bincount(where, weights=values.imag)
    return float(np.max(np.hypot(re, im)))


def _family(n, diagonal):
    """The entries of the D generators of ``basis(n)``, or of the S/A ones.

    The D generators are the diagonal ones, and no S or A entry lies on
    the diagonal, so a family is the entries with ``i == j`` or the rest.
    """
    t = basis(n).triplets
    pick = (t.i == t.j) == diagonal
    return Triplets(*(a[pick] for a in t))


def _render(cells, n):
    """Add the (keys, values) ``cells`` into a zeroed (n^2, n^2) array."""
    keys, values = cells
    out = np.zeros(n ** 4, dtype=np.complex128)
    np.add.at(out, keys, values)
    return out.reshape(n * n, n * n)


def offdiag_family_sum(n):
    """``sum_{i<j} kron(S_ij, S_ij) + kron(A_ij, A_ij)``."""
    return _render(_pair_products(_family(n, diagonal=False), n), n)


def _offdiag_reference_cells(n):
    """Cells of the condensed pair-family sum ``2 sum_{i!=j} kron(E_ij, E_ji)``.

    ``kron(E_ij, E_ji)`` has its one 1 at row ``i*n + j``, column
    ``j*n + i`` (0-based).
    """
    n = dimension(n, 2)
    i, j = np.divmod(np.arange(n * n), n)
    pair = i != j
    keys = ((i * n + j) * (n * n) + j * n + i)[pair]
    return keys, np.full(keys.size, 2.0, dtype=np.complex128)


def offdiag_family_reference(n):
    """Condensed form of the pair-family sum: ``2 sum_{i!=j} kron(E_ij, E_ji)``,
    placed entry by entry."""
    return _render(_offdiag_reference_cells(n), n)


def diagonal_family_sum(n):
    """``sum_{d=1..n-1} kron(D_d, D_d)``."""
    return _render(_pair_products(_family(n, diagonal=True), n), n)


def _diagonal_reference_cells(n):
    """Cells of the condensed diagonal-family sum
    ``-(2/n) I + 2 sum_i kron(E_ii, E_ii)``: every diagonal cell, with 2
    more at ``kron(E_ii, E_ii)``'s diagonal index ``i*(n+1)`` (0-based)."""
    n = dimension(n, 2)
    values = np.full(n * n, -2.0 / n, dtype=np.complex128)
    values[np.arange(n) * (n + 1)] += 2.0
    return np.arange(n * n) * (n * n + 1), values


def diagonal_family_reference(n):
    """Condensed diagonal-family sum: ``-(2/n) I + 2 sum_i kron(E_ii, E_ii)``,
    placed entry by entry."""
    return _render(_diagonal_reference_cells(n), n)


def _closed_form_cells(n):
    """Cells of the closed form's right-hand side ``2 swap(n, n) - (2/n) I``:
    2 at each one of the swap, -2/n on the diagonal.  The swap's n ones on
    the diagonal share their keys with it; these cells are only coalesced,
    never rendered."""
    from .swap import swap_by_formula

    size = n * n
    diag = np.arange(size)
    keys = np.concatenate((swap_by_formula(n, n).perm * size + diag, diag * (size + 1)))
    return keys, np.repeat(np.array([2.0, -2.0 / n], dtype=np.complex128), size)


def verify_closed_form(n):
    """Check ``sum_k kron(G_k, G_k) == 2*swap(n,n) - (2/n) I`` within
    ``DEFAULT_ABS_EPS``.

    The pair products of the sum and the cells of the right-hand side are
    coalesced cell by cell, so nothing of n^4 entries is built.  A NaN
    anywhere fails the check.
    """
    n = basis(n).n  # the checked int
    err = _largest_residual(_pair_products(basis(n).triplets, n), _closed_form_cells(n))
    return ClosedFormReport(n=n, max_error=err, passed=err <= DEFAULT_ABS_EPS)


def identity_errors(n):
    """Largest residuals of the closed form, the pair-family sum and the
    diagonal-family sum at dimension n.

    Each generator's pair products are formed once.  Each family's are
    checked against the cells of its condensed reference, and their union
    against the closed form's right-hand side, as in
    :func:`verify_closed_form`.  A NaN propagates.
    """
    off = _pair_products(_family(n, diagonal=False), n)
    diag = _pair_products(_family(n, diagonal=True), n)
    both = tuple(np.concatenate(parts) for parts in zip(off, diag))
    return (
        _largest_residual(both, _closed_form_cells(n)),
        _largest_residual(off, _offdiag_reference_cells(n)),
        _largest_residual(diag, _diagonal_reference_cells(n)),
    )

