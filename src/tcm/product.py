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
reconstruction is ``R^-1(A.T @ grid @ B)``.

For equal factors the swap matrix has the closed-form expansion

    swap(n, n) = (1/n) I (x) I + (1/2) sum_k G_k (x) G_k

exposed as a coefficient grid by :func:`closed_form_swap_coefficients`
and checked numerically by :func:`verify_closed_form`.  The per-family
sums behind that expansion (`offdiag_family_sum`, `diagonal_family_sum`)
are provided together with their condensed elementary-matrix forms so the
identity can be audited piecewise.  The same realignment turns each sum of
squares ``sum_k kron(G_k, G_k)`` into ``R^-1(V.T @ V)`` with V the stack
of vectorized generators; the condensed forms are placed entry by entry,
so each sum is still checked against an independent computation.
"""

from dataclasses import dataclass

import numpy as np

from .matops import DEFAULT_ABS_EPS, as_matrix, identity, max_abs_diff
from .gellmann import DIAGONAL, basis, extended_stack


@dataclass(frozen=True)
class ProductCoefficients:
    """p^2 x q^2 coefficient grid over the product basis.

    Index 0 on each axis is the identity; indices 1..n^2-1 follow the
    canonical generator order of the corresponding factor.
    """

    p: int
    q: int
    grid: np.ndarray

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError(f"factor dimensions must be positive, got p={self.p}, q={self.q}")
        grid = np.asarray(self.grid, dtype=np.complex128)
        expected = (self.p * self.p, self.q * self.q)
        if grid.shape != expected:
            raise ValueError(f"grid shape must be {expected}, got {grid.shape}")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True)
class ClosedFormReport:
    """Outcome of one closed-form swap check."""

    n: int
    max_error: float
    abs_eps: float
    passed: bool


def _realign(m, p, q):
    """``R(m)``: the (p^2, q^2) rearrangement of a pq x pq matrix."""
    return m.reshape(p, q, p, q).transpose(0, 2, 1, 3).reshape(p * p, q * q)


def _unrealign(r, p, q):
    """Inverse of :func:`_realign`."""
    return r.reshape(p, p, q, q).transpose(0, 2, 1, 3).reshape(p * q, p * q)


def extended_labels(n):
    """Axis labels for a coefficient grid: ``I`` then S/A/D notation."""
    labels = ["I"]
    if n >= 2:
        labels.extend(str(label) for label in basis(n).labels)
    return labels


def decompose_product(m, p, q):
    """Project ``m`` onto the product basis of dimensions p and q.

    Cell (a, b) is ``hs_inner(kron(A_a, B_b), m)`` divided by the product
    of the factors' squared norms; the whole grid comes from two matrix
    products on the realigned ``m``.
    """
    m = as_matrix(m)
    if m.shape != (p * q, p * q):
        raise ValueError(f"matrix shape {m.shape} does not match p*q = {p * q}")
    a_stack, a_norms = extended_stack(p)
    b_stack, b_norms = extended_stack(q)
    grid = a_stack.conj() @ _realign(m, p, q) @ b_stack.conj().T
    return ProductCoefficients(p=p, q=q, grid=grid / np.outer(a_norms, b_norms))


def reconstruct_product(coeffs):
    """Evaluate ``sum_ab grid[a, b] * kron(A_a, B_b)``."""
    p, q = coeffs.p, coeffs.q
    a_stack, _ = extended_stack(p)
    b_stack, _ = extended_stack(q)
    return _unrealign(a_stack.T @ coeffs.grid @ b_stack, p, q)


def closed_form_swap_coefficients(n):
    """Coefficient grid of ``swap(n, n)``: 1/n at (0,0), 1/2 on the diagonal."""
    if n < 2:
        raise ValueError(f"closed form needs n >= 2, got {n}")
    grid = np.zeros((n * n, n * n), dtype=np.complex128)
    grid[0, 0] = 1.0 / n
    for k in range(1, n * n):
        grid[k, k] = 0.5
    return ProductCoefficients(p=n, q=n, grid=grid)


def _sum_kron_squares(matrices, n):
    """``sum_k kron(M_k, M_k)`` over a (k, n, n) stack, as ``R^-1(V.T @ V)``.

    ``R(kron(A, A)) = outer(vec(A), vec(A))``, so with V the (k, n^2)
    stack of ``vec(M_k)`` the whole sum is one product, realigned back.
    """
    v = np.reshape(matrices, (len(matrices), n * n))
    return _unrealign(v.T @ v, n, n)


def _family(n, diagonal):
    """The D generators of ``basis(n)``, or the S/A ones, as one stack."""
    b = basis(n)
    return b.matrices[[(label.kind == DIAGONAL) == diagonal for label in b.labels]]


def offdiag_family_sum(n):
    """``sum_{i<j} kron(S_ij, S_ij) + kron(A_ij, A_ij)``."""
    return _sum_kron_squares(_family(n, diagonal=False), n)


def offdiag_family_reference(n):
    """Condensed form of the pair-family sum: ``2 sum_{i!=j} kron(E_ij, E_ji)``.

    ``kron(E_ij, E_ji)`` has its one 1 at row ``i*n + j``, column
    ``j*n + i`` (0-based), so the sum is placed entry by entry.
    """
    if n < 2:
        raise ValueError(f"family sums need n >= 2, got {n}")
    i, j = np.divmod(np.arange(n * n), n)
    pair = i != j
    out = np.zeros((n * n, n * n), dtype=np.complex128)
    out[(i * n + j)[pair], (j * n + i)[pair]] = 2.0
    return out


def diagonal_family_sum(n):
    """``sum_{d=1..n-1} kron(D_d, D_d)``."""
    return _sum_kron_squares(_family(n, diagonal=True), n)


def diagonal_family_reference(n):
    """Condensed diagonal-family sum: ``-(2/n) I + 2 sum_i kron(E_ii, E_ii)``.

    ``kron(E_ii, E_ii)`` is the 1 at diagonal index ``i*(n+1)`` (0-based).
    """
    if n < 2:
        raise ValueError(f"family sums need n >= 2, got {n}")
    out = -(2.0 / n) * identity(n * n)
    diag = np.arange(n) * (n + 1)
    out[diag, diag] += 2.0
    return out


def verify_closed_form(n, abs_eps=DEFAULT_ABS_EPS):
    """Check ``sum_k kron(G_k, G_k) == 2*swap(n,n) - (2/n) I`` numerically."""
    from .swap import swap_by_formula

    lhs = _sum_kron_squares(basis(n).matrices, n)
    rhs = 2.0 * swap_by_formula(n, n).dense() - (2.0 / n) * identity(n * n)
    err = max_abs_diff(lhs, rhs)
    return ClosedFormReport(n=n, max_error=err, abs_eps=abs_eps, passed=err <= abs_eps)


def _six_term_pairs():
    """The (3-factor, 2-factor) pairs of the six-term 3 (x) 2 swap expression.

    Each pair is an elementary 6 x 6 matrix of the swap written as the
    tensor product of its factor expansions over {I_3, lambda} and
    {I_2, sigma}.
    """
    i2, i3 = identity(2), identity(3)
    s1, s2, s3 = basis(2).matrices
    l = basis(3).matrices  # l[0] = lambda_1, ..., l[7] = lambda_8
    rt3 = np.sqrt(3.0)
    return [
        (i3 / 3 + l[2] / 2 + rt3 / 6 * l[7], i2 / 2 + s3 / 2),
        (l[0] / 2 + 0.5j * l[1], s1 / 2 - 0.5j * s2),
        (l[5] / 2 + 0.5j * l[6], i2 / 2 + s3 / 2),
        (l[0] / 2 - 0.5j * l[1], i2 / 2 - s3 / 2),
        (l[5] / 2 - 0.5j * l[6], s1 / 2 + 0.5j * s2),
        (i3 / 3 - rt3 / 3 * l[7], i2 / 2 - s3 / 2),
    ]


def _six_term_expression(three_first):
    """Evaluate the six terms literally, with the 3-factor outer or inner.

    With the 3-factor inner, the two factors of each term trade places and
    are transposed (which negates the antisymmetric generators and keeps
    the others); the terms are then those of the 2 (x) 3 swap,
    ``swap(3, 2).T``.
    """
    if three_first:
        terms = [np.kron(a, b) for a, b in _six_term_pairs()]
    else:
        terms = [np.kron(b.T, a.T) for a, b in _six_term_pairs()]
    return sum(terms)


def swap_32_expression():
    """Six-term product-generator expression equal to the 3 (x) 2 swap."""
    return _six_term_expression(three_first=True)


def swap_23_expression():
    """Six-term product-generator expression equal to the 2 (x) 3 swap."""
    return _six_term_expression(three_first=False)
