"""Tensor commutation (swap) matrices and generalized Gell-Mann bases.

Builds the pq x pq swap matrix exchanging the factors of a tensor product
by two independent constructions, generates the generator basis for any
dimension n >= 2, and decomposes operators over single and product
generator bases by Hilbert-Schmidt projection.
"""

from .matops import DEFAULT_ABS_EPS, hs_inner, identity, max_abs_diff
from .gellmann import (
    BasisCoefficients,
    GellMannBasis,
    Triplets,
    basis,
    expand_in_basis,
    reconstruct,
)
from .swap import SwapMatrix, swap_by_formula, swap_by_rule
from .product import (
    ClosedFormReport,
    ProductCoefficients,
    closed_form_swap_coefficients,
    decompose_product,
    diagonal_family_reference,
    diagonal_family_sum,
    extended_labels,
    identity_errors,
    offdiag_family_reference,
    offdiag_family_sum,
    reconstruct_product,
    verify_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ABS_EPS",
    "BasisCoefficients",
    "ClosedFormReport",
    "GellMannBasis",
    "ProductCoefficients",
    "SwapMatrix",
    "Triplets",
    "basis",
    "closed_form_swap_coefficients",
    "decompose_product",
    "diagonal_family_reference",
    "diagonal_family_sum",
    "expand_in_basis",
    "extended_labels",
    "hs_inner",
    "identity",
    "identity_errors",
    "max_abs_diff",
    "offdiag_family_reference",
    "offdiag_family_sum",
    "reconstruct",
    "reconstruct_product",
    "swap_by_formula",
    "swap_by_rule",
    "verify_closed_form",
]
