"""Exact computations for sl2 fusion modules and their Schubert varieties.

The package realizes fusion modules of the sl2 current algebra inside
finite wedge models, computes type decompositions and Poincare polynomials
of the associated Schubert varieties, evaluates the line-bundle calculus on
them, and decomposes large-weight limits in the level-k Verlinde algebra.
All core arithmetic is exact and fraction-free on Python ints: span
closures, the flag model and its group elements, which keep int numerators
over one common denominator.  The command line front end reports results
and internal cross-checks as JSON.
"""

from .fusion import (
    DimensionCapError,
    build_module,
    build_submodule,
    character,
    character_recursive,
    check_relations,
    exact_sequence_check,
    factor_shapes,
    monomial_basis,
    quotient_weights,
)
from .schubert import (
    bundle_split,
    canonical_flag,
    coordinate_ring_dims,
    curve_degrees,
    flag_conditions,
    flag_membership,
    isomorphic,
    line_bundle_exists,
    morphism_exists,
    picard_rank,
    sections_dim,
)
from .types import (
    Composition,
    PoincarePolynomial,
    canonical_A,
    compositions,
    leq,
    poincare,
    poincare_recursive_single,
    type_of,
)
from .verlinde import (
    FusionRingElement,
    character_stabilization,
    fuse,
    limit_multiplicities,
    product_chain,
)

__all__ = [
    "DimensionCapError",
    "build_module",
    "build_submodule",
    "character",
    "character_recursive",
    "check_relations",
    "exact_sequence_check",
    "factor_shapes",
    "monomial_basis",
    "quotient_weights",
    "bundle_split",
    "canonical_flag",
    "coordinate_ring_dims",
    "curve_degrees",
    "flag_conditions",
    "flag_membership",
    "isomorphic",
    "line_bundle_exists",
    "morphism_exists",
    "picard_rank",
    "sections_dim",
    "Composition",
    "PoincarePolynomial",
    "canonical_A",
    "compositions",
    "leq",
    "poincare",
    "poincare_recursive_single",
    "type_of",
    "FusionRingElement",
    "character_stabilization",
    "fuse",
    "limit_multiplicities",
    "product_chain",
]

__version__ = "0.1.0"
