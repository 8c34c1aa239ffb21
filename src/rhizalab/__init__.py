"""Exact-rational workbench for twisted splittings of anti-associative products."""

from .algmodel import (
    BilinearOp,
    HomAlgebra,
    LinearMap,
    parse_algebra,
    serialize_algebra,
    star_product,
    sum_product,
)
from .axioms import (
    CheckReport,
    Violation,
    check_alpha_derivation,
    check_dendriform,
    check_hom_anti_associative,
    check_jacobi_jordan,
    check_multiplicativity,
    check_pre_jacobi_jordan,
    check_rhizaform,
    inner_derivation,
    pre_jacobi_jordan_product,
    subadjacent_bracket,
)
from .cocycles import (
    ScalarForm,
    VectorForm,
    is_nondegenerate,
    rhizaform_from_cocycle,
    scalar_cocycle_space,
    vector_cocycle_space,
)
from .errors import (
    DimensionMismatch,
    MissingProduct,
    NotACocycle,
    NotAnOOperator,
    ParseError,
    RhizalabError,
    Singular,
    UnboundParameter,
    UnknownEntry,
)
from .exactlin import Matrix, invert, nullspace_basis, rational, rational_str, rref
from .family import (
    FamilyAlgebra,
    RBFamily,
    Semigroup,
    associated_family,
    check_anti_associative_family,
    check_rb_family,
    check_rhizaform_family,
    check_semigroup,
    induced_family_rhizaform,
    tensor_collapse,
)
from .nilpotency import (
    Subspace,
    analyze,
    check_2_nilpotent,
    check_onesided_nilpotency_theorem,
    check_series_equality,
    diamond,
    full_series,
    is_left_nilpotent,
    is_nilpotent,
    is_right_nilpotent,
    left_series,
    right_series,
)
from .operators import (
    Bimodule,
    LinearOperator,
    check_bimodule,
    check_homomorphism,
    check_o_operator,
    check_rota_baxter,
    compatible_from_invertible_o_operator,
    dual_bimodule,
    induced_rhizaform_from_o_operator,
    induced_rhizaform_from_rb,
    regular_bimodule,
    rhizaform_bimodule,
)

__version__ = "0.1.0"
