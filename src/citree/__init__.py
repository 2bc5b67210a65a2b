"""Exact computation of Lefschetz properties and central simple module
decompositions for complete intersections cut out by power sums and signed
elementary symmetric polynomials."""

__version__ = "0.1.0"

from .polyring import InvalidInput, ParseError, Polynomial, RingMismatch, RingSpec, parse_polynomial
from .ideals import (
    Ideal,
    NotArtinian,
    certify_regular_sequence,
    colon_by_variable_power,
    ideal_equal,
    ideal_sum,
    normal_form,
    quotient_dimension,
)
from .symfun import (
    boundary_polynomial,
    derivative_identity_check,
    newton_check,
    symmetric_generator,
    vanishing_sum_residual,
)
from .quotient import (
    QuotientAlgebra,
    RationalMatrix,
    build_quotient,
    mult_map_matrix,
)
from .lefschetz import (
    GradedModuleView,
    LefschetzReport,
    find_lefschetz_element,
    module_view,
    slp_check_algebra,
    slp_check_module,
)
from .csm import (
    CentralSimpleModule,
    CsmChain,
    central_simple_modules,
    csm_chain,
    cyclic_presentation,
    verify_chain_blocks,
    verify_colon_identity,
    verify_generator_swap,
    verify_mixed_family,
    verify_power_family,
    verify_terminal_csm,
)
from .tree import (
    FamilyMember,
    children,
    csm_diagram,
    exact_sequence_check,
    family_member,
    family_members,
    member_csm_arrows,
    verify_family_slp,
    verify_tree_conditions,
)
