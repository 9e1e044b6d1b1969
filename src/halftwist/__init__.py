"""Exact eigenspace-graded Hodge data of cyclic covers of projective
space, the half-twist calculus on CM Hodge structures, and a ledger of
recorded dimension claims verified by recomputation."""

from .cyclotomic import (
    CyclotomicData,
    InvariantError,
    InvalidDegreeError,
    make_cyclotomic,
)
from .hodge import (
    AbelianSummary,
    CMHodgeStructure,
    EmptyStructureError,
    FieldMismatchError,
    MalformedStructureError,
    NoHalfTwistError,
    NotWeightOneError,
    TwistRangeError,
    abelian_summary,
    collapse_residues,
    direct_sum,
    has_positive_half_twist,
    k_minus_half,
    level,
    neg_half_twist,
    pos_half_twist,
    tate_twist,
    tensor,
    tensor_invariants,
)
from .jacobian import (
    GradedQuotient,
    UnsupportedCaseError,
    build_w_quotient,
    count_bounded_monomials,
    cover_variables,
    eigenspace_dims,
    primitive_hodge_column,
    primitive_middle_rank,
    sparse_rank,
    torelli_deformation_dimension,
    torelli_differential_rank,
    torelli_rank_by_elimination,
    torelli_witness_nonzero,
    verify_cover_parametrization,
    w_ladder_steps,
)
from .covers import (
    CoverSpec,
    QTDecomposition,
    build_W,
    curve_h1,
    degree_bound_printed,
    dim_identity_terms,
    euler_recursion_rank,
    fermat_gamma_invariants,
    gamma_invariant_h1_dimension,
    half_twist_any_cmtype,
    half_twist_exists_derived,
    half_twist_exists_direct,
    half_twist_exists_printed,
    ks_invariant_space,
    order_part_as_substructure,
    primitive_V,
    qt_decompose,
    quartic_W_split,
    quartic_isogeny_report,
    secondary_parts,
    z_decomposition,
)
from .claims import Claim, VerificationReport, all_claims, run_verification

__version__ = "0.1.0"
