"""Exact solvers for Lie triple centralizers on generalized matrix algebras."""

from .algebra import (
    AlgebraElement,
    LinearOperator,
    StructureConstants,
    center,
    commutant,
    commutator,
    double_commutator,
    double_commutator_span,
    find_unit,
    jordan_product,
    largest_central_ideal,
    multiplication_operator,
)
from .centralizers import (
    BlockDecomposition,
    IdentityKind,
    block_decompose,
    build_from_blocks,
    corollary32_strengthen,
    is_identity_member,
    six_map_solution_space,
    six_maps_from_flat,
    solve_identity_space,
    verify_thm31_conditions,
)
from .derivations import (
    GLTDDecomposition,
    LTDDecomposition,
    Thm41HypothesisReport,
    check_gltd_correspondence,
    check_thm41_hypotheses,
    decompose_generalized_ltd,
    decompose_ltd,
)
from .gma import (
    GMA,
    Bimodule,
    MoritaContext,
    assemble,
    block_center,
    center_block_description,
    check_annihilating_conditions,
    context_of,
    eta_map,
    m2_of,
    peirce_from_idempotent,
)
from .linalg import Matrix, Subspace, kernel_of_rows, solve
from .properness import (
    Cor36Report,
    Infeasible,
    PropernessCertificate,
    PropernessFailure,
    central_vanishing_space,
    check_cor36_hypotheses,
    equivalence_audit,
    is_proper_direct,
    is_proper_thm33,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
