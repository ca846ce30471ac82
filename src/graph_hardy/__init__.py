"""Hardy algebra of a finite directed graph.

Creation operators on the path Fock space, evaluation on the dual unit
ball, Pick/Schur interpolation kernels with per-vertex Choi tests,
coisometric system matrices with transfer functions and realization
from samples, and the Mobius/gauge automorphism machinery, all over an
arbitrary finite directed graph.
"""

from .graph_core import (
    ConditioningError,
    Graph,
    GraphError,
    build_graph,
    compose,
    fullness_flags,
    graph_to_dict,
    is_path,
    path_basis,
    path_range,
    path_source,
    two_vertex_example,
)
from .fock import (
    HardyPoly,
    certify_contraction,
    creation_matrix,
    cuntz_toeplitz_check,
    fock_basis,
    fock_norm_bound,
    hardy_mul,
    poly_from_terms,
    poly_to_terms,
    random_poly,
)
from .dual_eval import (
    BoundaryError,
    DualPoint,
    dual_norm,
    evaluate_poly,
    make_dual_point,
    point_from_dict,
    point_to_dict,
    random_point,
    resolvent_matrix,
    theta_matrix,
    zero_point,
)
from .pick_kernel import (
    CpMapMatrix,
    StructuralError,
    is_completely_positive,
    pick_feasibility,
    pick_map_matrix,
    schur_class_check,
    schur_kernel_matrix,
)
from .realization import (
    FeasibilityError,
    SystemMatrix,
    feasible_multiplicities,
    random_system,
    realize_from_samples,
    series_residual,
    system_from_dict,
    system_to_dict,
    taylor_extract,
    taylor_poly,
    transfer_eval,
    transfer_partial_sum,
    validate_system,
)
from .mobius import (
    CentralPoint,
    central_from_dict,
    central_to_dict,
    make_central_point,
    mobius_apply,
    mobius_colligation,
    mobius_congruence_matrix,
    mobius_matrix,
)
from .automorphism import (
    BimoduleUnitary,
    apply_alpha_u,
    diagonal_unitary,
    identity_unitary,
    kernel_ideal_check,
    mobius_alpha,
    pullback_evaluate,
    unitary_from_dict,
    unitary_to_dict,
)

__version__ = "0.1.0"
