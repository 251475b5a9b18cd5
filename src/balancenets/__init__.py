"""Potential theory for reaction-marked networks, from graphs to smooth fields.

The package checks when edge markings by permutation reactions admit a
node potential, builds the induced synchronous Markov dynamics, inspects
the operator semigroup driving long random products, and carries the same
potential question over to smooth fields of trace-free involutions.
"""

from .config import (
    BOUND_GRP,
    BOUND_STATES,
    REFERENCE_STEPS,
    TAU_ALG,
    TAU_FLD,
    TAU_NUM,
    RunConfig,
    read_json,
    trajectory_seed,
)
from .dynamics import (
    ChoiceDistribution,
    CoreSet,
    MarkovModel,
    ScanResult,
    TheoremBReport,
    build_markov,
    core_set,
    essential_check,
    limit_exists,
    max_nonergodicity_scan,
    stationary_count,
    theoremB_verify,
)
from .errors import (
    BalanceNetsError,
    BoundExceededError,
    DegeneratePlaneError,
    FieldDomainError,
    GroupMismatchError,
    NonPotentialError,
    ParityError,
    SingularSeedError,
    ValidationError,
)
from .groups import (
    GroupElement,
    ReactionGroup,
    StateSet,
    cyclic_group,
    group_to_json,
    load_group,
    orbit_count,
    pair_orbit_count,
    sign_group,
    solve_characteristic,
    solve_characteristic_pair,
    symmetric_group,
)
from .involution import (
    InvolutionMatrix,
    involution_from_seed,
    involution_log,
    seed_from_involution,
    spectral_projectors,
)
from .network import (
    Marking,
    Path,
    RelationGraph,
    StarMarking,
    StarPath,
    TwoStepGraph,
    bipartition,
    load_network,
    network_to_json,
    star_marking,
    two_coloring,
    two_step,
)
from .potential import (
    BalancePartition,
    CharacteristicReactions,
    PotentialFunction,
    PotentialVerdict,
    StarPotentialReport,
    balance_partition,
    balance_signs,
    balance_witness,
    check_A1,
    check_A2,
    complete_extension,
    gamma3_solution_family,
    generate_potential_fields,
    is_potential,
    partition_from_signs,
    product_integral,
    product_integral_star,
    sign_by_identity,
)
from .report import AnalysisReport, analyze_marking, run_full_analysis
from .semigroup import (
    ControlMatrix,
    IdealEnumeration,
    LeftIdeal,
    OperatorMatrix,
    ProductTrajectory,
    ReactionMatrix,
    control_matrices,
    enumerate_ideals,
    final_states,
    random_product_process,
    rho,
    star_product,
    theorem1_expected,
    theorem1_min_rank,
    word_index_map,
)
from .smoothfield import (
    ConicSectionFamily,
    ConvergenceReport,
    EdgeQuadratureRule,
    GraphEmbedding,
    InvolutionField,
    MatrixMarking,
    ParameterizedCurve,
    PlaneCoefficients,
    ResidualReport,
    convergence_report,
    discretize,
    infinitesimal_residual,
    load_embedding,
    p_integral,
    plane_rhs,
    plane_section_solution,
    project_point_to_section,
    project_to_plane,
    residual_orders,
    solve_ode_field,
    valid_parity_assignment,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """E2 and Z_SWAP, read from ``involution`` on demand: they are numpy arrays."""
    if name in ("E2", "Z_SWAP"):
        return getattr(involution, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name in dir() if not name.startswith("_")] + ["E2", "Z_SWAP"])
