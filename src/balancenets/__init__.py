"""Potential theory for reaction-marked networks, from graphs to smooth fields.

The package checks when edge markings by permutation reactions admit a
node potential, builds the induced synchronous Markov dynamics, inspects
the operator semigroup driving long random products, and carries the same
potential question over to smooth fields of trace-free involutions.

Importing the package runs none of its modules: each public name is read
from its home module on first use, so a command runs only what it needs.
"""

import importlib

__version__ = "0.1.0"

# Home module -> the public names it defines.
_EXPORTS = {
    "config": """BOUND_GRP BOUND_STATES REFERENCE_STEPS TAU_ALG TAU_FLD TAU_NUM RunConfig
        read_json trajectory_seed""",
    "dynamics": """ChoiceDistribution CoreSet MarkovModel ScanResult TheoremBReport build_markov
        core_set essential_check limit_exists max_nonergodicity_scan stationary_count
        theoremB_verify""",
    "errors": """BalanceNetsError BoundExceededError DegeneratePlaneError FieldDomainError
        GroupMismatchError NonPotentialError ParityError SingularSeedError ValidationError""",
    "groups": """GroupElement ReactionGroup StateSet cyclic_group group_to_json load_group
        orbit_count pair_orbit_count sign_group solve_characteristic
        solve_characteristic_pair symmetric_group""",
    "involution": """E2 Z_SWAP InvolutionMatrix involution_from_seed involution_log
        seed_from_involution spectral_projectors""",
    "network": """Marking Path RelationGraph StarMarking StarPath TwoStepGraph load_network
        network_to_json star_marking two_coloring""",
    "potential": """CharacteristicReactions PotentialFunction PotentialVerdict
        StarPotentialReport balance_signs check_A1 check_A2 complete_extension
        gamma3_solution_family generate_potential_fields is_potential product_integral
        sign_by_identity""",
    "report": "analyze_marking run_full_analysis",
    "semigroup": """ControlMatrix IdealEnumeration LeftIdeal OperatorMatrix ProductTrajectory
        ReactionMatrix control_matrices enumerate_ideals final_states
        random_product_process rho star_product theorem1_expected theorem1_min_rank
        word_index_map""",
    "smoothfield": """ConicSectionFamily ConvergenceReport EdgeQuadratureRule GraphEmbedding
        InvolutionField MatrixMarking ParameterizedCurve PlaneCoefficients ResidualReport
        convergence_report discretize infinitesimal_residual load_embedding p_integral
        plane_rhs plane_section_solution project_point_to_section project_to_plane
        residual_orders solve_ode_field valid_parity_assignment""",
}
# Public name -> home module; a module's own name maps to itself.
_HOME = {name: home for home, names in _EXPORTS.items() for name in [home, *names.split()]}


def __getattr__(name: str):
    """A public name, read from its home module and kept here; E2 and
    Z_SWAP are numpy arrays that ``involution`` builds per read."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{home}", __name__)
    if name != home:
        value = getattr(value, name)
    if name not in ("E2", "Z_SWAP"):
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


__all__ = sorted(_HOME)
