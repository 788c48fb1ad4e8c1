"""Classical simulation of circuits built from tractable states and sparse
conjugated observables (IQP, Clifford magic, conjugated Clifford, constant
depth) under local depolarizing noise, with a dense small-n oracle."""

from .circuits import (
    CLIFFORD_MAGIC,
    CONJUGATED_CLIFFORD,
    CONSTANT_DEPTH,
    FAMILIES,
    IQP,
    Circuit,
    CtEcsDecomposition,
    DyadicAngle,
    Gate,
    build_clifford_magic,
    build_conjugated_clifford,
    build_constant_depth,
    build_iqp,
    compose,
    decompose_to_gate_set,
    decomposition_from_json_dict,
    decomposition_to_json_dict,
    random_family_instance,
)
from .ctstate import CtState, PhaseState, ProductState, ct_state_of
from .ecs import (
    EcsOperation,
    EcsProduct,
    LocalOperator,
    PauliCombination,
    SignedPauli,
    check_ecs_observable,
    conjugate_pauli_by_clifford,
    conjugated_z_decomposition,
    ecs_for,
    lightcone,
    local_z_operator,
)
from .errors import ResourceLimitError, ValidationError
from .fourier import (
    CoefficientSource,
    EstimatedCoefficients,
    EstimatorConfig,
    ExactCoefficients,
    FourierTable,
    attenuate,
    build_low_degree_table,
    choose_degree,
    validate_lambda,
)
from .noise import NoiseSpec, noise_operator_apply
from .oracle import (
    DistVector,
    anti_concentration_alpha,
    apply_depolarizing_exact,
    empirical_distribution,
    fourier_transform,
    inverse_fourier,
    l1_distance,
    model_b_factorization_check,
    noisy_input_distribution_iqp,
    output_distribution,
)
from .sampler import (
    ModelBPlan,
    enumerate_alg_distribution,
    marginal_sum,
    sample_alg_batch,
    simulate_marginal,
    simulate_model_a,
    simulate_model_b,
)

__version__ = "0.1.0"
