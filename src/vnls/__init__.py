"""Variational neural-network solver for sparse linear systems.

Classically trains a compact wavefunction model so that A |psi> lines up
with a right-hand side |b> over a 2^n-dimensional space, using Monte Carlo
estimates of a nonnegative Rayleigh-quotient objective and natural-gradient
updates.  An exact oracle over the whole basis (n <=
operators.DENSE_LIMIT, or a run's dense_limit) certifies the result.
"""

from .engine import (
    EpochRecord,
    SRState,
    TrainConfig,
    estimate_fisher,
    estimate_gradient,
    estimate_objective,
    estimate_variance,
    local_energy_h,
    sr_step,
    train_vnls,
    train_vqmc,
    vnls_local_energies,
)
from .errors import CapabilityError, ParseError
from .operators import (
    PauliSum,
    PauliTerm,
    apply_squared_row,
    apply_sum_row,
    apply_term_row,
    apply_to_state,
    embed_hermitian,
    identity_sum,
    load_operator,
    parse_pauli_sum,
    save_operator,
    to_dense,
)
from .oracle import (
    OracleReport,
    check_error_bound,
    exact_loss,
    exact_solve,
    extremal_eigs,
    fidelity,
    ground_state,
    ising_identities,
    operator_norm_and_condition,
    rayleigh_quotient,
    to_sparse,
    trace_distance,
)
from .problems import (
    LinearProblem,
    ising_perturbation_scale,
    ising_problem,
    load_problem,
    random_pauli_problem,
    save_problem,
)
from .sampling import (
    ChainState,
    SampleBatch,
    acceptance_stats,
    enumerate_beta,
    enumerate_born,
    metropolis_sample,
    sample_beta,
)
from .states import (
    DenseState,
    Rbm,
    Wavefunction,
    dense_vector,
    init_gaussian,
    load_checkpoint,
    log2cosh,
    save_checkpoint,
    spins,
)

__version__ = "0.1.0"

__all__ = [
    "EpochRecord", "SRState", "TrainConfig", "enumerate_beta", "enumerate_born",
    "estimate_fisher", "estimate_gradient", "estimate_objective",
    "estimate_variance", "local_energy_h", "sr_step",
    "train_vnls", "train_vqmc", "vnls_local_energies",
    "CapabilityError", "ParseError",
    "PauliSum", "PauliTerm", "apply_squared_row", "apply_sum_row",
    "apply_term_row", "apply_to_state", "embed_hermitian", "identity_sum",
    "load_operator", "parse_pauli_sum", "save_operator", "to_dense",
    "OracleReport", "check_error_bound", "exact_loss", "exact_solve",
    "extremal_eigs", "fidelity", "ground_state", "ising_identities",
    "operator_norm_and_condition", "rayleigh_quotient", "to_sparse",
    "trace_distance",
    "LinearProblem", "ising_perturbation_scale", "ising_problem",
    "load_problem", "random_pauli_problem", "save_problem",
    "ChainState", "SampleBatch", "acceptance_stats", "metropolis_sample",
    "sample_beta",
    "DenseState", "Rbm", "Wavefunction", "dense_vector", "init_gaussian",
    "load_checkpoint", "log2cosh", "save_checkpoint", "spins",
]
