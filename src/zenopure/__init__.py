"""Purification of a quantum state by repeated probe confirmation.

A bipartite system A+B evolves under a joint Hamiltonian; after every
interval tau the probe A is projectively confirmed in its initial state
phi. Conditioned on all confirmations succeeding, B evolves by powers of
the projected propagator V = <phi| exp(-iH tau) |phi>, a contraction whose
dominant right-eigenvector is the purification target. The package
provides the linear-algebra core (linalg), the measurement engine
(engine), an exactly solvable two-oscillator model used as a cross-check
oracle (oscillator), the experiment-file layer (config), and a CLI (cli,
installed as ``zenopure``).
"""

from .linalg import (
    DimensionLimitExceeded,
    EigenPair,
    HermitianBlock,
    HermitianEigenDecomposition,
    NoConvergence,
    NotHermitian,
    TopKResult,
    adjoint,
    block_eigendecompose,
    deflate,
    dominant_eigenpair,
    hermitian_eigendecompose,
    tensor_product,
    top_k_eigenpairs,
    unitary_exponential,
    unitary_from_blocks,
)
from .engine import (
    BipartiteSystem,
    ConditionsReport,
    DensityMatrix,
    ExtinctBranch,
    ProbeContraction,
    ProbeState,
    ProjectedPropagator,
    PurificationTrajectory,
    TrajectoryStep,
    ZenoScanPoint,
    build_projected_propagator,
    contract_probe,
    evolve_step,
    fidelity,
    run_purification,
    spectral_report,
    survival_probability,
    trace_distance,
    zeno_limit_scan,
)
from .oscillator import (
    ClosedFormCoefficients,
    CutoffTooSmall,
    DegenerateInterval,
    OscillatorParams,
    ThermalTrajectoryClosedForm,
    ZeroFrequency,
    build_hamiltonian,
    closed_form_propagator,
    closed_form_rho,
    coefficients,
    coherent_state,
    destroy,
    eigenvector_u_n,
    factorized_propagator,
    lambda_n,
    thermal_state,
    tuned_tau,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    emit_config,
    load_config,
    load_matrix_file,
    parse_config,
    save_matrix_file,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # linalg
    "DimensionLimitExceeded",
    "EigenPair",
    "HermitianBlock",
    "HermitianEigenDecomposition",
    "NoConvergence",
    "NotHermitian",
    "TopKResult",
    "adjoint",
    "block_eigendecompose",
    "deflate",
    "dominant_eigenpair",
    "hermitian_eigendecompose",
    "tensor_product",
    "top_k_eigenpairs",
    "unitary_exponential",
    "unitary_from_blocks",
    # engine
    "BipartiteSystem",
    "ConditionsReport",
    "DensityMatrix",
    "ExtinctBranch",
    "ProbeContraction",
    "ProbeState",
    "ProjectedPropagator",
    "PurificationTrajectory",
    "TrajectoryStep",
    "ZenoScanPoint",
    "build_projected_propagator",
    "contract_probe",
    "evolve_step",
    "fidelity",
    "run_purification",
    "spectral_report",
    "survival_probability",
    "trace_distance",
    "zeno_limit_scan",
    # oscillator
    "ClosedFormCoefficients",
    "CutoffTooSmall",
    "DegenerateInterval",
    "OscillatorParams",
    "ThermalTrajectoryClosedForm",
    "ZeroFrequency",
    "build_hamiltonian",
    "closed_form_propagator",
    "closed_form_rho",
    "coefficients",
    "coherent_state",
    "destroy",
    "eigenvector_u_n",
    "factorized_propagator",
    "lambda_n",
    "thermal_state",
    "tuned_tau",
    # config
    "ConfigError",
    "ExperimentConfig",
    "emit_config",
    "load_config",
    "load_matrix_file",
    "parse_config",
    "save_matrix_file",
]
