"""Desk-scale variational eigensolver on a simulated, shot-noisy QPU."""

from .analysis import (
    MinimumUncertainty,
    QuadraticFit,
    Spectrum,
    exact_spectrum,
    fit_quadratic_minimum,
    monte_carlo_minimum_uncertainty,
)
from .driver import (
    TraceRecord,
    VqeResult,
    VqeTrace,
    random_initial_parameters,
    run_vqe,
)
from .estimation import (
    EnergyEstimate,
    Measurement,
    ShotPolicy,
    estimate_energy,
    shot_budget,
)
from .fermion import (
    FermionOperator,
    UccAnsatz,
    jordan_wigner,
    ucc_prepare,
)
from .optimize import (
    GradientDescentConfig,
    NelderMeadConfig,
    OptimizerResult,
    gradient_descent,
    nelder_mead,
)
from .pauli import (
    PauliHamiltonian,
    PauliString,
    reconstruct,
    shift_and_square,
)
from .statevector import (
    AnsatzSpec,
    StateVector,
    exact_energy,
    prepare,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzSpec",
    "EnergyEstimate",
    "FermionOperator",
    "GradientDescentConfig",
    "Measurement",
    "MinimumUncertainty",
    "NelderMeadConfig",
    "OptimizerResult",
    "PauliHamiltonian",
    "PauliString",
    "QuadraticFit",
    "ShotPolicy",
    "Spectrum",
    "StateVector",
    "TraceRecord",
    "UccAnsatz",
    "VqeResult",
    "VqeTrace",
    "estimate_energy",
    "exact_energy",
    "exact_spectrum",
    "fit_quadratic_minimum",
    "gradient_descent",
    "jordan_wigner",
    "monte_carlo_minimum_uncertainty",
    "nelder_mead",
    "prepare",
    "random_initial_parameters",
    "reconstruct",
    "run_vqe",
    "shift_and_square",
    "shot_budget",
    "ucc_prepare",
]
