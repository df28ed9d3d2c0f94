"""The variational loop: estimator-driven minimization with diagnostics.

A run prices its shots once, with `shot_budget` under its policy, and
every estimate draws exactly those per-term shots; under the exact
policy no term takes a shot, so every estimate is the noiseless <H>.
Every objective evaluation is one optimization step j: the ansatz is
prepared once, and that state feeds both the shot-based estimate and
the noiseless diagnostics of its trace record: the exact energy, which
the estimate sums from the one reduction that gives every term's
expectation, the tangle on two qubits, and the overlap with the exact
ground space. These reductions run in numpy's own loops, not BLAS. On
the layered ansatz only the overlap, through the spectrum's LAPACK
eigenvectors, still depends on the host's BLAS kernel. Repeated
evaluation of the same parameters draws fresh noise, as on real
hardware, because the evaluation index labels the RNG stream.

The optimizers hand the objective a batch of points at a time (see
`optimize`). The batch's states are prepared together; then each row
is estimated, diagnosed and recorded on its own step, exactly as if it
had come alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import exact_spectrum, ground_space_overlap, tangle
from .estimation import (
    STREAM_INIT,
    STREAM_SAMPLING,
    ShotPolicy,
    _seed_sequence,
    derived_generator,
    estimate_energy,
    shot_budget,
)
from .optimize import (
    GradientDescentConfig,
    NelderMeadConfig,
    gradient_descent,
    nelder_mead,
)
from .pauli import PauliHamiltonian


@dataclass(frozen=True)
class TraceRecord:
    """One optimization step: estimate plus ideal-device diagnostics."""

    iteration: int
    parameters: np.ndarray
    energy_estimate: float
    std_error: float
    exact_energy: float
    tangle: float | None
    overlap: float
    restart: bool


@dataclass
class VqeTrace:
    records: list[TraceRecord]
    best_parameters: np.ndarray
    best_energy: float
    evaluations: int
    restarts: int


@dataclass
class VqeResult:
    trace: VqeTrace
    converged: bool
    reason: str
    exact_ground_energy: float

    @property
    def best_energy(self) -> float:
        return self.trace.best_energy

    @property
    def best_parameters(self) -> np.ndarray:
        return self.trace.best_parameters


def random_initial_parameters(count: int, seed: int) -> np.ndarray:
    """Uniform angles in [-pi, pi) from the run seed's init stream."""
    gen = derived_generator(seed, STREAM_INIT)
    return gen.uniform(-np.pi, np.pi, size=count)


OptimizerConfig = NelderMeadConfig | GradientDescentConfig


def run_vqe(
    hamiltonian: PauliHamiltonian,
    ansatz,
    policy: ShotPolicy,
    config: OptimizerConfig | None = None,
    seed: int = 0,
    x0: np.ndarray | None = None,
) -> VqeResult:
    """Minimize the estimated energy over ansatz parameters.

    `ansatz` is anything with a `parameter_count` attribute and a
    `prepare_batch(batch) -> list[StateVector]` method that returns the
    state of each row of a (B, parameter_count) array, in row order.
    The optimizer calls the objective with such a batch and gets its B
    estimated energies back; row b of a batch is step len(records) + b,
    estimated on that step's RNG stream with the per-term shots that
    `shot_budget(hamiltonian, policy)` prices once for the run (none
    under the exact policy, so every estimate is exact). A seed outside
    [0, 2**64 - 1] raises ValueError before the first evaluation. The
    default optimizer is Nelder-Mead with restarts; pass a
    GradientDescentConfig for the baseline. The optimizer runs once;
    then the records at its `restart_steps` are flagged `restart`.
    Deterministic given (inputs, config, seed).
    """
    config = config or NelderMeadConfig()
    spectrum = exact_spectrum(hamiltonian)
    _seed_sequence(seed, STREAM_SAMPLING)  # the seed check, before any evaluation
    if x0 is None:
        x0 = random_initial_parameters(ansatz.parameter_count, seed)
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (ansatz.parameter_count,):
            raise ValueError(
                f"x0 has shape {x0.shape}, ansatz takes {ansatz.parameter_count} parameters"
            )

    term_shots = shot_budget(hamiltonian, policy)
    records: list[TraceRecord] = []

    def objective(batch: np.ndarray) -> list[float]:
        values = []
        for params, state in zip(batch, ansatz.prepare_batch(batch)):
            step = len(records)
            estimate = estimate_energy(state, hamiltonian, term_shots, seed, iteration=step)
            records.append(
                TraceRecord(
                    iteration=step,
                    parameters=np.array(params, dtype=float),
                    energy_estimate=estimate.value,
                    std_error=estimate.std_error,
                    exact_energy=estimate.exact_value,
                    tangle=tangle(state) if hamiltonian.n_qubits == 2 else None,
                    overlap=ground_space_overlap(spectrum, state),
                    restart=False,
                )
            )
            values.append(estimate.value)
        return values

    optimizer = gradient_descent if isinstance(config, GradientDescentConfig) else nelder_mead
    opt = optimizer(objective, x0, config)
    for step in opt.restart_steps:
        records[step] = replace(records[step], restart=True)

    trace = VqeTrace(
        records=records,
        best_parameters=opt.x_best,
        best_energy=opt.f_best,
        evaluations=opt.evaluations,
        restarts=opt.restarts,
    )
    return VqeResult(
        trace=trace,
        converged=opt.converged,
        reason=opt.reason,
        exact_ground_energy=spectrum.ground_energy(),
    )

