"""The variational loop: estimator-driven minimization with diagnostics.

A run prices its shots once, with `shot_budget` under its policy, into
one `Measurement`, and every estimate draws exactly those per-term
shots; under the exact policy no term takes a shot, so every estimate
is the noiseless <H>.
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
`optimize`), and the batch is the unit of evaluation: its amplitudes
are prepared as one (B, 2^n) array, and one reduction gives every
row's term expectations. Each row is then estimated from its
expectations on its own step's stream, and its value goes back to the
optimizer; that is all the optimizer waits for. The diagnostics observe
the loop from outside its path: the estimated rows wait, with their
amplitudes, until at least `statevector.batch_rows(n)` of them (the
bound `prepare` works in) are pending, and one overlap and one tangle
reduction then cover them all and append their records. The last rows
are recorded after the optimizer returns. Every row gets the bytes it
would have if it had come alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import exact_spectrum, ground_space_overlaps, tangles
from .estimation import (
    STREAM_INIT,
    EnergyEstimate,
    Measurement,
    ShotPolicy,
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
from .statevector import batch_rows, batch_term_expectations


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
    """The records of a run, one per evaluation in step order; its counts are read from them."""

    records: list[TraceRecord]

    @property
    def evaluations(self) -> int:
        return len(self.records)

    @property
    def restarts(self) -> int:
        return sum(r.restart for r in self.records)


@dataclass
class VqeResult:
    trace: VqeTrace
    best_parameters: np.ndarray
    best_energy: float
    converged: bool
    reason: str
    exact_ground_energy: float


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
    `prepare_batch(batch)` method that returns the checked (B, 2^n)
    amplitudes of the rows of a (B, parameter_count) array, in row
    order. The run keeps that array until the rows' diagnostics are
    computed, so it must not be modified or reused afterwards.
    The optimizer calls the objective with such a batch and gets its B
    estimated energies back; row b of a batch is step len(records) + b,
    estimated on that step's RNG stream with the per-term shots that
    `shot_budget(hamiltonian, policy)` prices once for the run (none
    under the exact policy, so every estimate is exact). A seed outside
    [0, 2**64 - 1], or an x0 of the wrong shape or with a non-finite
    entry, raises ValueError before the spectrum is built. The default
    optimizer is Nelder-Mead with restarts; pass a GradientDescentConfig
    for the baseline. The optimizer runs once; the rows' records follow
    their estimates in bounded batches (see the module docstring), and
    the last ones once it returns. Then the records at its
    `restart_steps` are flagged `restart`, and the trace's evaluation
    and restart counts are read from its records.
    Deterministic given (inputs, config, seed).
    """
    config = config or NelderMeadConfig()
    measurement = Measurement(hamiltonian, shot_budget(hamiltonian, policy), seed)  # checks the seed
    if x0 is None:
        x0 = random_initial_parameters(ansatz.parameter_count, seed)
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (ansatz.parameter_count,):
            raise ValueError(
                f"x0 has shape {x0.shape}, ansatz takes {ansatz.parameter_count} parameters"
            )
        if not np.isfinite(x0).all():
            raise ValueError("non-finite parameter")
    spectrum = exact_spectrum(hamiltonian)
    records: list[TraceRecord] = []
    # Estimated rows whose diagnostics are not yet computed: (step, parameters, estimate),
    # and their amplitudes, one array per objective call.
    pending: list[tuple[int, np.ndarray, EnergyEstimate]] = []
    pending_amplitudes: list[np.ndarray] = []
    flush_rows = batch_rows(hamiltonian.n_qubits)

    def record_pending() -> None:
        amplitudes = pending_amplitudes[0] if len(pending_amplitudes) == 1 else np.concatenate(pending_amplitudes)
        overlaps = ground_space_overlaps(spectrum, amplitudes)
        two_qubit = tangles(amplitudes) if hamiltonian.n_qubits == 2 else [None] * len(amplitudes)
        for (step, params, estimate), tangle, overlap in zip(pending, two_qubit, overlaps):
            records.append(
                TraceRecord(
                    iteration=step,
                    parameters=params,
                    energy_estimate=estimate.value,
                    std_error=estimate.std_error,
                    exact_energy=estimate.exact_value,
                    tangle=tangle,
                    overlap=overlap,
                    restart=False,
                )
            )
        pending.clear()
        pending_amplitudes.clear()

    def objective(batch: np.ndarray) -> list[float]:
        amplitudes = ansatz.prepare_batch(batch)
        expectations = batch_term_expectations(amplitudes, hamiltonian)
        values = []
        for params, row in zip(batch, expectations):
            step = len(records) + len(pending)
            estimate = estimate_energy(row, measurement, iteration=step)
            pending.append((step, np.array(params, dtype=float), estimate))
            values.append(estimate.value)
        pending_amplitudes.append(amplitudes)
        if len(pending) >= flush_rows:
            record_pending()
        return values

    optimizer = gradient_descent if isinstance(config, GradientDescentConfig) else nelder_mead
    opt = optimizer(objective, x0, config)
    if pending:
        record_pending()
    for step in opt.restart_steps:
        records[step] = replace(records[step], restart=True)

    return VqeResult(
        trace=VqeTrace(records),
        best_parameters=opt.x_best,
        best_energy=opt.f_best,
        converged=opt.converged,
        reason=opt.reason,
        exact_ground_energy=spectrum.ground_energy(),
    )
