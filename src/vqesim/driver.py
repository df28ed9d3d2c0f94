"""The variational loop: estimator-driven minimization with diagnostics.

A job is one minimization: a Hamiltonian, the per-term shots its
policy priced with `shot_budget`, and a seed. It builds one
`Measurement`, and every estimate draws exactly those per-term shots;
under the exact policy no term takes a shot, so every estimate is the
noiseless <H>. Every evaluation is one optimization step j of its job:
the ansatz is prepared once, and that state feeds both the shot-based
estimate and the noiseless diagnostics of its trace record: the exact
energy, which the estimate sums from the one reduction that gives every
term's expectation, the tangle on two qubits, and the overlap with the
exact ground space. These reductions run in numpy's own loops, not
BLAS. On the layered ansatz only the overlap, through the spectrum's
LAPACK eigenvectors, still depends on the host's BLAS kernel. Repeated
evaluation of the same parameters draws fresh noise, as on real
hardware, because the evaluation index labels the RNG stream.

Each job's optimizer is an ask-and-tell search (see `optimize`), and
`run_jobs` advances all the jobs of a plan in lockstep, since they
share one ansatz. A round takes the batch each live job's search asks
for, prepares their rows in one (B, 2^n) array, and hands each job its
own rows: the job reduces them to term expectations with its own
Hamiltonian, estimates each row on its own step's stream, and sends
the values back to its search; that is all a search waits for. The
diagnostics observe the loop from outside its path: a job's estimated
rows wait, with their amplitudes, until at least
`statevector.batch_rows(n)` of them (the bound `prepare` works in) are
pending, and one overlap and one tangle reduction then cover them all
and append their records. The last rows are recorded once the search
returns. Every row gets the bytes it would have if it had come alone,
so a job's records do not depend on the jobs beside it. `run_vqe` is
the one-job case.

Only the overlap and `exact_ground_energy` read the dense spectrum, so
no search step waits for it. A job holds a future of its ground energy
and ground space, and waits on it at its first flush of records. From
`SPECTRUM_THREAD_QUBITS` qubits `run_jobs` builds the spectra on one
helper thread, in job order, while the searches run (LAPACK's `eigh`
releases the GIL); smaller spectra are built inline, before the job's
first step. Either way the same function gets the same input, so the
bytes do not depend on the thread, and a spectrum's error is its job's
error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .analysis import _spectrum_guard, exact_spectrum, ground_space_overlaps, tangles
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
    gradient_descent_search,
    nelder_mead_search,
)
from .pauli import PauliHamiltonian
from .statevector import batch_rows, batch_term_expectations

if TYPE_CHECKING:
    from concurrent.futures import Future


@dataclass(frozen=True, slots=True)
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

# Spectra of this many qubits or more are diagonalised on the run's helper thread; smaller
# ones inline. With one BLAS thread on a 2-core VM, a complex 40-term `exact_spectrum` took
# 0.07 ms at 2 qubits, 0.8 ms at 6, 3.8 ms at 7, 21 ms at 8 and 181 ms at 9. Handing one to
# the thread cost a 2-qubit run 1.6-2.5 ms, waiting out the GIL switch interval, so below 7
# qubits it costs more than it can overlap. At 8 qubits a 1000-shot run fell from 49 to 32 ms.
SPECTRUM_THREAD_QUBITS = 7


def _ground_state(hamiltonian: PauliHamiltonian) -> tuple[float, np.ndarray]:
    """The ground energy and the read-only ground-space columns of the dense spectrum; the rest is dropped."""
    spectrum = exact_spectrum(hamiltonian)
    return spectrum.ground_energy(), spectrum.ground_space


class _Job:
    """One job of a lockstep run: its search, the rows it asks for next, its records, and how it ended."""

    def __init__(self, measurement: Measurement, search, ground: Future):
        self.measurement, self.search = measurement, search
        self.hamiltonian = measurement.hamiltonian
        # (ground energy, ground space), read first by the first flush of records.
        self.ground = ground
        self.records: list[TraceRecord] = []
        # Estimated rows whose diagnostics are not yet computed: (step, parameters, estimate),
        # and their amplitudes, one array per round.
        self.pending: list[tuple[int, np.ndarray, EnergyEstimate]] = []
        self.pending_amplitudes: list[np.ndarray] = []
        self.flush_rows = batch_rows(self.hamiltonian.n_qubits)
        self.result: VqeResult | None = None
        self.error: Exception | None = None
        self.batch: np.ndarray | None = None
        self.advance(None)

    def advance(self, amplitudes) -> None:
        """Send the search the estimates of its batch, prepared by `amplitudes()` (None at the start).

        Then `batch` holds the rows it asks for next, or None once it has
        ended: with its result, or with the error it met.
        """
        try:
            values = None if amplitudes is None else self.estimate(amplitudes())
            try:
                self.batch = self.search.send(values)
                return
            except StopIteration as stop:
                self.finish(stop.value)
        except Exception as exc:
            self.error = exc
        self.batch = None

    def estimate(self, amplitudes: np.ndarray) -> list[float]:
        expectations = batch_term_expectations(amplitudes, self.hamiltonian)
        values = []
        for params, row in zip(self.batch, expectations):
            step = len(self.records) + len(self.pending)
            estimate = estimate_energy(row, self.measurement, iteration=step)
            self.pending.append((step, np.array(params, dtype=float), estimate))
            values.append(estimate.value)
        self.pending_amplitudes.append(amplitudes)
        if len(self.pending) >= self.flush_rows:
            self.record_pending()
        return values

    def record_pending(self) -> None:
        pending_amplitudes = self.pending_amplitudes
        amplitudes = pending_amplitudes[0] if len(pending_amplitudes) == 1 else np.concatenate(pending_amplitudes)
        overlaps = ground_space_overlaps(self.ground.result()[1], amplitudes)
        two_qubit = tangles(amplitudes) if self.hamiltonian.n_qubits == 2 else [None] * len(amplitudes)
        for (step, params, estimate), tangle, overlap in zip(self.pending, two_qubit, overlaps):
            self.records.append(
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
        self.pending.clear()
        pending_amplitudes.clear()

    def finish(self, opt) -> None:
        """Record the last rows, flag the restarts, and keep the job's result."""
        if self.pending:
            self.record_pending()
        records = self.records
        for step in opt.restart_steps:
            records[step] = replace(records[step], restart=True)
        self.result = VqeResult(
            trace=VqeTrace(records),
            best_parameters=opt.x_best,
            best_energy=opt.f_best,
            converged=opt.converged,
            reason=opt.reason,
            exact_ground_energy=self.ground.result()[0],
        )


def run_jobs(
    ansatz,
    jobs: Sequence[tuple[PauliHamiltonian, tuple[int, ...], int]],
    config: OptimizerConfig | None = None,
    x0: np.ndarray | None = None,
) -> tuple[list[VqeResult], Exception | None]:
    """Run independent minimizations that share one ansatz, in lockstep (see the module docstring).

    Each job is (hamiltonian, term_shots, seed): its `Measurement` draws
    `term_shots` per evaluation on the seed's stream, and without an x0
    its search starts from `random_initial_parameters` of its seed.
    `ansatz` is anything with a `parameter_count` attribute and a
    `prepare_batch(batch)` method that returns the checked (B, 2^n)
    amplitudes of the rows of a (B, parameter_count) array, in row
    order. A job keeps its rows' amplitudes until their diagnostics are
    computed, so the array must not be modified or reused afterwards;
    while several jobs are live, each keeps a copy of its own rows, not
    the round's array. An x0 of the wrong shape or with a non-finite
    entry, a seed outside [0, 2**64 - 1] or a term_shots of the wrong
    length raises ValueError before any spectrum is built, and so does a
    Hamiltonian over `MAX_SPECTRUM_QUBITS` before any search step. The
    default optimizer is Nelder-Mead with restarts; pass a
    GradientDescentConfig for the baseline.

    Each job's spectrum is built inline or, from `SPECTRUM_THREAD_QUBITS`
    qubits, on a helper thread that the call opens and shuts down before
    it returns or raises; the job waits on it at its first flush of
    records. Returns the results of the jobs before the first that
    failed, in job order, and that job's error (None if none failed); a
    spectrum that fails is its job's error. The jobs before it run to
    their end, whenever it failed, and the jobs after it stop, so a
    caller that records the results and then raises the error leaves
    what the jobs run one after another would leave. Each job's result
    is the one it gets alone, deterministic given (inputs, config,
    seed).
    """
    config = config or NelderMeadConfig()
    search = gradient_descent_search if isinstance(config, GradientDescentConfig) else nelder_mead_search
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (ansatz.parameter_count,):
            raise ValueError(f"x0 has shape {x0.shape}, ansatz takes {ansatz.parameter_count} parameters")
        if not np.isfinite(x0).all():
            raise ValueError("non-finite parameter")
    measurements = [Measurement(hamiltonian, term_shots, seed) for hamiltonian, term_shots, seed in jobs]  # checks seeds
    for measurement in measurements:
        _spectrum_guard(measurement.hamiltonian.n_qubits)
    # Imported on the first run, not with the module: it loads logging, about 5 ms that
    # every fresh import of vqesim would pay.
    from concurrent.futures import Future, ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="vqesim-spectrum")
    try:
        runs = []
        for measurement, (hamiltonian, _, seed) in zip(measurements, jobs):
            if hamiltonian.n_qubits >= SPECTRUM_THREAD_QUBITS:
                ground = pool.submit(_ground_state, hamiltonian)
            else:  # inline, into a done future: the error goes in it, as on the thread
                ground = Future()
                try:
                    ground.set_result(_ground_state(hamiltonian))
                except Exception as exc:
                    ground.set_exception(exc)
            start = random_initial_parameters(ansatz.parameter_count, seed) if x0 is None else x0
            runs.append(_Job(measurement, search(start, config), ground))
        live = _live(runs)
        while live:
            prepared = None
            if len(live) > 1:
                try:
                    prepared = ansatz.prepare_batch(np.concatenate([run.batch for run in live]))
                except Exception:  # each job then prepares its own rows and meets its own error
                    pass
            offset, ended = 0, False
            for run in live:
                rows = len(run.batch)
                if prepared is None:
                    run.advance(lambda: ansatz.prepare_batch(run.batch))
                else:
                    run.advance(lambda: prepared[offset:offset + rows].copy())
                offset += rows
                ended |= run.batch is None
            if ended:
                live = _live(runs)
    finally:
        pool.shutdown(cancel_futures=True)
    for index, run in enumerate(runs):
        if run.error is not None:
            return [earlier.result for earlier in runs[:index]], run.error
    return [run.result for run in runs], None


def _live(runs: list[_Job]) -> list[_Job]:
    """The jobs still asking, before the first that failed."""
    live = []
    for run in runs:
        if run.error is not None:
            break
        if run.batch is not None:
            live.append(run)
    return live


def run_vqe(
    hamiltonian: PauliHamiltonian,
    ansatz,
    policy: ShotPolicy,
    config: OptimizerConfig | None = None,
    seed: int = 0,
    x0: np.ndarray | None = None,
) -> VqeResult:
    """Minimize the estimated energy over ansatz parameters: `run_jobs` with one job, whose error it raises.

    The job's per-term shots are `shot_budget(hamiltonian, policy)`,
    priced once for the run (none under the exact policy, so every
    estimate is exact). Row b of a batch the search asks for is step
    len(records) + b, estimated on that step's RNG stream. The rows'
    records follow their estimates in bounded batches (see the module
    docstring), and the last ones once the search returns. Then the
    records at its `restart_steps` are flagged `restart`, and the
    trace's evaluation and restart counts are read from its records.
    """
    results, error = run_jobs(ansatz, [(hamiltonian, shot_budget(hamiltonian, policy), seed)], config, x0)
    if error is not None:
        raise error
    return results[0]
