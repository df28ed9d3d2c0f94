import dataclasses

import numpy as np
import pytest

from conftest import random_hamiltonian
from reference import decompose
from vqesim import (
    AnsatzSpec,
    GradientDescentConfig,
    NelderMeadConfig,
    PauliHamiltonian,
    ShotPolicy,
    TraceRecord,
    VqeResult,
    VqeTrace,
    exact_energy,
    exact_spectrum,
    nelder_mead_search,
    run_jobs,
    run_vqe,
    shift_and_square,
    shot_budget,
)
import vqesim.driver
from vqesim.analysis import ground_space_overlaps, tangles
from vqesim.optimize import ObjectiveValueError
from vqesim.statevector import batch_rows


def quick_nm(**overrides):
    defaults = dict(max_evaluations=2500)
    defaults.update(overrides)
    return NelderMeadConfig(**defaults)


class TestRunVqeExact:
    def test_single_qubit_z(self):
        result = run_vqe(
            PauliHamiltonian(1, [(1.0, "Z")]),
            AnsatzSpec(1, 1),
            ShotPolicy.exact(),
            quick_nm(),
            seed=3,
        )
        assert result.best_energy == pytest.approx(-1.0, abs=1e-6)

    def test_zz_degenerate_ground(self):
        result = run_vqe(
            PauliHamiltonian(2, [(1.0, "ZZ")]),
            AnsatzSpec(2, 1),
            ShotPolicy.exact(),
            quick_nm(),
            seed=4,
        )
        assert result.best_energy == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_hamiltonians_reach_spectrum_minimum(self, seed):
        h = random_hamiltonian(np.random.default_rng(200 + seed), 2)
        truth = exact_spectrum(h).ground_energy()
        result = run_vqe(h, AnsatzSpec(2, 1), ShotPolicy.exact(), quick_nm(max_evaluations=6000), seed=seed)
        assert result.best_energy == pytest.approx(truth, abs=1e-6)

    def test_x0_override(self):
        h = PauliHamiltonian(1, [(1.0, "Z")])
        x0 = np.zeros(6)
        result = run_vqe(h, AnsatzSpec(1, 1), ShotPolicy.exact(), quick_nm(), seed=0, x0=x0)
        assert np.array_equal(result.trace.records[0].parameters, x0)

    def test_x0_shape_checked(self):
        with pytest.raises(ValueError, match="x0"):
            run_vqe(
                PauliHamiltonian(1, [(1.0, "Z")]),
                AnsatzSpec(1, 1),
                ShotPolicy.exact(),
                quick_nm(),
                seed=0,
                x0=np.zeros(5),
            )

    @pytest.mark.parametrize(
        "seed,entry,message",
        [
            (0, np.nan, "^non-finite parameter$"),
            (0, np.inf, "^non-finite parameter$"),
            (0, -np.inf, "^non-finite parameter$"),
            (-1, 0.0, "^seed must fit in 64 unsigned bits$"),
        ],
    )
    def test_bad_seed_or_x0_refused_before_the_spectrum(self, monkeypatch, seed, entry, message):
        def no_spectrum(hamiltonian):
            raise AssertionError("the spectrum was built before the inputs were checked")

        monkeypatch.setattr(vqesim.driver, "exact_spectrum", no_spectrum)
        x0 = np.zeros(6)
        x0[2] = entry
        with pytest.raises(ValueError, match=message):
            run_vqe(
                PauliHamiltonian(1, [(1.0, "Z")]), AnsatzSpec(1, 1), ShotPolicy.exact(), quick_nm(), seed=seed, x0=x0
            )


@pytest.fixture(scope="module")
def noisy_result():
    h = random_hamiltonian(np.random.default_rng(42), 2)
    return h, run_vqe(
        h,
        AnsatzSpec(2, 1),
        ShotPolicy.fixed(200),
        quick_nm(max_evaluations=400, stagnation_window=60, initial_scale=0.6),
        seed=7,
    )


@pytest.fixture(scope="module")
def diag_hamiltonian():
    return decompose(np.diag([-1.0, 0.0, 1.0, 2.0]).astype(complex))


class TestTraceContract:

    def test_iterations_strictly_increasing(self, noisy_result):
        _, result = noisy_result
        steps = [rec.iteration for rec in result.trace.records]
        assert steps == list(range(len(steps)))

    def test_best_is_min_of_estimates(self, noisy_result):
        _, result = noisy_result
        estimates = [rec.energy_estimate for rec in result.trace.records]
        assert result.best_energy == min(estimates)

    def test_running_best_non_increasing(self, noisy_result):
        _, result = noisy_result
        best = np.minimum.accumulate([rec.energy_estimate for rec in result.trace.records])
        assert np.all(np.diff(best) <= 0)

    def test_diagnostics_ranges(self, noisy_result):
        h, result = noisy_result
        truth = exact_spectrum(h).ground_energy()
        for rec in result.trace.records:
            assert rec.exact_energy >= truth - 1e-9
            assert 0.0 <= rec.overlap <= 1.0 + 1e-12
            assert rec.tangle is not None and 0.0 <= rec.tangle <= 1.0
            assert rec.std_error >= 0.0

    def test_tangle_absent_for_one_qubit(self):
        result = run_vqe(
            PauliHamiltonian(1, [(1.0, "Z")]),
            AnsatzSpec(1, 1),
            ShotPolicy.exact(),
            quick_nm(max_evaluations=100),
            seed=1,
        )
        assert all(rec.tangle is None for rec in result.trace.records)

    def test_restart_flags_follow_restarts(self, noisy_result):
        _, result = noisy_result
        flagged = sum(rec.restart for rec in result.trace.records)
        assert flagged == result.trace.restarts

    def test_restart_flags_are_the_optimizer_restart_steps(self, monkeypatch):
        # The budget ends the run just as a fifth restart would begin: with no evaluation
        # left for its simplex, it is not a restart. That step is read from a longer run on
        # the same stream, whose first evaluations are the same.
        h = random_hamiltonian(np.random.default_rng(11), 2)
        longer = run_vqe(h, AnsatzSpec(2, 1), ShotPolicy.fixed(50), quick_nm(stagnation_window=20), seed=2)
        budget = [rec.iteration for rec in longer.trace.records if rec.restart][4]
        results = []

        def recording_nelder_mead(*args):
            results.append((yield from nelder_mead_search(*args)))
            return results[-1]

        monkeypatch.setattr(vqesim.driver, "nelder_mead_search", recording_nelder_mead)
        cfg = quick_nm(max_evaluations=budget, stagnation_window=20)
        result = run_vqe(h, AnsatzSpec(2, 1), ShotPolicy.fixed(50), cfg, seed=2)
        (opt,) = results
        assert opt.restarts == result.trace.restarts == 4
        assert result.trace.evaluations == budget
        assert all(step < result.trace.evaluations for step in opt.restart_steps)
        flagged = [rec.iteration for rec in result.trace.records if rec.restart]
        assert flagged == list(opt.restart_steps) and len(flagged) == 4

    def test_evaluation_count_matches_records(self, noisy_result):
        _, result = noisy_result
        assert result.trace.evaluations == len(result.trace.records)

    def test_counts_are_read_from_the_records(self):
        def record(step, restart):
            return TraceRecord(step, np.zeros(1), 0.0, 0.0, 0.0, None, 1.0, restart)

        trace = VqeTrace([record(j, j in (2, 5)) for j in range(7)])
        assert (trace.evaluations, trace.restarts) == (7, 2)
        trace.records.append(record(7, True))
        assert (trace.evaluations, trace.restarts) == (8, 3)
        assert [f.name for f in dataclasses.fields(VqeTrace)] == ["records"]
        assert not [name for name, value in vars(VqeResult).items() if isinstance(value, property)]

    def test_deterministic_given_seed(self):
        h = random_hamiltonian(np.random.default_rng(10), 2)
        cfg = quick_nm(max_evaluations=150)
        a = run_vqe(h, AnsatzSpec(2, 1), ShotPolicy.fixed(100), cfg, seed=5)
        b = run_vqe(h, AnsatzSpec(2, 1), ShotPolicy.fixed(100), cfg, seed=5)
        assert [r.energy_estimate for r in a.trace.records] == [
            r.energy_estimate for r in b.trace.records
        ]
        assert np.array_equal(a.best_parameters, b.best_parameters)

    def test_variational_bound_exact_mode(self):
        h = random_hamiltonian(np.random.default_rng(21), 2)
        truth = exact_spectrum(h).ground_energy()
        result = run_vqe(h, AnsatzSpec(2, 1), ShotPolicy.exact(), quick_nm(), seed=2)
        assert all(rec.energy_estimate >= truth - 1e-9 for rec in result.trace.records)

    def test_converged_implies_tolerance_reason(self):
        h = PauliHamiltonian(1, [(1.0, "Z")])
        result = run_vqe(h, AnsatzSpec(1, 1), ShotPolicy.exact(), quick_nm(), seed=3)
        assert result.converged == (result.reason == "tolerance")


class TestGradientDescentDriver:
    def test_noiseless_convergence(self):
        h = PauliHamiltonian(1, [(1.0, "Z")])
        result = run_vqe(
            h,
            AnsatzSpec(1, 1),
            ShotPolicy.exact(),
            GradientDescentConfig(step_size=0.4, max_evaluations=1500),
            seed=6,
        )
        assert result.best_energy == pytest.approx(-1.0, abs=1e-4)
        assert result.reason == "evaluation_budget"


class CountingAnsatz:
    """An AnsatzSpec that counts the states it prepares, row by row."""

    def __init__(self, spec):
        self.spec = spec
        self.parameter_count = spec.parameter_count
        self.prepares = 0

    def prepare_batch(self, batch):
        self.prepares += len(batch)
        return self.spec.prepare_batch(batch)


class TestOnePreparationPerEvaluation:
    @pytest.mark.parametrize("policy", [ShotPolicy.exact(), ShotPolicy.fixed(100)], ids=["exact", "shots100"])
    @pytest.mark.parametrize(
        "config",
        [quick_nm(max_evaluations=80, stagnation_window=20), GradientDescentConfig(max_evaluations=80)],
        ids=["nelder-mead", "gradient-descent"],
    )
    def test_one_prepare_per_evaluation(self, policy, config):
        h = random_hamiltonian(np.random.default_rng(31), 2)
        ansatz = CountingAnsatz(AnsatzSpec(2, 1))
        result = run_vqe(h, ansatz, policy, config, seed=4)
        assert result.trace.evaluations == len(result.trace.records) > 0
        assert ansatz.prepares == result.trace.evaluations

    @pytest.mark.parametrize("budget", [5, 14])
    def test_budget_cuts_the_first_simplex(self, budget):
        """The 13-vertex simplex of AnsatzSpec(2, 1) is one batch; the budget cuts it partway."""
        h = random_hamiltonian(np.random.default_rng(33), 2)
        ansatz = CountingAnsatz(AnsatzSpec(2, 1))
        result = run_vqe(h, ansatz, ShotPolicy.fixed(100), quick_nm(max_evaluations=budget), seed=2)
        assert result.trace.evaluations == budget == len(result.trace.records) == ansatz.prepares
        assert [r.iteration for r in result.trace.records] == list(range(budget))

    def test_exact_ground_energy_reported(self):
        h = random_hamiltonian(np.random.default_rng(32), 2)
        result = run_vqe(h, AnsatzSpec(2, 1), ShotPolicy.fixed(50), quick_nm(max_evaluations=20), seed=1)
        assert result.exact_ground_energy == exact_spectrum(h).ground_energy()


class TestBatchInvariance:
    """A batch gives the records its rows would give one at a time."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("policy", [ShotPolicy.exact(), ShotPolicy.fixed(100)], ids=["exact", "shots100"])
    def test_rows_one_by_one_give_the_same_records(self, monkeypatch, policy, n):
        h = random_hamiltonian(np.random.default_rng([37, n]), n)
        config = GradientDescentConfig(max_evaluations=150)
        batches = []
        gradient_descent_search = vqesim.driver.gradient_descent_search

        def one_by_one(x0, config):
            """The search, with each batch it asks for asked row by row."""
            search = gradient_descent_search(x0, config)
            try:
                batch = next(search)
                while True:
                    batches.append(len(batch))
                    values = []
                    for row in batch:
                        values += (yield row[None])
                    batch = search.send(values)
            except StopIteration as stop:
                return stop.value

        batched = run_vqe(h, AnsatzSpec(n, 1), policy, config, seed=3)
        monkeypatch.setattr(vqesim.driver, "gradient_descent_search", one_by_one)
        split = run_vqe(h, AnsatzSpec(n, 1), policy, config, seed=3)
        # Each gradient is one batch of 2 * dims central-difference probes.
        assert max(batches) == 2 * AnsatzSpec(n, 1).parameter_count
        assert len(batched.trace.records) == len(split.trace.records) == 150
        for a, b in zip(batched.trace.records, split.trace.records):
            assert a.parameters.tobytes() == b.parameters.tobytes()
            assert dataclasses.replace(a, parameters=None) == dataclasses.replace(b, parameters=None)
        assert batched.best_parameters.tobytes() == split.best_parameters.tobytes()
        assert (batched.best_energy, batched.reason) == (split.best_energy, split.reason)


class TestDiagnosticsBehindTheEstimates:
    """Overlaps and tangles are computed in bounded batches after the estimates, each row as if alone."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_each_record_has_the_diagnostics_of_its_row_alone(self, monkeypatch, n):
        h = random_hamiltonian(np.random.default_rng([41, n]), n)
        spec = AnsatzSpec(n, 1)
        config = quick_nm(max_evaluations=150, stagnation_window=20)
        default = run_vqe(h, spec, ShotPolicy.fixed(100), config, seed=5)
        # Two rows a flush, so records are written while the optimizer runs.
        monkeypatch.setattr(vqesim.driver, "batch_rows", lambda n_qubits: 2)
        small = run_vqe(h, spec, ShotPolicy.fixed(100), config, seed=5)
        assert default.trace.restarts > 0
        spectrum = exact_spectrum(h)
        for a, b in zip(default.trace.records, small.trace.records, strict=True):
            alone = spec.prepare_batch(a.parameters[None])
            assert a.overlap == ground_space_overlaps(spectrum, alone)[0]
            assert a.tangle == (tangles(alone)[0] if n == 2 else None)
            assert a.parameters.tobytes() == b.parameters.tobytes()
            assert dataclasses.replace(a, parameters=None) == dataclasses.replace(b, parameters=None)

    def test_no_diagnostic_call_takes_more_than_the_bound_plus_one_batch(self, monkeypatch):
        n = 10
        spec = AnsatzSpec(n, 1)  # 60 parameters: a 61-row simplex
        bound = batch_rows(n)
        log, prepared = [], []
        overlaps = vqesim.driver.ground_space_overlaps

        def logged(spectrum, amplitudes):
            log.append(("diagnostics", len(amplitudes), amplitudes is prepared[-1]))
            return overlaps(spectrum, amplitudes)

        class LoggedAnsatz:
            parameter_count = spec.parameter_count

            def prepare_batch(self, batch):
                log.append(("batch", len(batch), None))
                prepared.append(spec.prepare_batch(batch))
                return prepared[-1]

        monkeypatch.setattr(vqesim.driver, "ground_space_overlaps", logged)
        h = PauliHamiltonian(n, [(1.0, "Z" * n), (0.5, "X" + "I" * (n - 1)), (-0.3, "I" * (n - 1) + "Y")])
        result = run_vqe(h, LoggedAnsatz(), ShotPolicy.fixed(100), quick_nm(max_evaluations=150), seed=1)
        assert log[0] == ("batch", spec.parameter_count + 1, None)
        pending, spanned = 0, False
        for kind, rows, uncopied in log:
            if kind == "batch":
                last = rows
                pending += rows
            else:
                assert rows == pending <= bound - 1 + last
                # One pending batch is handed on as it is; only several are concatenated.
                assert uncopied == (rows == last)
                spanned |= 1 < last < rows
                pending = 0
        # Some flush took rows left over from earlier calls besides a whole shrink or simplex.
        assert spanned and pending == 0
        assert sum(rows for kind, rows, _ in log if kind == "diagnostics") == result.trace.evaluations == 150


def _run_folded(hamiltonian, shift, seed):
    """Minimize <(H - shift)^2>; return the folded and plain energies of the best state."""
    ansatz = AnsatzSpec(2, 1)
    folded = shift_and_square(hamiltonian, shift)
    result = run_vqe(folded, ansatz, ShotPolicy.exact(), quick_nm(max_evaluations=6000), seed=seed)
    state = ansatz.prepare(result.best_parameters)
    return exact_energy(state, folded), exact_energy(state, hamiltonian), state


class TestRunFolded:
    @pytest.mark.parametrize("shift,expected", [(0.1, 0.0), (1.9, 2.0)])
    def test_recovers_nearest_eigenvalue(self, diag_hamiltonian, shift, expected):
        _, recovered_eigenvalue, _ = _run_folded(diag_hamiltonian, shift, seed=8)
        assert recovered_eigenvalue == pytest.approx(expected, abs=1e-4)

    def test_midpoint_tie_settles_in_the_degenerate_pair(self, diag_hamiltonian):
        # At an exact midpoint the folded ground space is the span of the
        # two neighboring eigenvectors: the folded objective reaches the
        # shared minimum (gap/2)^2 while <H> may land anywhere between
        # the two tied eigenvalues.
        folded_energy, recovered_eigenvalue, _ = _run_folded(diag_hamiltonian, 0.5, seed=9)
        assert folded_energy == pytest.approx(0.25, abs=1e-4)
        assert -1e-3 <= recovered_eigenvalue <= 1.0 + 1e-3

    def test_folded_consistency(self, diag_hamiltonian):
        shift = 0.1
        folded_energy, recovered_eigenvalue, state = _run_folded(diag_hamiltonian, shift, seed=10)
        m = np.diag([-1.0, 0.0, 1.0, 2.0]).astype(complex)
        energy = recovered_eigenvalue
        residual = np.linalg.norm(m @ state.amplitudes - energy * state.amplitudes)
        if residual < 1e-4:
            assert folded_energy == pytest.approx(
                (recovered_eigenvalue - shift) ** 2, abs=1e-6
            )


def _result_bytes(result):
    """Everything a result reports, as bytes and reprs: records, best point, reason and restarts."""
    records = [
        (rec.parameters.tobytes(), repr(dataclasses.replace(rec, parameters=None))) for rec in result.trace.records
    ]
    return (
        records, result.best_parameters.tobytes(), repr(result.best_energy), result.converged, result.reason,
        result.trace.restarts, repr(result.exact_ground_energy),
    )


def _sequential(ansatz, policy, config, plan):
    """Each job alone through run_vqe, one after another: the results before the first error, and that error."""
    results = []
    for hamiltonian, seed in plan:
        try:
            results.append(run_vqe(hamiltonian, ansatz, policy, config, seed=seed))
        except ValueError as exc:
            return results, exc
    return results, None


# 1.3e308 Z + 1.3e308 X on seed 1 leaves the float range at step 53 of Nelder-Mead; at
# 1.7e308 on the same seed it does so at step 7, before any job beside it has ended.
LATE_OVERFLOW = (PauliHamiltonian(1, [(1.3e308, "Z"), (1.3e308, "X")]), 1)
EARLY_OVERFLOW = (PauliHamiltonian(1, [(1.7e308, "Z"), (1.7e308, "X")]), 1)


class TestLockstep:
    """A plan's jobs run together give, job for job, the bytes each gives alone."""

    @pytest.mark.parametrize(
        "n, policy, config",
        [
            # Two jobs end on the tolerance, three on the budget.
            (1, ShotPolicy.exact(), quick_nm(max_evaluations=205, restart_limit=0)),
            # Four jobs end on the restart limit, one on the budget.
            (2, ShotPolicy.fixed(100), quick_nm(max_evaluations=150, stagnation_window=15, restart_limit=2)),
            (1, ShotPolicy.fixed(100), GradientDescentConfig(max_evaluations=60)),
            (2, ShotPolicy.exact(), GradientDescentConfig(max_evaluations=60)),
        ],
        ids=["1q-exact-nm", "2q-shots-nm", "1q-shots-gd", "2q-exact-gd"],
    )
    @pytest.mark.parametrize("flush", [None, 2], ids=["flush-at-bound", "flush-every-2"])
    def test_jobs_give_the_bytes_they_give_alone(self, monkeypatch, n, policy, config, flush):
        rng = np.random.default_rng([51, n])
        plan = [(random_hamiltonian(rng, n), 10 + k) for k in range(5)]
        ansatz = CountingAnsatz(AnsatzSpec(n, 1))
        alone, error = _sequential(ansatz.spec, policy, config, plan)
        assert error is None
        if flush is not None:
            monkeypatch.setattr(vqesim.driver, "batch_rows", lambda n_qubits: flush)
        jobs = [(h, shot_budget(h, policy), seed) for h, seed in plan]
        together, error = run_jobs(ansatz, jobs, config)
        assert error is None
        assert [_result_bytes(r) for r in together] == [_result_bytes(r) for r in alone]
        assert ansatz.prepares == sum(r.trace.evaluations for r in alone)
        if isinstance(config, NelderMeadConfig):
            # The jobs end at different steps, for different reasons.
            assert len({r.trace.evaluations for r in alone}) > 1
            assert len({r.reason for r in alone}) > 1

    def test_the_first_failing_job_in_order_is_the_error(self, monkeypatch):
        plan = [
            (random_hamiltonian(np.random.default_rng(52), 1), 3),
            LATE_OVERFLOW,
            (PauliHamiltonian(1, [(1.0, "X")]), 4),
            EARLY_OVERFLOW,
        ]
        config = quick_nm(max_evaluations=300)
        alone, expected = _sequential(AnsatzSpec(1, 1), ShotPolicy.exact(), config, plan)
        assert len(alone) == 1 and isinstance(expected, ObjectiveValueError)
        with pytest.raises(ObjectiveValueError) as early:
            run_vqe(EARLY_OVERFLOW[0], AnsatzSpec(1, 1), ShotPolicy.exact(), config, seed=EARLY_OVERFLOW[1])
        assert str(early.value) != str(expected)
        estimate_energy = vqesim.driver.estimate_energy
        estimates = {id(h): 0 for h, _ in plan}

        def counted(expectations, measurement, iteration):
            estimates[id(measurement.hamiltonian)] += 1
            return estimate_energy(expectations, measurement, iteration=iteration)

        monkeypatch.setattr(vqesim.driver, "estimate_energy", counted)
        jobs = [(h, shot_budget(h, ShotPolicy.exact()), seed) for h, seed in plan]
        together, error = run_jobs(AnsatzSpec(1, 1), jobs, config)
        assert type(error) is ObjectiveValueError and str(error) == str(expected)
        assert [_result_bytes(r) for r in together] == [_result_bytes(r) for r in alone]
        # Job 3 failed first, at step 7; job 0 ran to its end, and job 2 stopped when job 1 failed.
        assert list(estimates.values()) == [alone[0].trace.evaluations, 53, 53, 7]
        assert alone[0].trace.evaluations == 300

    def test_pending_rows_hold_their_own_amplitudes(self, monkeypatch):
        """With several jobs live, no job's pending rows are a view of the round's batch."""
        spec = AnsatzSpec(2, 1)
        prepared = []
        overlaps = vqesim.driver.ground_space_overlaps

        class RecordingAnsatz:
            parameter_count = spec.parameter_count

            def prepare_batch(self, batch):
                prepared.append(spec.prepare_batch(batch))
                return prepared[-1]

        def checked(spectrum, amplitudes):
            for array in prepared:
                assert amplitudes is array or not np.shares_memory(amplitudes, array)
            return overlaps(spectrum, amplitudes)

        monkeypatch.setattr(vqesim.driver, "ground_space_overlaps", checked)
        monkeypatch.setattr(vqesim.driver, "batch_rows", lambda n_qubits: 3)
        rng = np.random.default_rng(53)
        hamiltonians = [random_hamiltonian(rng, 2) for _ in range(3)]
        jobs = [(h, shot_budget(h, ShotPolicy.fixed(50)), seed) for seed, h in enumerate(hamiltonians)]
        results, error = run_jobs(RecordingAnsatz(), jobs, quick_nm(max_evaluations=80))
        assert error is None and [r.trace.evaluations for r in results] == [80, 80, 80]
        # Every round but the last ones prepared all three jobs' rows in one batch.
        assert len(prepared) < 80
