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
    nelder_mead,
    run_vqe,
    shift_and_square,
)
import vqesim.driver
from vqesim.analysis import ground_space_overlaps, tangles
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
            results.append(nelder_mead(*args))
            return results[-1]

        monkeypatch.setattr(vqesim.driver, "nelder_mead", recording_nelder_mead)
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
        gradient_descent = vqesim.driver.gradient_descent

        def one_by_one(objective, x0, config):
            def rows(batch):
                batches.append(len(batch))
                return [value for row in batch for value in objective(row[None])]

            return gradient_descent(rows, x0, config)

        batched = run_vqe(h, AnsatzSpec(n, 1), policy, config, seed=3)
        monkeypatch.setattr(vqesim.driver, "gradient_descent", one_by_one)
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
