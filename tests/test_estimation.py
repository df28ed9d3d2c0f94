import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import estimate_state, expectation, random_hamiltonian, random_state, term_row
from reference import pauli_expectation
from vqesim import (
    AnsatzSpec,
    NelderMeadConfig,
    PauliHamiltonian,
    ShotPolicy,
    StateVector,
    estimate_energy,
    exact_energy,
    prepare,
    random_initial_parameters,
    run_vqe,
    shot_budget,
)
import vqesim.driver
from vqesim import estimation, statevector
from vqesim.estimation import MAX_TERM_SHOTS, STREAM_INIT, STREAM_SCAN, Measurement, derive_seed, derived_generator
from vqesim.statevector import basis_state, batch_term_expectations


def plus() -> StateVector:
    return StateVector(1, np.array([1, 1]) / np.sqrt(2))


def sample_term(state: StateVector, label: str, shots: int, seed: int, iteration: int = 0):
    """(mean, std error) of one term: <H> for H = 1.0 * label at `shots` shots."""
    h = PauliHamiltonian(state.n_qubits, [(1.0, label)])
    estimate = estimate_state(state, h, shot_budget(h, ShotPolicy.fixed(shots)), seed, iteration)
    return estimate.value, estimate.std_error


def term_budget(policy: ShotPolicy, coefficient: float) -> int:
    """The shots `shot_budget` gives one measured term of this coefficient."""
    (shots,) = shot_budget(PauliHamiltonian(1, [(coefficient, "Z")]), policy)
    return shots


class TestRngStream:
    """Each (seed, iteration) pair selects one evaluation's sampling stream."""

    def test_same_label_reproduces(self):
        h = random_hamiltonian(np.random.default_rng(1), 2)
        state = random_state(np.random.default_rng(2), 2)
        a = estimate_state(state, h, shot_budget(h, ShotPolicy.fixed(100)), 9, iteration=7)
        b = estimate_state(state, h, shot_budget(h, ShotPolicy.fixed(100)), 9, iteration=7)
        assert a == b

    def test_labels_decorrelate(self):
        h = random_hamiltonian(np.random.default_rng(1), 2)
        state = random_state(np.random.default_rng(2), 2)
        a = estimate_state(state, h, shot_budget(h, ShotPolicy.fixed(100)), 9, iteration=0)
        b = estimate_state(state, h, shot_budget(h, ShotPolicy.fixed(100)), 9, iteration=1)
        assert a.value != b.value

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError):
            sample_term(plus(), "Z", 10, 9, iteration=-1)


class TestStreamContract:
    """A run keys one Philox stream; each evaluation's label is its counter (0, 0, iteration, 0)."""

    SHOTS = np.array([10, 1000, 10**6, 7])
    P_PLUS = np.array([0.5, 0.1, 0.93, 1.0])

    @staticmethod
    def draws(generator):
        return generator.binomial(TestStreamContract.SHOTS, TestStreamContract.P_PLUS).tolist() + generator.integers(
            0, 2**63, size=3
        ).tolist()

    @pytest.mark.parametrize("label", [0, 1, 2**32, 2**64 - 1])
    def test_relabelled_stream_is_a_fresh_philox(self, label):
        h = PauliHamiltonian(1, [(1.0, "Z")])
        measurement = Measurement(h, (100,), 17)
        key = np.random.Philox(estimation._seed_sequence(17, estimation.STREAM_SAMPLING)).state["state"]["key"]
        fresh = np.random.Generator(np.random.Philox(counter=np.array([0, 0, label, 0], dtype=np.uint64), key=key))
        self.draws(measurement.stream(5))  # a draw at another label first leaves nothing behind
        assert self.draws(measurement.stream(label)) == self.draws(fresh)

    def test_draws_at_a_label_do_not_depend_on_earlier_labels(self):
        h = PauliHamiltonian(1, [(1.0, "Z")])
        labels = [3, 0, 2**40, 3, 1, 2**64 - 1, 0]
        alone = {label: self.draws(Measurement(h, (100,), 8).stream(label)) for label in labels}
        measurement = Measurement(h, (100,), 8)
        for label in labels:
            assert self.draws(measurement.stream(label)) == alone[label]
            measurement.stream(label).integers(0, 10, size=label % 5)  # a part-used buffer

    @pytest.mark.parametrize("label", [-1, 2**64, 1.0, True])
    def test_label_outside_64_bits_rejected(self, label):
        measurement = Measurement(PauliHamiltonian(1, [(1.0, "Z")]), (100,), 8)
        with pytest.raises(ValueError, match="^stream label must be an integer in"):
            measurement.stream(label)

    def test_a_run_keys_one_stream(self, monkeypatch):
        namespaces = []
        seed_sequence = estimation._seed_sequence

        def recording(seed, namespace, *key):
            namespaces.append(namespace)
            return seed_sequence(seed, namespace, *key)

        monkeypatch.setattr(estimation, "_seed_sequence", recording)
        h = random_hamiltonian(np.random.default_rng(5), 2)
        result = run_vqe(h, AnsatzSpec(2, 1), ShotPolicy.fixed(20), NelderMeadConfig(max_evaluations=40), seed=3)
        assert result.trace.evaluations == 40
        assert sorted(namespaces) == [estimation.STREAM_SAMPLING, STREAM_INIT]

    def test_run_rows_are_single_estimates_at_their_labels(self):
        h = random_hamiltonian(np.random.default_rng(6), 2)
        spec = AnsatzSpec(2, 1)
        result = run_vqe(h, spec, ShotPolicy.fixed(30), NelderMeadConfig(max_evaluations=30), seed=4)
        term_shots = shot_budget(h, ShotPolicy.fixed(30))
        for rec in result.trace.records:
            alone = estimate_state(spec.prepare(rec.parameters), h, term_shots, 4, rec.iteration)
            assert (alone.value, alone.std_error) == (rec.energy_estimate, rec.std_error)


class TestSeedRule:
    """Every generator and child seed checks the seed the same way."""

    @pytest.mark.parametrize(
        "derive",
        [
            lambda seed: estimate_energy(np.zeros(1), Measurement(PauliHamiltonian(1, [(1.0, "Z")]), (10,), seed)),
            lambda seed: derive_seed(seed, STREAM_SCAN, 0),
            lambda seed: derived_generator(seed, STREAM_INIT),
            lambda seed: random_initial_parameters(3, seed),
        ],
        ids=["estimate_energy", "derive_seed", "derived_generator", "random_initial_parameters"],
    )
    def test_seed_past_64_bits_rejected(self, derive):
        derive(2**64 - 1)
        for bad in (2**64, -1):
            with pytest.raises(ValueError, match="^seed must fit in 64 unsigned bits$"):
                derive(bad)

    @pytest.mark.parametrize(
        "derive",
        [
            lambda seed: run_vqe(PauliHamiltonian(1, [(1.0, "Z")]), AnsatzSpec(1, 1), ShotPolicy.exact(),
                                 NelderMeadConfig(max_evaluations=5), seed=seed),
            lambda seed: derive_seed(seed, STREAM_SCAN, 0),
            lambda seed: derived_generator(seed, STREAM_INIT),
            lambda seed: random_initial_parameters(3, seed),
        ],
        ids=["run_vqe", "derive_seed", "derived_generator", "random_initial_parameters"],
    )
    @pytest.mark.parametrize("bad", [True, False, 1.5, 1.0, np.float64(2.0)], ids=repr)
    def test_bool_or_float_seed_rejected(self, derive, bad):
        # True would run as seed 1, and 1.5 failed inside numpy with a TypeError.
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(bad))}$"):
            derive(bad)

    @pytest.mark.parametrize("policy", [ShotPolicy.exact(), ShotPolicy.fixed(10)], ids=ShotPolicy.describe)
    @pytest.mark.parametrize("x0", [None, np.zeros(6)], ids=["random-x0", "given-x0"])
    def test_run_vqe_rejects_the_seed_before_any_evaluation(self, monkeypatch, policy, x0):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("evaluated with a bad seed")

        monkeypatch.setattr(vqesim.driver, "estimate_energy", no_evaluation)
        h = PauliHamiltonian(1, [(1.0, "Z"), (0.5, "X")])
        with pytest.raises(ValueError, match="^seed must fit in 64 unsigned bits$"):
            run_vqe(h, AnsatzSpec(1, 1), policy, NelderMeadConfig(max_evaluations=5), seed=2**64, x0=x0)


class TestShotPolicy:
    def test_parse_forms(self):
        assert ShotPolicy.parse("exact").mode == "exact"
        assert ShotPolicy.parse("shots:1000").shots == 1000
        assert ShotPolicy.parse("precision:0.01").precision == 0.01

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            ShotPolicy.parse("budget:3")

    @pytest.mark.parametrize("text", ["shots:1e3", "shots:", "shots", "precision:abc", "budget:3"])
    def test_parse_error_names_the_forms(self, text):
        with pytest.raises(ValueError) as info:
            ShotPolicy.parse(text)
        message = str(info.value)
        assert repr(text) in message
        assert all(form in message for form in ("exact", "shots:<integer>", "precision:<number>"))

    @pytest.mark.parametrize("bad", [0, 1, -5, 2**63, 2.7, 100.0, True, "100", None])
    def test_shots_validated(self, bad):
        with pytest.raises(ValueError):
            ShotPolicy.fixed(bad)
        with pytest.raises(ValueError):
            ShotPolicy("shots", shots=bad)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, True, "0.1", None])
    def test_precision_validated(self, bad):
        with pytest.raises(ValueError):
            ShotPolicy("precision", precision=bad)

    def test_precision_shot_rule(self):
        policy = ShotPolicy("precision", precision=0.01)
        assert term_budget(policy, 1.0) == 10_000
        assert term_budget(policy, 0.5) == 2_500
        # Two shots are the fewest whose spread gives a standard error.
        assert term_budget(policy, 0.0) == 2
        assert term_budget(ShotPolicy("precision", precision=0.1), 0.05) == 2

    def test_precision_shot_count_bounded(self):
        # h^2 / p^2 shots: 2**62 fits a 64-bit count, 2**64 does not.
        policy = ShotPolicy("precision", precision=2.0**-31)
        assert term_budget(policy, 1.0) == 2**62
        with pytest.raises(ValueError, match="2\\*\\*63 - 1"):
            term_budget(policy, 2.0)


class TestSamplePauli:
    """One coefficient-1 term: its estimate is the term's sampled mean."""

    def test_deterministic_outcome(self):
        mean, err = sample_term(basis_state(1, 0), "Z", 500, 1)
        assert mean == 1.0 and err == 0.0

    def test_identity_bypasses_sampling(self):
        state = random_state(np.random.default_rng(0), 2)
        assert sample_term(state, "II", 3, 1) == (1.0, 0.0)

    def test_plus_z_within_binomial_band(self):
        shots = 10_000
        mean, err = sample_term(plus(), "Z", shots, 5)
        assert abs(mean) <= 5.0 / math.sqrt(shots)
        assert err == pytest.approx(1.0 / math.sqrt(shots), rel=0.05)

    def test_shots_guard(self):
        with pytest.raises(ValueError):
            sample_term(plus(), "Z", 0, 1)

    def test_mismatch(self):
        h = PauliHamiltonian(2, [(1.0, "ZZ")])
        with pytest.raises(ValueError):
            exact_energy(plus(), h)

    def test_reproducible(self):
        state = random_state(np.random.default_rng(2), 2)
        a = sample_term(state, "XY", 200, 3, iteration=4)
        b = sample_term(state, "XY", 200, 3, iteration=4)
        assert a == b

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_mean_in_range(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, 2)
        label = "".join(rng.choice(list("IXYZ"), size=2))
        mean, _ = sample_term(state, label, 50, seed)
        assert -1.0 <= mean <= 1.0

    def test_unbiased_over_seeds(self):
        state = random_state(np.random.default_rng(8), 1)
        truth = expectation(state, "X")
        shots = 64
        means, errs = [], []
        for seed in range(1000):
            m, e = sample_term(state, "X", shots, seed)
            means.append(m)
            errs.append(e)
        grand = np.mean(means)
        pooled = np.sqrt(np.mean(np.square(errs)) / len(means))
        assert abs(grand - truth) < 5.0 * pooled

    def test_error_scales_as_inverse_sqrt_shots(self):
        stds = []
        for shots in (100, 10_000):
            estimates = [sample_term(plus(), "Z", shots, seed)[0] for seed in range(120)]
            stds.append(np.std(estimates))
        ratio = stds[0] / stds[1]
        assert ratio == pytest.approx(10.0, rel=0.25)


def z_eigen_mix(expectation: float) -> StateVector:
    """One qubit with <Z> = expectation."""
    theta = math.acos(expectation)
    return StateVector(1, np.array([math.cos(theta / 2), math.sin(theta / 2)]))


def binomial_pmf(shots: int, p: float) -> np.ndarray:
    logs = [
        math.lgamma(shots + 1) - math.lgamma(k + 1) - math.lgamma(shots - k + 1)
        + k * math.log(p) + (shots - k) * math.log1p(-p)
        for k in range(shots + 1)
    ]
    return np.exp(logs)


def chi_square_critical(dof: int, z: float = 3.09) -> float:
    """Wilson-Hilferty upper quantile of chi-square; z = 3.09 is p = 0.001."""
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + z * math.sqrt(a)) ** 3


class TestCountLaw:
    """Each term's +1 count is one Binomial(shots, (1 + <P>)/2) draw.

    Every stream label is an evaluation's iteration index.
    """

    @pytest.mark.parametrize("shots,expectation", [(10, 0.3), (100, -0.8), (1000, 0.95)])
    def test_counts_follow_the_binomial_law(self, shots, expectation):
        state = z_eigen_mix(expectation)
        streams = 4000
        counts = np.zeros(shots + 1)
        for label in range(streams):
            mean, _ = sample_term(state, "Z", shots, 13, iteration=label)
            counts[round(shots * (1.0 + mean) / 2.0)] += 1
        expected = streams * binomial_pmf(shots, (1.0 + expectation) / 2.0)
        # Pool neighbouring counts until every bin expects at least 5.
        observed_bins, expected_bins = [], []
        o_acc = e_acc = 0.0
        for o, e in zip(counts, expected):
            o_acc, e_acc = o_acc + o, e_acc + e
            if e_acc >= 5.0:
                observed_bins.append(o_acc)
                expected_bins.append(e_acc)
                o_acc = e_acc = 0.0
        observed_bins[-1] += o_acc
        expected_bins[-1] += e_acc
        observed_bins, expected_bins = np.array(observed_bins), np.array(expected_bins)
        statistic = float(np.sum((observed_bins - expected_bins) ** 2 / expected_bins))
        assert len(observed_bins) >= 3
        assert statistic < chi_square_critical(len(observed_bins) - 1)

    @pytest.mark.parametrize("shots", [2, 7, 100])
    def test_std_error_is_the_ddof1_figure(self, shots):
        state = z_eigen_mix(0.2)
        for label in range(20):
            mean, err = sample_term(state, "Z", shots, 4, iteration=label)
            plus = round(shots * (1.0 + mean) / 2.0)
            outcomes = np.array([1.0] * plus + [-1.0] * (shots - plus))
            assert mean == pytest.approx(outcomes.mean(), abs=1e-15)
            assert err == pytest.approx(outcomes.std(ddof=1) / math.sqrt(shots), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("shots", [10**12, MAX_TERM_SHOTS])
    def test_huge_shot_counts_need_no_shot_array(self, shots):
        state = random_state(np.random.default_rng(21), 2)
        truth = expectation(state, "XY")
        start = time.perf_counter()
        mean, err = sample_term(state, "XY", shots, 8)
        assert time.perf_counter() - start < 1.0
        assert abs(mean - truth) <= 5.0 * math.sqrt((1.0 - truth * truth) / shots)
        assert err == pytest.approx(math.sqrt((1.0 - mean * mean) / (shots - 1)))


class TestEstimateEnergy:
    def test_exact_mode_matches_linearity(self):
        rng = np.random.default_rng(4)
        h = random_hamiltonian(rng, 2)
        spec = AnsatzSpec(2, 1)
        params = rng.uniform(-np.pi, np.pi, spec.parameter_count)
        estimate = estimate_state(spec.prepare(params), h, shot_budget(h, ShotPolicy.exact()), 0)
        state = spec.prepare(params)
        by_terms = sum(c * e for (c, _), e in zip(h.terms, term_row(state, h)))
        assert estimate.value == pytest.approx(by_terms, abs=1e-10)
        assert estimate.std_error == 0.0 and estimate.total_shots == 0

    def test_identity_only_is_noiseless(self):
        h = PauliHamiltonian(2, [(2.0, "II")])
        spec = AnsatzSpec(2, 1)
        estimate = estimate_state(spec.prepare(np.zeros(12)), h, shot_budget(h, ShotPolicy.fixed(100)), 1)
        assert estimate.value == 2.0 and estimate.std_error == 0.0
        assert estimate.total_shots == 0

    def test_precision_allocation(self):
        h = PauliHamiltonian(1, [(1.0, "Z")])
        spec = AnsatzSpec(1, 1)
        estimate = estimate_state(
            spec.prepare(np.zeros(6)), h, shot_budget(h, ShotPolicy("precision", precision=0.01)), 2
        )
        assert estimate.term_shots == (10_000,)
        assert estimate.total_shots == 10_000

    def test_fixed_shots_agrees_with_exact_within_errors(self):
        rng = np.random.default_rng(6)
        h = random_hamiltonian(rng, 2)
        spec = AnsatzSpec(2, 1)
        params = rng.uniform(-np.pi, np.pi, spec.parameter_count)
        estimate = estimate_state(spec.prepare(params), h, shot_budget(h, ShotPolicy.fixed(100_000)), 3)
        truth = exact_energy(spec.prepare(params), h)
        assert abs(estimate.value - truth) <= 5.0 * estimate.std_error

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        h = random_hamiltonian(rng, 2)
        spec = AnsatzSpec(2, 1)
        params = rng.uniform(-np.pi, np.pi, spec.parameter_count)
        a = estimate_state(spec.prepare(params), h, shot_budget(h, ShotPolicy.fixed(500)), 11, iteration=4)
        b = estimate_state(spec.prepare(params), h, shot_budget(h, ShotPolicy.fixed(500)), 11, iteration=4)
        assert a == b

    def test_iteration_label_changes_noise(self):
        rng = np.random.default_rng(7)
        h = random_hamiltonian(rng, 2)
        spec = AnsatzSpec(2, 1)
        params = rng.uniform(-np.pi, np.pi, spec.parameter_count)
        a = estimate_state(spec.prepare(params), h, shot_budget(h, ShotPolicy.fixed(500)), 11, iteration=0)
        b = estimate_state(spec.prepare(params), h, shot_budget(h, ShotPolicy.fixed(500)), 11, iteration=1)
        assert a.value != b.value

    def test_callable_preparation(self):
        h = PauliHamiltonian(1, [(1.0, "Z")])
        estimate = estimate_state(basis_state(1, 0), h, shot_budget(h, ShotPolicy.fixed(50)), 0)
        assert estimate.value == 1.0

    @pytest.mark.parametrize("policy", [ShotPolicy.exact(), ShotPolicy.fixed(10)])
    def test_state_size_checked_for_identity_only(self, policy):
        # The reduction checks the state's width; the estimator, handed a row, checks its length.
        h = PauliHamiltonian(2, [(2.0, "II")])
        with pytest.raises(ValueError, match=re.escape("Hamiltonian acts on 2 qubits, amplitudes have shape (1, 2)")):
            estimate_state(plus(), h, shot_budget(h, policy), 0)


class TestTermDraws:
    """Each measured term's count is one scalar draw, in term order: the counts of one array draw."""

    @pytest.mark.parametrize("shots", [2, 100, 10**10, MAX_TERM_SHOTS])
    def test_estimates_take_the_counts_of_one_array_draw(self, shots):
        # <P> just past -1 and 1 clips p to 0 and 1; the other terms spread over [-1, 1].
        rng = np.random.default_rng([shots % 2**32, 30])
        labels = ["".join("IXYZ"[(k >> (2 * q)) & 3] for q in range(3)) for k in range(1, 12)]  # 11 measured
        row = np.array([0.0, -1.0 - 2**-51, 1.0 + 2**-51, -1.0, 1.0, 0.0, *rng.uniform(-1, 1, 6)])
        coefficients = rng.uniform(-1, 1, 11).tolist()
        h = PauliHamiltonian(3, [(0.5, "III")] + list(zip(coefficients, labels)))
        measurement = Measurement(h, shot_budget(h, ShotPolicy.fixed(shots)), 17)
        p_plus = [min(1.0, max(0.0, (1.0 + e) / 2.0)) for e in row[1:].tolist()]
        assert p_plus[:4] == [0.0, 1.0, 0.0, 1.0]
        for iteration in range(20):
            counts = measurement.stream(iteration).binomial(np.full(11, shots, dtype=np.int64), p_plus).tolist()
            assert counts[:4] == [0, shots, 0, shots]
            value = 0.5
            for coeff, plus in zip(coefficients, counts):
                value += coeff * ((2 * plus - shots) / shots)
            assert estimate_energy(row, measurement, iteration).value == value


class TestTermShots:
    """The estimator draws exactly the shots it is given, one entry per term."""

    H = PauliHamiltonian(1, [(0.5, "I"), (1.0, "X"), (2.0, "Z")])

    @pytest.mark.parametrize("term_shots", [(100, 100), (0, 100, 100, 100), ()])
    def test_wrong_length_names_both_counts(self, term_shots):
        message = f"term_shots has {len(term_shots)} entries, the Hamiltonian 3 terms"
        with pytest.raises(ValueError, match=f"^{message}$"):
            Measurement(self.H, term_shots, 1)

    @pytest.mark.parametrize("term_shots,label", [((0, 100, 0), "Z"), ((0, 0, 100), "X")])
    def test_measured_term_without_shots_names_its_label(self, term_shots, label):
        with pytest.raises(ValueError, match=f"^term {label} is measured but takes 0 shots$"):
            Measurement(self.H, term_shots, 1)

    def test_measured_term_with_one_shot_is_refused(self):
        with pytest.raises(ValueError, match="^term X takes 1 shot; a standard error needs 2$"):
            Measurement(self.H, (0, 1, 100), 1)

    @pytest.mark.parametrize("term_shots", [(0, 0), (100, 0)], ids=["exact", "shots"])
    @pytest.mark.parametrize("row", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]], ids=["short", "long", "2d"])
    def test_expectations_of_another_shape_name_both_counts(self, term_shots, row):
        # For 2.0 Z + 0.5 I, the row [1.0] once summed to 2.0 instead of 2.5: the sums stopped at the shorter.
        h = PauliHamiltonian(1, [(2.0, "Z"), (0.5, "I")])
        row = np.array(row)
        message = re.escape(f"expectations have shape {row.shape}, the Hamiltonian 2 terms")
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_energy(row, Measurement(h, term_shots, 1))
        assert estimate_energy(np.array([1.0, 1.0]), Measurement(h, (0, 0), 1)).value == 2.5

    def test_identity_terms_alone_are_their_coefficient_sum(self):
        # <II> of this state rounds to 1 - 2**-53; a constant is read exactly under any shots.
        state = random_state(np.random.default_rng(0), 2)
        h = PauliHamiltonian(2, [(1.0, "II")])
        assert estimate_state(state, h, (0,), 1).value == 1.0 != exact_energy(state, h)

    def test_no_shots_is_exact(self):
        estimate = estimate_state(basis_state(1, 1), self.H, (0, 0, 0), 1)
        assert estimate.value == estimate.exact_value == exact_energy(basis_state(1, 1), self.H) == -1.5
        assert estimate.std_error == 0.0 and estimate.total_shots == 0


class TestOnePass:
    """One evaluation reduces every term's expectation at once and draws once."""

    POLICIES = [ShotPolicy.exact(), ShotPolicy.fixed(100), ShotPolicy("precision", precision=0.05)]

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.describe())
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_value_is_exact_energy_bit_for_bit(self, policy, seed):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 3
        h = random_hamiltonian(rng, n)
        state = random_state(rng, n)
        estimate = estimate_state(state, h, shot_budget(h, policy), seed, iteration=seed)
        assert estimate.exact_value == exact_energy(state, h)
        if policy.mode == "exact":
            assert estimate.value == estimate.exact_value

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.describe())
    def test_one_generator_and_one_expectation_per_term(self, monkeypatch, policy):
        calls = {"stream": 0, "batch_term_expectations": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Measurement, "stream", counted("stream", Measurement.stream))
        reduction = counted("batch_term_expectations", statevector.batch_term_expectations)
        monkeypatch.setattr(statevector, "batch_term_expectations", reduction)
        h = random_hamiltonian(np.random.default_rng(3), 2)
        amplitudes = random_state(np.random.default_rng(4), 2).amplitudes[None]
        row = statevector.batch_term_expectations(amplitudes, h)[0]
        estimate_energy(row, Measurement(h, shot_budget(h, policy), 5), iteration=2)
        # The row's one table reduction gives every term's expectation; the estimate adds none,
        # and one relabelled stream gives every count.
        assert calls["batch_term_expectations"] == 1
        assert calls["stream"] == (0 if policy.mode == "exact" else 1)

    def test_run_vqe_computes_each_expectation_once_per_evaluation(self, monkeypatch):
        rows = []

        def counted(amplitudes, h):
            rows.append((len(amplitudes), h))
            return batch_term_expectations(amplitudes, h)

        monkeypatch.setattr(vqesim.driver, "batch_term_expectations", counted)
        h = random_hamiltonian(np.random.default_rng(6), 2)
        result = run_vqe(h, AnsatzSpec(2, 1), ShotPolicy.fixed(50), NelderMeadConfig(max_evaluations=20), seed=1)
        # One reduction per batch: the 13-vertex simplex, then single points.
        assert [n for n, _ in rows][:2] == [13, 1]
        assert sum(n for n, _ in rows) == result.trace.evaluations
        assert all(c is h for _, c in rows)
        # The table is built once per Hamiltonian and kept.
        assert h.action_table is h.action_table

    @pytest.mark.parametrize("n", [1, 2, 8, 10, 12])
    def test_table_matches_the_dense_oracle(self, n):
        rng = np.random.default_rng(n)
        y_heavy = ["".join(rng.choice(list("IXYZ"), size=n, p=[0.1, 0.1, 0.7, 0.1])) for _ in range(12)]
        mixed = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(12)]
        labels = list(dict.fromkeys(["I" * n, "Y" * n, "X" * n, "Z" * n, *y_heavy, *mixed]))
        h = PauliHamiltonian(n, [(1.0, label) for label in labels])
        state = random_state(rng, n)
        expected = [pauli_expectation(state.amplitudes, label) for label in labels]
        assert np.max(np.abs(term_row(state, h) - expected)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 10, 12])
    def test_each_term_has_the_bytes_of_that_term_alone(self, n):
        # 40 terms span several chunks of the table at 10 and 12 qubits; alone, a term is one chunk.
        rng = np.random.default_rng([n, 40])
        labels = list(dict.fromkeys("".join(rng.choice(list("IXYZ"), size=n)) for _ in range(40)))
        h = PauliHamiltonian(n, [(1.0, label) for label in labels])
        state = random_state(rng, n)
        alone = [term_row(state, PauliHamiltonian(n, [(1.0, label)])) for label in labels]
        assert term_row(state, h).tobytes() == np.concatenate(alone).tobytes()

    @pytest.mark.parametrize("n", [2, 8, 10])
    def test_batch_rows_give_the_bytes_of_a_batch_of_one(self, n):
        rng = np.random.default_rng([n, 7])
        h = random_hamiltonian(rng, n, labels=["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(20)])
        spec = AnsatzSpec(n, 2)
        # One row more than a 10-qubit chunk, so the 10-qubit batch spans two chunks.
        batch = rng.uniform(-np.pi, np.pi, ((statevector._BATCH_AMPLITUDES >> 10) + 1, spec.parameter_count))
        term_shots = shot_budget(h, ShotPolicy.fixed(100))
        measurement = Measurement(h, term_shots, 3)
        for params, row in zip(batch, batch_term_expectations(prepare(spec, batch), h)):
            alone = spec.prepare(params)
            assert row.tobytes() == term_row(alone, h).tobytes()
            assert estimate_energy(row, measurement) == estimate_state(alone, h, term_shots, 3)

    def test_precision_std_error_matches_spread(self):
        # Unequal per-term shots under the precision rule: 324, 36, 100 and 16.
        h = PauliHamiltonian(2, [(0.9, "ZI"), (0.3, "XX"), (-0.5, "IZ"), (0.2, "YY"), (0.4, "II")])
        policy = ShotPolicy("precision", precision=0.05)
        state = random_state(np.random.default_rng(10), 2)
        estimates = [estimate_state(state, h, shot_budget(h, policy), 12, iteration=j) for j in range(2000)]
        assert estimates[0].term_shots == (324, 36, 100, 16, 0)
        values = np.array([e.value for e in estimates])
        reported = math.sqrt(np.mean([e.std_error**2 for e in estimates]))
        # The sample std of 2000 values is good to about 1/sqrt(4000) = 1.6%.
        assert np.std(values, ddof=1) == pytest.approx(reported, rel=0.08)
        assert abs(values.mean() - exact_energy(state, h)) < 5.0 * reported / math.sqrt(len(values))


class TestShotBudget:
    def test_smallest_precision_budget_reports_its_spread(self):
        # precision:0.1 prices a 0.05 coefficient at the floor of 2 shots; one shot would report 0.0.
        h = PauliHamiltonian(1, [(0.05, "Z")])
        term_shots = shot_budget(h, ShotPolicy("precision", precision=0.1))
        assert term_shots == (2,)
        measurement = Measurement(h, term_shots, 12)
        row = term_row(z_eigen_mix(0.3), h)
        estimates = [estimate_energy(row, measurement, iteration=j) for j in range(4000)]
        values = np.array([e.value for e in estimates])
        reported = math.sqrt(np.mean([e.std_error**2 for e in estimates]))
        # 0.05 * sqrt((1 - 0.3^2) / 2) = 0.0337; the ddof=1 variance is unbiased, so its mean matches.
        assert reported == pytest.approx(0.05 * math.sqrt(0.91 / 2), rel=0.05)
        assert np.std(values, ddof=1) == pytest.approx(reported, rel=0.05)

    def test_literal_rule_over_all_terms(self):
        h = PauliHamiltonian(2, [(1.0, "II"), (0.5, "ZZ")])
        per_term = shot_budget(h, ShotPolicy("precision", precision=0.1))
        # The identity term is a constant: never measured, never charged.
        assert per_term == (0, 25) and sum(per_term) == 25

    def test_fixed_mode(self):
        h = PauliHamiltonian(1, [(1.0, "Z")])
        per_term = shot_budget(h, ShotPolicy.fixed(77))
        assert per_term == (77,) and sum(per_term) == 77

    def test_exact_mode(self):
        h = PauliHamiltonian(1, [(1.0, "Z")])
        per_term = shot_budget(h, ShotPolicy.exact())
        assert per_term == (0,) and sum(per_term) == 0

    @pytest.mark.parametrize(
        "policy", [ShotPolicy.exact(), ShotPolicy.fixed(30), ShotPolicy("precision", precision=0.2)], ids=ShotPolicy.describe
    )
    def test_estimate_draws_the_budget(self, policy):
        h = PauliHamiltonian(2, [(0.3, "II"), (-0.6, "ZI"), (0.5, "XX")])
        estimate = estimate_state(AnsatzSpec(2, 1).prepare(np.full(12, 0.3)), h, shot_budget(h, policy), 4)
        per_term = shot_budget(h, policy)
        assert estimate.term_shots == per_term and estimate.total_shots == sum(per_term)

    def test_numpy_integer_shots_stay_exact(self):
        # 2k - s for counts near 2**63 fits only in Python ints.
        policy = ShotPolicy.fixed(np.int64(MAX_TERM_SHOTS))
        h = PauliHamiltonian(1, [(1.0, "X")])
        estimate = estimate_state(plus(), h, shot_budget(h, policy), 3)
        assert estimate.term_shots == (MAX_TERM_SHOTS,) and type(estimate.term_shots[0]) is int
        assert -1.0 <= estimate.value <= 1.0
