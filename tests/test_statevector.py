import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import expectation, random_hamiltonian, random_state
from reference import apply_gate, overlap, pauli_matrix
from vqesim import (
    AnsatzSpec,
    PauliHamiltonian,
    PauliString,
    StateVector,
    exact_energy,
    prepare,
    reconstruct,
)
from vqesim.statevector import MAX_QUBITS, basis_state, batch_rows, euler_gates


def ry(theta: float) -> np.ndarray:
    """Reference Ry(t) = exp(-i t Y / 2), one gate per angle."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Reference Rz(t) = exp(-i t Z / 2), one gate per angle."""
    return np.array(
        [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]], dtype=complex
    )


def ladder_circuit(spec: AnsatzSpec, params: np.ndarray, rotation) -> np.ndarray:
    """The ansatz with one gather per CNOT(q, q + 1); rotation(amps, (a, b, c), layer, q)."""
    n = spec.n_qubits
    idx = np.arange(1 << n)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    for layer in range(spec.layer_count + 1):
        for q in range(n):
            amps = rotation(amps, params[3 * (layer * n + q): 3 * (layer * n + q) + 3], layer, q)
        if layer < spec.layer_count:
            for q in range(n - 1):
                control, target = 1 << (n - 1 - q), 1 << (n - 2 - q)
                amps = amps[np.where(idx & control, idx ^ target, idx)]
    return amps


def bell() -> StateVector:
    return StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))


class TestInitZero:
    """The all-zeros start state |0...0> is `basis_state(n, 0)`."""

    def test_one_qubit(self):
        assert np.array_equal(basis_state(1, 0).amplitudes, [1, 0])

    def test_two_qubits(self):
        assert np.array_equal(basis_state(2, 0).amplitudes, [1, 0, 0, 0])

    @pytest.mark.parametrize("n", [0, 13, -1, True, 2.0])
    def test_range_guard(self, n):
        with pytest.raises(ValueError, match="n_qubits must be an integer in"):
            basis_state(n, 0)


class TestBasisState:
    def test_index_placed(self):
        assert np.array_equal(basis_state(2, 0b10).amplitudes, [0, 0, 1, 0])

    @pytest.mark.parametrize("n", [0, MAX_QUBITS + 1, True])
    def test_shares_the_width_rule(self, n):
        with pytest.raises(ValueError, match="n_qubits must be an integer in"):
            basis_state(n, 0)


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("amps", [[np.nan, 1.0], [np.inf, 0.0], [complex(np.nan, 0.0), 0.0]])
    def test_non_finite_norm_rejected(self, amps):
        with pytest.raises(ValueError, match="norm"):
            StateVector(1, np.array(amps))

    @pytest.mark.parametrize("n,dim", [(True, 2), (0, 1), (1.0, 2), (MAX_QUBITS + 1, 1 << (MAX_QUBITS + 1))])
    def test_width_must_be_an_integer_in_range(self, n, dim):
        amps = np.zeros(dim)
        amps[0] = 1.0
        with pytest.raises(ValueError, match="n_qubits must be an integer in"):
            StateVector(n, amps)

    def test_numpy_integer_width_accepted(self):
        assert StateVector(np.int64(1), np.array([0.0, 1.0])).n_qubits == 1


class TestAnsatz:
    def test_parameter_count(self):
        assert AnsatzSpec(2, 1).parameter_count == 12
        assert AnsatzSpec(3, 2).parameter_count == 27

    def test_layer_count_guard(self):
        with pytest.raises(ValueError):
            AnsatzSpec(2, 0)

    @pytest.mark.parametrize("n_qubits,layers", [(2, True), (2, 1.5), (2.0, 1), (True, 1)])
    def test_counts_must_be_integers(self, n_qubits, layers):
        with pytest.raises(ValueError, match="must be an integer"):
            AnsatzSpec(n_qubits, layers)

    @pytest.mark.parametrize("n_qubits", [13, 0, True])
    def test_width_is_the_state_vector_rule(self, n_qubits):
        message = f"n_qubits must be an integer in [1, 12], got {n_qubits!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AnsatzSpec(n_qubits, 1)

    def test_zero_parameters_give_zero_state(self):
        spec = AnsatzSpec(2, 1)
        state = spec.prepare(np.zeros(spec.parameter_count))
        assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)

    def test_ry_pi_then_cnot_gives_11(self):
        spec = AnsatzSpec(2, 1)
        params = np.zeros(spec.parameter_count)
        params[1] = np.pi  # Ry angle of qubit 0 in the first rotation layer
        state = spec.prepare(params)
        assert abs(state.amplitudes[0b11]) == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="parameters"):
            AnsatzSpec(2, 1).prepare(np.zeros(5))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_norm_property(self, seed):
        spec = AnsatzSpec(2, 2)
        rng = np.random.default_rng(seed)
        state = spec.prepare(rng.uniform(-np.pi, np.pi, spec.parameter_count))
        assert np.abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10

    def test_deterministic(self):
        spec = AnsatzSpec(3, 2)
        params = np.random.default_rng(5).uniform(-np.pi, np.pi, spec.parameter_count)
        a = spec.prepare(params).amplitudes
        b = spec.prepare(params).amplitudes
        assert np.array_equal(a, b)

    # Every width, with a second layer at 3 and 10 qubits.
    @pytest.mark.parametrize("n,layers", [(n, 2 if n in (3, 10) else 1) for n in range(1, MAX_QUBITS + 1)])
    def test_composed_ladder_matches_gate_by_gate(self, n, layers):
        spec = AnsatzSpec(n, layers)
        params = np.random.default_rng(n).uniform(-np.pi, np.pi, spec.parameter_count)
        gates = euler_gates(params.reshape(layers + 1, n, 3))
        amps = ladder_circuit(spec, params, lambda amps, _, layer, q: apply_gate(amps, gates[layer, q], q))
        assert spec.prepare(params).amplitudes.tobytes() == amps.tobytes()

    @pytest.mark.parametrize("n,layers", [(1, 1), (2, 1), (3, 2), (8, 1), (10, 2)])
    def test_fused_matches_unfused_rotations(self, n, layers):
        """Fusing each Rz-Ry-Rz triple moves every amplitude by at most 1e-14."""

        def unfused(amps, angles, _layer, q):
            a, b, c = angles
            return apply_gate(apply_gate(apply_gate(amps, rz(a), q), ry(b), q), rz(c), q)

        spec = AnsatzSpec(n, layers)
        rng = np.random.default_rng([n, layers])
        for _ in range(20):
            params = rng.uniform(-np.pi, np.pi, spec.parameter_count)
            reference = ladder_circuit(spec, params, unfused)
            assert np.max(np.abs(spec.prepare(params).amplitudes - reference)) <= 1e-14


class TestPrepareBatch:
    @pytest.mark.parametrize("n,layers", [(1, 1), (2, 1), (8, 1), (10, 2)])
    def test_rows_match_a_batch_of_one(self, n, layers):
        """Two chunk boundaries fall inside the batch; no row's bytes move."""
        spec = AnsatzSpec(n, layers)
        rows = 2 * batch_rows(n) + 1
        batch = np.random.default_rng([n, layers, rows]).uniform(-np.pi, np.pi, (rows, spec.parameter_count))
        amplitudes = prepare(spec, batch)
        assert amplitudes.shape == (rows, 1 << n) and amplitudes.flags.c_contiguous
        for params, row in zip(batch, amplitudes):
            assert row.tobytes() == spec.prepare(params).amplitudes.tobytes()

    @pytest.mark.parametrize("shape", [(12,), (2, 11), (1, 2, 12)])
    def test_batch_shape_checked(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"expected rows of 12 parameters, got shape {shape}")):
            prepare(AnsatzSpec(2, 1), np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_refused(self, bad):
        """Refused before any gate is built, so numpy warns of nothing first."""
        spec = AnsatzSpec(2, 1)
        batch = np.zeros((3, spec.parameter_count))
        batch[1, 4] = bad
        with pytest.raises(ValueError, match="^non-finite parameter$"):
            prepare(spec, batch)
        with pytest.raises(ValueError, match="^non-finite parameter$"):
            spec.prepare(batch[1])


_SPECIAL_ANGLES = st.sampled_from([0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi])
_ANGLES = st.one_of(_SPECIAL_ANGLES, st.floats(-2 * np.pi, 2 * np.pi))


class TestEulerGates:
    @given(_ANGLES, _ANGLES, _ANGLES)
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_the_product(self, a, b, c):
        gate = euler_gates(np.array([a, b, c]))
        assert gate.shape == (2, 2)
        assert np.max(np.abs(gate - rz(c) @ ry(b) @ rz(a))) <= 1e-15


class TestExactExpectation:
    def test_zero_state_z(self):
        assert expectation(basis_state(1, 0), "Z") == pytest.approx(1.0)

    def test_bell_xx(self):
        assert expectation(bell(), "XX") == pytest.approx(1.0)

    def test_plus_z(self):
        plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
        assert expectation(plus, "Z") == pytest.approx(0.0, abs=1e-12)

    def test_mismatch(self):
        with pytest.raises(ValueError, match="Hamiltonian acts on 2 qubits, state has 1"):
            exact_energy(basis_state(1, 0), PauliHamiltonian(2, [(1.0, "ZZ")]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, 2)
        label = "".join(rng.choice(list("IXYZ"), size=2))
        expected = np.vdot(state.amplitudes, pauli_matrix(PauliString(label)) @ state.amplitudes)
        assert expectation(state, label) == pytest.approx(float(expected.real), abs=1e-10)


class TestExactEnergy:
    def test_identity_weight(self):
        h = random_hamiltonian(np.random.default_rng(0), 2, labels=["II"])
        h = type(h)(2, [(2.0, "II")])
        assert exact_energy(basis_state(2, 0), h) == pytest.approx(2.0)

    def test_z_on_one(self):
        one = StateVector(1, np.array([0.0, 1.0], dtype=complex))
        assert exact_energy(one, PauliHamiltonian(1, [(1.0, "Z")])) == pytest.approx(-1.0)

    def test_terms_add_left_to_right(self):
        # Every <P> is exactly 1 on |00>, so the sum is 1e16 + 1 - 1e16 in float arithmetic,
        # on every Python version (a compensated sum would give 1.0).
        h = PauliHamiltonian(2, [(1e16, "ZI"), (1.0, "IZ"), (-1e16, "ZZ")])
        assert exact_energy(basis_state(2, 0), h) == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_quadratic_form_oracle(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hamiltonian(rng, 2)
        state = random_state(rng, 2)
        dense = reconstruct(h)
        expected = float(np.real(np.vdot(state.amplitudes, dense @ state.amplitudes)))
        assert exact_energy(state, h) == pytest.approx(expected, abs=1e-10)


def _zyz_angles(g: np.ndarray) -> tuple[float, float, float]:
    """Euler angles (first z, y, last z) realizing g up to global phase."""
    det = np.linalg.det(g)
    g = g / np.sqrt(det)
    gamma = 2.0 * np.arctan2(abs(g[1, 0]), abs(g[0, 0]))
    if abs(g[0, 0]) < 1e-12:
        delta_minus_beta = 2.0 * np.angle(g[1, 0])
        return 0.0, gamma, delta_minus_beta
    if abs(g[1, 0]) < 1e-12:
        delta_plus_beta = -2.0 * np.angle(g[0, 0])
        return 0.0, gamma, delta_plus_beta
    delta_plus_beta = -2.0 * np.angle(g[0, 0])
    delta_minus_beta = 2.0 * np.angle(g[1, 0])
    beta = (delta_plus_beta - delta_minus_beta) / 2.0
    delta = (delta_plus_beta + delta_minus_beta) / 2.0
    return beta, gamma, delta


def test_one_layer_reaches_arbitrary_two_qubit_states():
    """Schmidt-based parameter fits hit 200 Haar-random targets."""
    spec = AnsatzSpec(2, 1)
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        target = random_state(rng, 2)
        m = target.amplitudes.reshape(2, 2)
        u, s, vh = np.linalg.svd(m)
        alpha = np.arctan2(s[1], s[0])
        params = np.zeros(12)
        params[1] = 2.0 * alpha  # Ry on qubit 0 before the CNOT
        b0, g0, d0 = _zyz_angles(u)
        b1, g1, d1 = _zyz_angles(vh.T)
        params[6:9] = (b0, g0, d0)
        params[9:12] = (b1, g1, d1)
        fitted = spec.prepare(params)
        assert overlap(fitted, target) >= 0.999
