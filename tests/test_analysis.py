import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_hamiltonian, random_state
from reference import overlap, pauli_matrix
from vqesim import (
    PauliHamiltonian,
    QuadraticFit,
    Spectrum,
    StateVector,
    exact_spectrum,
    fit_quadratic_minimum,
    monte_carlo_minimum_uncertainty,
    reconstruct,
)
from vqesim.analysis import MAX_MC_SAMPLES, ground_space_overlaps, tangles


def schmidt_state(theta: float) -> StateVector:
    return StateVector(
        2, np.array([np.cos(theta), 0.0, 0.0, np.sin(theta)], dtype=complex)
    )


def _char_poly_roots(m: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier characteristic polynomial, then companion roots."""
    dim = m.shape[0]
    coeffs = [1.0 + 0.0j]
    aux = np.eye(dim, dtype=complex)
    for k in range(1, dim + 1):
        aux = m @ aux
        c = -np.trace(aux) / k
        coeffs.append(c)
        aux += c * np.eye(dim)
    return np.sort(np.roots(coeffs).real)


class TestSpectrum:
    def test_z(self):
        spec = exact_spectrum(PauliHamiltonian(1, [(1.0, "Z")]))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])

    def test_scaled_identity(self):
        spec = exact_spectrum(PauliHamiltonian(2, [(2.0, "II")]))
        assert np.allclose(spec.eigenvalues, [2.0, 2.0, 2.0, 2.0])

    def test_residuals(self):
        h = random_hamiltonian(np.random.default_rng(0), 2)
        spec = exact_spectrum(h)
        m = reconstruct(h)
        for k in range(4):
            residual = m @ spec.eigenvectors[:, k] - spec.eigenvalues[k] * spec.eigenvectors[:, k]
            assert np.linalg.norm(residual) < 1e-9

    def test_ascending(self):
        h = random_hamiltonian(np.random.default_rng(1), 2)
        values = exact_spectrum(h).eigenvalues
        assert np.all(np.diff(values) >= 0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_characteristic_polynomial_oracle(self, seed):
        h = random_hamiltonian(np.random.default_rng(seed), 2)
        eigh_values = exact_spectrum(h).eigenvalues
        roots = _char_poly_roots(reconstruct(h))
        assert np.max(np.abs(eigh_values - roots)) < 1e-8

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            exact_spectrum(PauliHamiltonian(11, [(1.0, "Z" * 11)]))


@st.composite
def real_hamiltonians(draw) -> PauliHamiltonian:
    """1-6 qubits, every term with an even number of Y factors.

    Half of them take coefficients from {-1, -1/2, 1/2, 1}, which often
    leaves the ground space degenerate.
    """
    n = draw(st.integers(1, 6))
    labels = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=8))
    # An odd Y count loses its first Y to a Z.
    labels = [lbl.replace("Y", "Z", 1) if lbl.count("Y") % 2 else lbl for lbl in labels]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        coeffs = rng.choice([-1.0, -0.5, 0.5, 1.0], size=len(labels))
    else:
        coeffs = rng.uniform(-1.0, 1.0, size=len(labels))
    return PauliHamiltonian(n, zip(coeffs.tolist(), labels))


class TestRealSpectrum:
    @given(real_hamiltonians(), st.integers(0, 2**32 - 1))
    @example(PauliHamiltonian(2, [(1.0, "ZZ")]), 0)
    @example(PauliHamiltonian(3, [(2.0, "III")]), 1)
    @example(PauliHamiltonian(2, [(1.0, "XX"), (1.0, "YY")]), 2)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_complex_eigh(self, h, state_seed):
        real = exact_spectrum(h)
        assert real.eigenvectors.dtype == np.float64
        forced = Spectrum(*np.linalg.eigh(reconstruct(h)))
        assert forced.eigenvectors.dtype == np.complex128
        scale = max(1.0, float(np.max(np.abs(forced.eigenvalues))))
        assert np.max(np.abs(real.eigenvalues - forced.eigenvalues)) <= 1e-12 * scale
        b_real, b_forced = real.ground_space, forced.ground_space
        assert b_real.shape == b_forced.shape
        projector_gap = b_real @ b_real.conj().T - b_forced @ b_forced.conj().T
        assert np.max(np.abs(projector_gap)) <= 1e-10
        rng = np.random.default_rng(state_seed)
        amplitudes = np.array([random_state(rng, h.n_qubits).amplitudes for _ in range(3)])
        for a, b in zip(ground_space_overlaps(b_real, amplitudes), ground_space_overlaps(b_forced, amplitudes)):
            assert abs(a - b) <= 1e-12

    def test_eigenvector_dtype_follows_the_matrix(self):
        real = PauliHamiltonian(2, [(0.5, "ZI"), (-0.3, "XX"), (0.2, "YY")])
        assert exact_spectrum(real).eigenvectors.dtype == np.float64
        odd_y = PauliHamiltonian(2, [(0.5, "ZI"), (0.7, "XY")])
        assert exact_spectrum(odd_y).eigenvectors.dtype == np.complex128

    def test_ground_space_found_once(self):
        spec = exact_spectrum(PauliHamiltonian(2, [(1.0, "ZZ")]))
        assert spec.ground_space is spec.ground_space
        assert not spec.ground_space.flags.writeable
        assert spec.ground_space.shape == (4, 2)


def batch(states: list[StateVector]) -> np.ndarray:
    return np.array([state.amplitudes for state in states])


class TestTangle:
    def test_bell_is_one(self):
        bell = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert tangles(batch([bell])) == [pytest.approx(1.0, abs=1e-10)]

    def test_product_is_zero(self):
        basis01 = StateVector(2, np.array([0.0, 1.0, 0.0, 0.0], dtype=complex))
        assert tangles(batch([basis01])) == [pytest.approx(0.0, abs=1e-10)]

    @given(st.floats(0.0, np.pi / 2))
    @settings(max_examples=50)
    def test_schmidt_closed_form(self, theta):
        assert tangles(batch([schmidt_state(theta)])) == [pytest.approx(np.sin(2.0 * theta) ** 2, abs=1e-9)]

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(12)
        states, rotated = [], []
        for _ in range(100):
            state = random_state(rng, 2)
            u1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            states.append(state)
            rotated.append(StateVector(2, np.kron(u1, u2) @ state.amplitudes))
        for a, b in zip(tangles(batch(states)), tangles(batch(rotated))):
            assert abs(a - b) < 1e-9

    def test_closed_form_matches_the_yy_formula(self):
        # C = |<psi| Y(x)Y |psi*>|, the product with the spin-flipped state.
        yy = pauli_matrix("YY")
        rng = np.random.default_rng(13)
        states = [random_state(rng, 2) for _ in range(500)]
        states += [schmidt_state(theta) for theta in np.linspace(0.0, np.pi / 2, 50)]
        for state, value in zip(states, tangles(batch(states))):
            concurrence = abs(np.vdot(state.amplitudes, yy @ state.amplitudes.conj()))
            assert abs(value - min(1.0, concurrence * concurrence)) <= 1e-15

    def test_wrong_qubit_count(self):
        for n in (1, 3):
            amplitudes = np.zeros((2, 1 << n), dtype=complex)
            amplitudes[:, 0] = 1.0
            with pytest.raises(ValueError, match=f"^tangle is defined for 2 qubits, got {n}$"):
                tangles(amplitudes)


class TestOverlap:
    def test_self(self):
        state = random_state(np.random.default_rng(2), 2)
        assert overlap(state, state) == pytest.approx(1.0)

    def test_orthogonal(self):
        a = StateVector(1, np.array([1.0, 0.0], dtype=complex))
        b = StateVector(1, np.array([0.0, 1.0], dtype=complex))
        assert overlap(a, b) == 0.0

    @given(st.floats(-np.pi, np.pi))
    @settings(max_examples=30)
    def test_phase_invariance(self, phi):
        state = random_state(np.random.default_rng(3), 2)
        rotated = StateVector(2, np.exp(1j * phi) * state.amplitudes)
        assert overlap(state, rotated) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_and_shared_unitary_invariant(self):
        rng = np.random.default_rng(4)
        a, b = random_state(rng, 2), random_state(rng, 2)
        assert overlap(a, b) == pytest.approx(overlap(b, a))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        ua = StateVector(2, q @ a.amplitudes)
        ub = StateVector(2, q @ b.amplitudes)
        assert overlap(ua, ub) == pytest.approx(overlap(a, b), abs=1e-10)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            overlap(
                StateVector(1, np.array([1.0, 0.0], dtype=complex)),
                StateVector(2, np.array([1.0, 0, 0, 0], dtype=complex)),
            )


class TestGroundSpaceOverlap:
    def test_degenerate_subspace(self):
        # ZZ ground space is span{|01>, |10>}; any unit combination has overlap 1
        spec = exact_spectrum(PauliHamiltonian(2, [(1.0, "ZZ")]))
        mixed = StateVector(2, np.array([0.0, 0.6, 0.8, 0.0], dtype=complex))
        assert ground_space_overlaps(spec.ground_space, batch([mixed])) == [pytest.approx(1.0, abs=1e-10)]

    def test_orthogonal_state(self):
        spec = exact_spectrum(PauliHamiltonian(2, [(1.0, "ZZ")]))
        outside = StateVector(2, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        assert ground_space_overlaps(spec.ground_space, batch([outside])) == [pytest.approx(0.0, abs=1e-10)]


class TestQuadraticFit:
    def test_exact_parabola(self):
        points = [(r, (r - 92.0) ** 2 + 5.0, 1.0) for r in (80.0, 88.0, 94.0, 100.0, 102.0)]
        fit = fit_quadratic_minimum(points)
        assert fit.r_min == pytest.approx(92.0, abs=1e-9)
        assert fit.e_min == pytest.approx(5.0, abs=1e-9)

    def test_three_points_rejected(self):
        with pytest.raises(ValueError, match="4 points"):
            fit_quadratic_minimum([(0.0, 0.0, 1.0), (1.0, 1.0, 1.0), (2.0, 4.0, 1.0)])

    def test_nonpositive_variance_rejected(self):
        points = [(r, r * r, 1.0) for r in range(4)]
        points[2] = (2.0, 4.0, 0.0)
        with pytest.raises(ValueError, match="variance"):
            fit_quadratic_minimum(points)

    def test_degenerate_design_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            fit_quadratic_minimum([(1.0, 2.0, 1.0)] * 5)

    def test_weighted_fit_prefers_low_variance_points(self):
        # corrupt one point but give it huge variance: fit should ignore it
        points = [(r, (r - 3.0) ** 2, 0.01) for r in (0.0, 2.0, 4.0, 6.0)]
        points.append((3.0, 50.0, 1e6))
        fit = fit_quadratic_minimum(points)
        assert fit.r_min == pytest.approx(3.0, abs=1e-3)

    def test_nonconvex_minimum_rejected(self):
        points = [(r, -(r - 1.0) ** 2, 1.0) for r in (0.0, 1.0, 2.0, 3.0)]
        fit = fit_quadratic_minimum(points)
        with pytest.raises(ValueError, match="convex"):
            _ = fit.r_min

    def test_covariance_psd_and_symmetric(self):
        rng = np.random.default_rng(5)
        points = [(r, (r - 1.0) ** 2 + rng.normal(0, 0.1), 0.01) for r in np.linspace(-2, 4, 9)]
        fit = fit_quadratic_minimum(points)
        assert np.allclose(fit.covariance, fit.covariance.T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(fit.covariance)) > -1e-10

    def test_calibration_coverage(self):
        """Known generator: fitted minimum within 3 reported sigma >= 95/100."""
        rng = np.random.default_rng(99)
        r_values = np.linspace(80.0, 100.0, 9)
        sigma = 0.05
        hits = 0
        for _ in range(100):
            energies = 0.01 * (r_values - 92.0) ** 2 + 5.0 + rng.normal(0, sigma, r_values.size)
            fit = fit_quadratic_minimum([(r, e, sigma * sigma) for r, e in zip(r_values, energies)])
            unc = monte_carlo_minimum_uncertainty(fit, 4000, rng)
            hits += abs(fit.r_min - 92.0) <= 3.0 * unc.sigma_r_min
        assert hits >= 95


class TestMonteCarlo:
    def test_zero_covariance(self):
        fit = QuadraticFit(1.0, -2.0, 3.0, np.zeros((3, 3)))
        unc = monte_carlo_minimum_uncertainty(fit, 2000, np.random.default_rng(0))
        assert unc.sigma_r_min == 0.0 and unc.sigma_e_min == 0.0
        assert unc.discarded_fraction == 0.0 and not unc.warning

    def test_linear_propagation_oracle(self):
        # only b varies: R_min = -b/(2a) has sigma_b / (2a) exactly
        a, sigma_b = 2.0, 0.01
        cov = np.diag([0.0, sigma_b**2, 0.0])
        fit = QuadraticFit(a, -4.0, 1.0, cov)
        unc = monte_carlo_minimum_uncertainty(fit, 200_000, np.random.default_rng(1))
        assert unc.sigma_r_min == pytest.approx(sigma_b / (2 * a), rel=0.02)

    def test_sample_floor(self):
        fit = QuadraticFit(1.0, 0.0, 0.0, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="1000"):
            monte_carlo_minimum_uncertainty(fit, 10, np.random.default_rng(0))

    def test_sample_cap(self):
        # Refused before any draw: 10**13 samples would need hundreds of TiB.
        fit = QuadraticFit(1.0, 0.0, 0.0, np.zeros((3, 3)))
        with pytest.raises(ValueError, match=f"to {MAX_MC_SAMPLES} Monte-Carlo samples, got 10000000000000$"):
            monte_carlo_minimum_uncertainty(fit, 10**13, np.random.default_rng(0))

    def test_discard_fraction_and_warning(self):
        # curvature barely positive relative to its spread: many draws non-convex
        fit = QuadraticFit(0.1, -0.2, 0.0, np.diag([1.0, 0.0, 0.0]))
        unc = monte_carlo_minimum_uncertainty(fit, 20_000, np.random.default_rng(2))
        assert unc.discarded_fraction > 0.10
        assert unc.warning

    def test_non_psd_covariance_rejected(self):
        fit = QuadraticFit(1.0, 0.0, 0.0, np.diag([-1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="positive semidefinite"):
            monte_carlo_minimum_uncertainty(fit, 2000, np.random.default_rng(0))
