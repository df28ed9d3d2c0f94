"""Ground-truth oracles and run diagnostics.

Dense spectra back every acceptance check; the tangles (absolute
concurrence squared) and ground-space overlaps of a batch of states
reproduce the convergence diagnostics plotted alongside optimization
traces; the weighted quadratic fit plus Monte-Carlo propagation turn a
scanned energy curve into a minimum location with uncertainties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import PauliHamiltonian, _is_int, reconstruct

# The widest dense 2^n x 2^n eigendecomposition: spectra and UCC preparation.
MAX_SPECTRUM_QUBITS = 10
MIN_FIT_POINTS = 4  # three coefficients plus one residual degree of freedom
MIN_MC_SAMPLES = 1000
# Each draw holds 24 bytes of coefficients: about 100 MB of arrays at the cap.
MAX_MC_SAMPLES = 10**6


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with orthonormal eigenvector columns (real for a real matrix)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @cached_property
    def ground_space(self) -> np.ndarray:
        """Columns spanning the (possibly degenerate) lowest eigenspace.

        Eigenvalues within 1e-8 * max(1, max |eigenvalue|) of the lowest
        count as degenerate with it. Found once per spectrum and read-only.
        """
        scale = max(1.0, float(np.max(np.abs(self.eigenvalues))))
        mask = self.eigenvalues <= self.eigenvalues[0] + 1e-8 * scale
        basis = self.eigenvectors[:, mask]
        basis.flags.writeable = False
        return basis


def exact_spectrum(h: PauliHamiltonian) -> Spectrum:
    """Dense diagonalization of the reconstructed Hamiltonian.

    A real matrix (every term has an even number of Y factors) takes the
    real `eigh`, about 5x faster, and gives float64 eigenvectors.
    """
    if h.n_qubits > MAX_SPECTRUM_QUBITS:
        raise ValueError(
            f"dense spectrum over {h.n_qubits} qubits exceeds the "
            f"{MAX_SPECTRUM_QUBITS}-qubit guard"
        )
    m = reconstruct(h)
    values, vectors = np.linalg.eigh(m if m.imag.any() else m.real)
    return Spectrum(values, vectors)


def ground_space_overlaps(spectrum: Spectrum, amplitudes: np.ndarray) -> list[float]:
    """Norm of each row's projection onto the lowest eigenspace, for (B, 2^n) amplitudes.

    Equals |<psi_G|psi>| for a non-degenerate ground state; with
    degeneracy it measures distance to the subspace rather than to an
    arbitrary eigenvector choice. The projection's components are
    conj(<g_k|psi>), which have the same norm; both sums are einsums
    over the whole batch, and each row's value has the bytes of that
    row alone.
    """
    components = np.einsum("ik,bi->bk", spectrum.ground_space, amplitudes.conj())
    squares = np.einsum("bk,bk->b", components.conj(), components).real
    return [min(1.0, math.sqrt(v)) for v in squares.tolist()]


def tangles(amplitudes: np.ndarray) -> list[float]:
    """Absolute concurrence squared of each row of (B, 4) two-qubit amplitudes.

    C = |<psi| Y(x)Y |psi*>| = 2|a00 a11 - a01 a10| in the computational
    basis, in Python complex arithmetic row by row; returns C^2 in [0, 1].
    Amplitudes of any other width raise ValueError.
    """
    if amplitudes.ndim != 2 or amplitudes.shape[1] != 4:
        raise ValueError(f"tangle is defined for 2 qubits, got {amplitudes.shape[-1].bit_length() - 1}")
    values = []
    for a00, a01, a10, a11 in amplitudes.tolist():
        concurrence = 2.0 * abs(a00 * a11 - a01 * a10)
        values.append(min(1.0, concurrence * concurrence))
    return values


@dataclass(frozen=True)
class QuadraticFit:
    """Weighted fit of E = a R^2 + b R + c with coefficient covariance."""

    a: float
    b: float
    c: float
    covariance: np.ndarray

    @property
    def r_min(self) -> float:
        if self.a <= 0:
            raise ValueError("fit is not convex; no minimum to report")
        return -self.b / (2.0 * self.a)

    @property
    def e_min(self) -> float:
        if self.a <= 0:
            raise ValueError("fit is not convex; no minimum to report")
        return self.c - self.b * self.b / (4.0 * self.a)


def fit_quadratic_minimum(points: list[tuple[float, float, float]]) -> QuadraticFit:
    """Weighted least squares of (R, E, variance) triples to a parabola.

    Weights are inverse variances; the covariance comes from the
    weighted normal equations, so at least 4 points are required.
    """
    if len(points) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} points to fit and report covariance, got {len(points)}")
    r = np.array([p[0] for p in points], dtype=float)
    e = np.array([p[1] for p in points], dtype=float)
    var = np.array([p[2] for p in points], dtype=float)
    if np.any(var <= 0) or not np.all(np.isfinite(var)):
        raise ValueError("all point variances must be positive and finite")
    # Fit in the centered basis u = R - mean(R) for conditioning, then
    # transform coefficients and covariance back to the monomial basis.
    center = float(r.mean())
    u = r - center
    design = np.column_stack([u * u, u, np.ones_like(u)])
    weights = 1.0 / var
    normal = design.T @ (weights[:, None] * design)
    rhs = design.T @ (weights * e)
    try:
        if np.linalg.cond(normal) > 1e12:
            raise np.linalg.LinAlgError("ill-conditioned normal equations")
        centered_cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular design matrix (degenerate R values): {exc}") from None
    centered = centered_cov @ rhs
    jacobian = np.array(
        [
            [1.0, 0.0, 0.0],
            [-2.0 * center, 1.0, 0.0],
            [center * center, -center, 1.0],
        ]
    )
    coeffs = jacobian @ centered
    covariance = jacobian @ centered_cov @ jacobian.T
    covariance = (covariance + covariance.T) / 2.0
    return QuadraticFit(float(coeffs[0]), float(coeffs[1]), float(coeffs[2]), covariance)


@dataclass(frozen=True)
class MinimumUncertainty:
    """Monte-Carlo standard deviations of a fitted minimum's location and value."""

    sigma_r_min: float
    sigma_e_min: float
    discarded_fraction: float
    warning: bool


def monte_carlo_minimum_uncertainty(
    fit: QuadraticFit, samples: int, rng: np.random.Generator
) -> MinimumUncertainty:
    """Propagate fit covariance to (R_min, E_min) by Gaussian sampling.

    Coefficient triples are drawn from the fit's multivariate normal;
    non-convex draws (a <= 0) are discarded and counted, with a warning
    flag once more than 10% are lost.
    """
    if not _is_int(samples) or not MIN_MC_SAMPLES <= samples <= MAX_MC_SAMPLES:
        raise ValueError(
            f"need an integer from {MIN_MC_SAMPLES} to {MAX_MC_SAMPLES} Monte-Carlo samples, got {samples!r}"
        )
    cov = np.asarray(fit.covariance, dtype=float)
    eigvals, eigvecs = np.linalg.eigh((cov + cov.T) / 2.0)
    scale = max(1.0, float(np.max(np.abs(eigvals))))
    if np.min(eigvals) < -1e-10 * scale:
        raise ValueError("covariance matrix is not positive semidefinite")
    transform = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    mean = np.array([fit.a, fit.b, fit.c])
    draws = mean + rng.standard_normal((samples, 3)) @ transform.T
    convex = draws[:, 0] > 0
    kept = draws[convex]
    discarded_fraction = 1.0 - kept.shape[0] / samples
    if kept.shape[0] < 2:
        raise ValueError("almost all Monte-Carlo samples were non-convex; fit is degenerate")
    r_min = -kept[:, 1] / (2.0 * kept[:, 0])
    e_min = kept[:, 2] - kept[:, 1] ** 2 / (4.0 * kept[:, 0])
    return MinimumUncertainty(
        float(r_min.std(ddof=1)),
        float(e_min.std(ddof=1)),
        discarded_fraction,
        discarded_fraction > 0.10,
    )
