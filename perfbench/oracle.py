"""Dense reference answers built apart from vqesim.

Nothing here imports vqesim: Hamiltonians are Kronecker products of the
2x2 Pauli matrices, the layered ansatz is a product of dense per-layer
unitaries, and the fermionic operators are built from the Jordan-Wigner
ladder matrices' definition. The conventions match vqesim's documented
ones: qubit 0 is the leftmost Kronecker factor and the most significant
bit of an amplitude index, Ry(t) = exp(-i t Y / 2), Rz(t) = exp(-i t Z / 2),
and fermionic mode j is qubit j-1 with the parity string on higher modes.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import scipy.linalg

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# |0><1|: lowers an occupied mode (|1>) to empty (|0>).
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def kron_all(factors) -> np.ndarray:
    return reduce(np.kron, factors, np.eye(1, dtype=complex))


def hamiltonian_matrix(terms) -> np.ndarray:
    """Dense matrix of [(coefficient, label), ...]."""
    n = len(terms[0][1])
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for coeff, label in terms:
        h += coeff * kron_all(PAULI[ch] for ch in label)
    return h


def eigenvalues(h: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(h)


def expectation(state: np.ndarray, h: np.ndarray) -> float:
    return float(np.real(np.vdot(state, h @ state)))


def _ry(t: float) -> np.ndarray:
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(t: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def _cnot(n: int, control: int, target: int) -> np.ndarray:
    stay = [P0 if q == control else PAULI["I"] for q in range(n)]
    flip = [P1 if q == control else PAULI["X"] if q == target else PAULI["I"] for q in range(n)]
    return kron_all(stay) + kron_all(flip)


def layered_state(n: int, layers: int, params) -> np.ndarray:
    """|psi> of the Rz-Ry-Rz rotation layers joined by CNOT ladders, from |0...0>."""
    params = np.asarray(params, dtype=float).reshape(layers + 1, n, 3)
    ladder = reduce(lambda acc, q: _cnot(n, q, q + 1) @ acc, range(n - 1), np.eye(1 << n, dtype=complex))
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for layer in range(layers + 1):
        rotation = kron_all(_rz(c) @ _ry(b) @ _rz(a) for a, b, c in params[layer])
        psi = rotation @ psi
        if layer < layers:
            psi = ladder @ psi
    return psi


def annihilator(mode: int, n_modes: int) -> np.ndarray:
    """a_j = I^(j-1) (x) |0><1| (x) Z^(N-j), modes 1-based."""
    factors = [PAULI["I"]] * (mode - 1) + [LOWER] + [PAULI["Z"]] * (n_modes - mode)
    return kron_all(factors)


def _product(n_modes: int, ops) -> np.ndarray:
    out = np.eye(1 << n_modes, dtype=complex)
    for mode, creation in ops:
        a = annihilator(mode, n_modes)
        out = out @ (a.conj().T if creation else a)
    return out


def integrals_matrix(n_modes: int, one_body, two_body) -> np.ndarray:
    """Sum of h_pq a_p^dag a_q + h_pqrs a_p^dag a_q^dag a_r a_s, indices as stored."""
    h = np.zeros((1 << n_modes, 1 << n_modes), dtype=complex)
    for p, q, v in one_body:
        h += v * _product(n_modes, [(p, True), (q, False)])
    for p, q, r, s, v in two_body:
        h += v * _product(n_modes, [(p, True), (q, True), (r, False), (s, False)])
    return h


def ucc_state(n_modes: int, reference: str, excitations, amplitudes) -> np.ndarray:
    """exp(T - T^dag)|ref> with T = sum t a_p^dag a_r (+ t a_p^dag a_q^dag a_r a_s)."""
    t = np.zeros((1 << n_modes, 1 << n_modes), dtype=complex)
    for exc, amp in zip(excitations, amplitudes):
        creators, annihilators = (exc[1:2], exc[2:3]) if exc[0] == "s" else (exc[1:3], exc[3:5])
        ops = [(m, True) for m in creators] + [(m, False) for m in annihilators]
        t += amp * _product(n_modes, ops)
    ref = np.zeros(1 << n_modes, dtype=complex)
    ref[int(reference, 2)] = 1.0
    return scipy.linalg.expm(t - t.conj().T) @ ref


def weighted_parabola(r, e, sigma) -> tuple[float, float, float]:
    """(a, b, c) of E = a R^2 + b R + c by least squares weighted with 1/sigma^2."""
    design = np.column_stack([r * r, r, np.ones_like(r)]) / sigma[:, None]
    coeffs, *_ = np.linalg.lstsq(design, e / sigma, rcond=None)
    return tuple(float(x) for x in coeffs)
