"""Simulated QPU: n-qubit pure states, gates, and the layered ansatz.

States are immutable; every operation returns a new StateVector with
unit norm. Rotation conventions are Ry(t) = exp(-i t Y / 2) and
Rz(t) = exp(-i t Z / 2). Global phase is never compared anywhere in
the package; use analysis.overlap for state comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import PauliHamiltonian, PauliString, _is_int, basis_action

MAX_QUBITS = 12


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]], dtype=complex
    )


@dataclass(frozen=True, eq=False)
class StateVector:
    """2^n complex amplitudes with unit norm; treat as immutable."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-10")
        object.__setattr__(self, "amplitudes", amps)


def init_zero(n_qubits: int) -> StateVector:
    """The all-zeros computational basis state |0...0>."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def basis_state(n_qubits: int, index: int) -> StateVector:
    if not 0 <= index < (1 << n_qubits):
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def apply_gate(amps: np.ndarray, gate: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 gate to one qubit of a raw amplitude array."""
    block = amps.reshape(1 << qubit, 2, -1)
    return np.einsum("ts,asb->atb", gate, block).reshape(-1)


@lru_cache(maxsize=MAX_QUBITS)
def _cnot_ladder(n_qubits: int) -> np.ndarray:
    """One gather for CNOT(0,1), CNOT(1,2), ..., CNOT(n-2,n-1) in that order.

    Gathering with the composed permutation moves the same amplitudes as
    the gate-by-gate ladder, so the result is bit-identical.
    """
    idx = np.arange(1 << n_qubits)
    perm = idx
    for control in range(n_qubits - 1):
        cmask = 1 << (n_qubits - 1 - control)
        tmask = cmask >> 1
        perm = perm[np.where(idx & cmask, idx ^ tmask, idx)]
    perm.flags.writeable = False
    return perm


@dataclass(frozen=True)
class AnsatzSpec:
    """Layered hardware-style circuit: rotation layers joined by CNOT ladders.

    Each of the `layer_count` layers applies an Rz-Ry-Rz triple to every
    qubit and then a CNOT ladder (control i, target i+1); one more
    rotation layer closes the circuit. Parameters are consumed in
    circuit order: for rotation layer l and qubit q, the triple is
    params[3*(l*n + q) + (0, 1, 2)] = (first Rz angle, Ry angle, last
    Rz angle). One layer on two qubits can reach any two-qubit pure
    state.
    """

    n_qubits: int
    layer_count: int

    def __post_init__(self) -> None:
        for name in ("n_qubits", "layer_count"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}]")
        if self.layer_count < 1:
            raise ValueError("layer_count must be >= 1")

    @property
    def parameter_count(self) -> int:
        return 3 * self.n_qubits * (self.layer_count + 1)

    def prepare(self, params: np.ndarray) -> StateVector:
        return prepare(self, params)


def prepare(spec: AnsatzSpec, params: np.ndarray) -> StateVector:
    """Run the ansatz circuit on |0...0> with the given angles."""
    params = np.asarray(params, dtype=float)
    if params.shape != (spec.parameter_count,):
        raise ValueError(
            f"expected {spec.parameter_count} parameters, got shape {params.shape}"
        )
    n = spec.n_qubits
    amps = init_zero(n).amplitudes
    for layer in range(spec.layer_count + 1):
        for q in range(n):
            a, b, c = params[3 * (layer * n + q): 3 * (layer * n + q) + 3]
            amps = apply_gate(amps, rz(a), q)
            amps = apply_gate(amps, ry(b), q)
            amps = apply_gate(amps, rz(c), q)
        if layer < spec.layer_count:
            amps = amps[_cnot_ladder(n)]
    return StateVector(n, amps)


def exact_expectation(state: StateVector, p: PauliString) -> float:
    """Noiseless <psi|P|psi>; real and in [-1, 1]."""
    if p.n_qubits != state.n_qubits:
        raise ValueError(
            f"operator acts on {p.n_qubits} qubits, state has {state.n_qubits}"
        )
    targets, phases = basis_action(p.label)
    amps = state.amplitudes
    return float(np.real(np.vdot(amps[targets], phases * amps)))


def exact_energy(state: StateVector, h: PauliHamiltonian) -> float:
    """Noiseless <psi|H|psi> as the weighted sum of term expectations."""
    if h.n_qubits != state.n_qubits:
        raise ValueError(
            f"Hamiltonian acts on {h.n_qubits} qubits, state has {state.n_qubits}"
        )
    return float(sum(c * exact_expectation(state, p) for c, p in h.terms))

