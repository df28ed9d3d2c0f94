"""Simulated QPU: n-qubit pure states, gates, the layered ansatz and noiseless term expectations.

A batch of states is a C-contiguous (B, 2^n) complex array, each row
checked to unit norm; `prepare` returns one, and
`batch_term_expectations` reduces one. A `StateVector` is a single
state at the public boundary, immutable and of unit norm, which
`exact_energy` reduces as a batch of one. Rotation conventions are
Ry(t) = exp(-i t Y / 2) and Rz(t) = exp(-i t Z / 2).
The ansatz applies each Rz(a), Ry(b), Rz(c) triple as one fused gate,
Rz(c) Ry(b) Rz(a) in closed form:
[[e^{-i(a+c)/2} cos(b/2), -e^{i(a-c)/2} sin(b/2)],
 [e^{-i(a-c)/2} sin(b/2), e^{i(a+c)/2} cos(b/2)]]. Global phase is
never compared: the loop's state diagnostic,
analysis.ground_space_overlaps, is a projection norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import PauliHamiltonian, _is_int

MAX_QUBITS = 12
# The most amplitudes a batch keeps in flight: `prepare` runs a batch, and
# `batch_term_expectations` an action table, in chunks of max(1, _BATCH_AMPLITUDES >> n_qubits)
# rows. 2^14 prepared 10- and 12-qubit batches faster than 2^12 or 2^16, which falls
# out of cache, and reduced a 2546-term 10-qubit table fastest (21 ms; 28 and 25 ms).
_BATCH_AMPLITUDES = 1 << 14
# Entry k (00, 01, 10, 11) of the fused gate is exp(a _PHASE_A[k] + c _PHASE_C[k]) times
# entry k of Ry(b), cos(b/2) _COS[k] + sin(b/2) _SIN[k].
_PHASE_A, _PHASE_C = 0.5j * np.array([-1, 1, -1, 1]), 0.5j * np.array([-1, -1, 1, 1])
_COS, _SIN = np.array([1.0, 0.0, 0.0, 1.0]), np.array([0.0, -1.0, 1.0, 0.0])


@dataclass(frozen=True, eq=False)
class StateVector:
    """2^n complex amplitudes with unit norm; treat as immutable."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        dim = _dimension(self.n_qubits)
        amps = np.asarray(self.amplitudes, dtype=complex, order="C")
        if amps.shape != (dim,):
            raise ValueError(f"expected {dim} amplitudes, got shape {amps.shape}")
        _check_norms(amps[None])
        object.__setattr__(self, "amplitudes", amps)


def _check_norms(amplitudes: np.ndarray) -> None:
    """Raise ValueError unless every row of a C-contiguous (B, 2^n) array has unit norm to 1e-10.

    Each row's squares of real and imaginary parts are summed in numpy's
    own loop, all rows in one reduction.
    """
    for norm in np.sqrt(np.add.reduce(np.square(amplitudes.view(float)), axis=1)).tolist():
        if not abs(norm - 1.0) <= 1e-10:  # written so that a NaN norm fails
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-10")


def _dimension(n_qubits: int) -> int:
    """2^n_qubits, once n_qubits is checked to be an integer in [1, MAX_QUBITS]."""
    if not _is_int(n_qubits) or not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be an integer in [1, {MAX_QUBITS}], got {n_qubits!r}")
    return 1 << int(n_qubits)


def basis_state(n_qubits: int, index: int) -> StateVector:
    dim = _dimension(n_qubits)
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def euler_gates(angles: np.ndarray) -> np.ndarray:
    """Rz(c) Ry(b) Rz(a) in closed form for each (a, b, c) on the last axis: (..., 2, 2)."""
    a, half_b, c = angles[..., 0, None], angles[..., 1, None] / 2.0, angles[..., 2, None]
    phase = np.exp(a * _PHASE_A + c * _PHASE_C)
    ry_entries = np.cos(half_b) * _COS + np.sin(half_b) * _SIN
    return (phase * ry_entries).reshape(*angles.shape[:-1], 2, 2)


@lru_cache(maxsize=MAX_QUBITS)
def _cnot_ladder(n_qubits: int) -> np.ndarray:
    """One gather for CNOT(0,1), CNOT(1,2), ..., CNOT(n-2,n-1) in that order.

    The ladder's composed permutation is the Gray code j ^ (j >> 1), so the
    gather moves the same amplitudes as the gate-by-gate ladder, bit for bit.
    """
    idx = np.arange(1 << n_qubits)
    perm = idx ^ (idx >> 1)
    perm.flags.writeable = False
    return perm


@dataclass(frozen=True)
class AnsatzSpec:
    """Layered hardware-style circuit: rotation layers joined by CNOT ladders.

    Each of the `layer_count` layers applies an Rz-Ry-Rz triple to every
    qubit and then a CNOT ladder (control i, target i+1); one more
    rotation layer closes the circuit. Parameters are consumed in
    circuit order: for rotation layer l and qubit q, the triple is
    params[3*(l*n + q) + (0, 1, 2)] = (a, b, c) = (first Rz angle, Ry
    angle, last Rz angle), applied as the one fused gate
    Rz(c) Ry(b) Rz(a) of `euler_gates`. One layer on two qubits can
    reach any two-qubit pure state.
    """

    n_qubits: int
    layer_count: int

    def __post_init__(self) -> None:
        _dimension(self.n_qubits)
        if not _is_int(self.layer_count) or self.layer_count < 1:
            raise ValueError(f"layer_count must be an integer >= 1, got {self.layer_count!r}")

    @property
    def parameter_count(self) -> int:
        return 3 * self.n_qubits * (self.layer_count + 1)

    def prepare(self, params: np.ndarray) -> StateVector:
        """The state for one parameter vector: a batch of one."""
        return StateVector(self.n_qubits, prepare(self, np.asarray(params, dtype=float)[None])[0])

    def prepare_batch(self, batch: np.ndarray) -> np.ndarray:
        """The (B, 2^n) amplitudes of the rows of a (B, parameter_count) batch, in row order."""
        return prepare(self, batch)


def batch_rows(n_qubits: int) -> int:
    """How many rows of 2^n_qubits amplitudes a batch keeps in flight: max(1, _BATCH_AMPLITUDES >> n_qubits)."""
    return max(1, _BATCH_AMPLITUDES >> n_qubits)


def prepare(spec: AnsatzSpec, batch: np.ndarray) -> np.ndarray:
    """Run the ansatz on |0...0> for each row of a (B, parameter_count) batch, in row order.

    Returns the C-contiguous (B, 2^n) amplitudes, every row's norm
    checked in one reduction. Every fused gate of the batch is built at
    once; then each chunk of rows takes one einsum per (layer, qubit)
    and one CNOT-ladder gather per layer. The einsum adds the same two
    products per amplitude as for a single row, in any loop order, so
    each row's bytes do not depend on its batch.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != spec.parameter_count:
        raise ValueError(
            f"expected rows of {spec.parameter_count} parameters, got shape {batch.shape}"
        )
    if not np.isfinite(batch).all():
        raise ValueError("non-finite parameter")
    n, layers = spec.n_qubits, spec.layer_count
    gates = euler_gates(batch.reshape(len(batch), layers + 1, n, 3))
    rows = batch_rows(n)
    out = np.empty((len(batch), 1 << n), dtype=complex)
    for start in range(0, len(batch), rows):
        chunk = gates[start:start + rows]
        k = len(chunk)
        amps = np.zeros((k, 1 << n), dtype=complex)
        amps[:, 0] = 1.0
        for layer in range(layers + 1):
            for q in range(n):
                block = amps.reshape(k, 1 << q, 2, -1)
                # The default order loops innermost over the block's last axis,
                # 2^(n-q-1) amplitudes; at 8 or fewer, Fortran order is faster
                # (16 rows of 10 qubits, qubit 8: 1379 us -> 470 us).
                order = "F" if n - q <= 4 else "K"
                amps = np.einsum("kts,kasb->katb", chunk[:, layer, q], block, order=order).reshape(k, -1)
            if layer < layers:
                amps = amps[:, _cnot_ladder(n)]
        out[start:start + k] = amps
    _check_norms(out)
    return out


def batch_term_expectations(amplitudes: np.ndarray, h: PauliHamiltonian) -> np.ndarray:
    """The (B, T) noiseless <psi_b|P_t|psi_b> of the rows of (B, 2^n) amplitudes; real, in [-1, 1].

    With h's `action_table`, <psi|P_t|psi> = sum_j conj(psi[targets[t, j]])
    phases[t, j] psi[j]. One einsum per block of rows and terms, at most
    _BATCH_AMPLITUDES table entries, sums over j in numpy's own loops,
    not BLAS, so a value depends neither on the host's BLAS kernel nor on
    the blocking: each row's terms have the bytes of that row alone, and
    each term those of that term alone. Blocks keep the two complex
    temporaries small: over the whole table of a dense 10-mode
    Jordan-Wigner image (2546 terms), one einsum made two 42 MB
    temporaries and took three times as long, and an unblocked 8-qubit
    batch ran 18% slower.
    """
    targets, phases = h.action_table
    term_count, dim = targets.shape
    if amplitudes.ndim != 2 or amplitudes.shape[1] != dim:
        raise ValueError(f"Hamiltonian acts on {h.n_qubits} qubits, amplitudes have shape {amplitudes.shape}")
    terms = max(1, _BATCH_AMPLITUDES // dim)
    rows = max(1, terms // term_count)
    terms = min(terms, term_count)
    conj = amplitudes.conj()
    values = np.empty((len(amplitudes), term_count))
    for r in range(0, len(amplitudes), rows):
        for t in range(0, term_count, terms):
            block = np.s_[r:r + rows], np.s_[t:t + terms]
            products = phases[block[1]] * amplitudes[block[0], None]
            values[block] = np.einsum("bti,bti->bt", conj[block[0]][:, targets[block[1]]], products).real
    return values


def _weighted_sum(h: PauliHamiltonian, expectations: np.ndarray) -> float:
    """sum_t h_t <P_t>, added left to right in term order.

    A loop, not sum(): from Python 3.12 sum() compensates float rounding,
    which moved 99 of 150 exact energies of a seeded 2-qubit run.
    """
    total = 0.0
    for (c, _), e in zip(h.terms, expectations.tolist()):
        total += c * e
    return total


def exact_energy(state: StateVector, h: PauliHamiltonian) -> float:
    """Noiseless <psi|H|psi>: the weighted sum of the state's row of `batch_term_expectations`."""
    if h.n_qubits != state.n_qubits:
        raise ValueError(f"Hamiltonian acts on {h.n_qubits} qubits, state has {state.n_qubits}")
    return _weighted_sum(h, batch_term_expectations(state.amplitudes[None], h)[0])
