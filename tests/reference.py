"""Dense oracles and small helpers that the tests compare vqesim against.

No run path needs any of this, so it lives beside the tests rather than
in the library. From vqesim it imports only the two containers,
PauliHamiltonian and PauliString, never `action_table` or `reconstruct`:
a test that compares the library's permutation-and-phase route with
these Kronecker products compares two independent constructions.

The decomposition coefficient of string P in a matrix M is
Tr(P M) / 2^n (Hilbert-Schmidt convention), which makes `decompose` and
`vqesim.reconstruct` exact inverses.
"""

from __future__ import annotations

import itertools

import numpy as np

from vqesim import PauliHamiltonian, PauliString

# Hard cap for the full 4^n-basis decomposition; the dense oracle path
# is exponential and meant for desk-scale inputs only.
MAX_DECOMPOSE_QUBITS = 8

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli_matrix(p: PauliString | str) -> np.ndarray:
    """Dense matrix of a Pauli string (Kronecker product in label order)."""
    label = p.label if isinstance(p, PauliString) else PauliString(p).label
    m = np.array([[1.0 + 0.0j]])
    for ch in label:
        m = np.kron(m, _SINGLE[ch])
    return m


def _require_power_of_two(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise ValueError(f"matrix dimension {dim} is not a power of two")
    return n


def decompose(m: np.ndarray, prune: float = 1e-12) -> PauliHamiltonian:
    """Expand a Hermitian matrix in the Pauli basis.

    Coefficient of string P is Tr(P m) / 2^n. Raises if the dimension
    is not a power of two, if n exceeds MAX_DECOMPOSE_QUBITS, or if any
    coefficient's imaginary part exceeds 1e-8 (non-Hermitian input);
    imaginary dust below that is discarded. Terms with |coefficient|
    below `prune` (by default the library's `pauli.PRUNE`) are dropped.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = _require_power_of_two(m.shape[0])
    if n > MAX_DECOMPOSE_QUBITS:
        raise ValueError(
            f"decomposition over {n} qubits exceeds the {MAX_DECOMPOSE_QUBITS}-qubit guard"
        )
    # Contract one qubit at a time: tensor axes reordered to pairs
    # (row_k, col_k) so each step traces sigma against one pair and
    # multiplies the batch of partial traces by 4.
    t = m.reshape((2,) * (2 * n))
    order = [axis for k in range(n) for axis in (k, n + k)]
    t = np.transpose(t, order)
    sig = np.stack(list(_SINGLE.values()))
    a = t.reshape(1, 2, 2, -1)
    for k in range(n):
        contracted = np.einsum("pij,bjir->bpr", sig, a)
        if k < n - 1:
            a = contracted.reshape(contracted.shape[0] * 4, 2, 2, -1)
        else:
            coeffs = contracted.reshape(-1)
    coeffs = coeffs / (1 << n)
    worst_imag = float(np.max(np.abs(coeffs.imag)))
    if worst_imag > 1e-8:
        raise ValueError(
            f"imaginary residue {worst_imag:.3e} exceeds 1e-8; input is not Hermitian"
        )
    labels = ["".join(tup) for tup in itertools.product(_SINGLE, repeat=n)]
    terms = [
        (c.real, lbl)
        for c, lbl in zip(coeffs, labels)
        if abs(c.real) >= prune
    ]
    return PauliHamiltonian(n, terms)


def overlap(a, b) -> float:
    """|<a|b>| of two StateVectors; symmetric and global-phase invariant."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


def coefficient(h: PauliHamiltonian, label: str) -> float:
    """The coefficient of `label` in `h`, 0.0 for a string it does not hold."""
    return next((c for c, p in h.terms if p.label == label), 0.0)


def apply_gate(amps: np.ndarray, gate: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 gate to one qubit of a single row of amplitudes, one einsum per gate."""
    block = amps.reshape(1 << qubit, 2, -1)
    return np.einsum("ts,asb->atb", gate, block).reshape(-1)


def pauli_expectation(amps: np.ndarray, label: str) -> float:
    """<psi|P|psi> with P applied as its Kronecker factors, one `apply_gate` per qubit.

    Never forms the 2^n x 2^n matrix, so it serves at 12 qubits.
    """
    image = amps
    for qubit, ch in enumerate(label):
        image = apply_gate(image, _SINGLE[ch], qubit)
    return float(np.vdot(amps, image).real)
