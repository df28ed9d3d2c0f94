"""Pauli-string algebra: products, Hermitian decomposition, folded operators.

Conventions used throughout the package:

* An n-qubit Pauli string is a label over {I, X, Y, Z}. Qubit 0 is the
  leftmost character and the leftmost Kronecker factor, so "XZ" means
  X on qubit 0 tensored with Z on qubit 1.
* Amplitude indices read like binary numbers with qubit 0 as the most
  significant bit: index 2 of a 2-qubit vector is the basis state |10>.
* A Hamiltonian is a weighted sum of Pauli strings with real
  coefficients. The decomposition coefficient of string P in a matrix
  M is Tr(P M) / 2^n (Hilbert-Schmidt convention), which makes
  decompose/reconstruct exact inverses.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

PAULI_CHARS = "IXYZ"

# Hard cap for the full 4^n-basis decomposition; the dense oracle path
# is exponential and meant for desk-scale inputs only.
MAX_DECOMPOSE_QUBITS = 8
IMAG_TOL = 1e-10  # the largest imaginary part a Hermitian Pauli sum's coefficient may keep
PRUNE = 1e-12  # coefficients smaller than this are dropped

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# Single-qubit products a*b -> (result, phase); e.g. X*Y = +i Z.
_MULT = {
    ("I", "I"): ("I", 1), ("I", "X"): ("X", 1), ("I", "Y"): ("Y", 1), ("I", "Z"): ("Z", 1),
    ("X", "I"): ("X", 1), ("X", "X"): ("I", 1), ("X", "Y"): ("Z", 1j), ("X", "Z"): ("Y", -1j),
    ("Y", "I"): ("Y", 1), ("Y", "X"): ("Z", -1j), ("Y", "Y"): ("I", 1), ("Y", "Z"): ("X", 1j),
    ("Z", "I"): ("Z", 1), ("Z", "X"): ("Y", 1j), ("Z", "Y"): ("X", -1j), ("Z", "Z"): ("I", 1),
}


def _is_int(value) -> bool:
    """An integer as typed: a Python or numpy int, never a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite real number as typed: a Python or numpy int or float, never a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, stored as its label."""

    label: str

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("Pauli label must be nonempty")
        for pos, ch in enumerate(self.label):
            if ch not in PAULI_CHARS:
                raise ValueError(
                    f"invalid Pauli factor {ch!r} at position {pos} in {self.label!r}"
                )

    @property
    def n_qubits(self) -> int:
        return len(self.label)

    @property
    def is_identity(self) -> bool:
        return set(self.label) == {"I"}

    def __str__(self) -> str:
        return self.label


def pauli_matrix(p: PauliString | str) -> np.ndarray:
    """Dense matrix of a Pauli string (Kronecker product in label order)."""
    label = p.label if isinstance(p, PauliString) else PauliString(p).label
    m = np.array([[1.0 + 0.0j]])
    for ch in label:
        m = np.kron(m, _SINGLE[ch])
    return m


def multiply(p: PauliString, q: PauliString) -> tuple[complex, PauliString]:
    """Product of two Pauli strings as (phase, string).

    Satisfies pauli_matrix(p) @ pauli_matrix(q) == phase * pauli_matrix(result);
    the phase is one of {1, -1, 1j, -1j}.
    """
    if p.n_qubits != q.n_qubits:
        raise ValueError(
            f"length mismatch: {p.n_qubits} vs {q.n_qubits} qubits"
        )
    phase: complex = 1
    out = []
    for a, b in zip(p.label, q.label):
        ch, ph = _MULT[(a, b)]
        out.append(ch)
        phase *= ph
    return phase, PauliString("".join(out))


@lru_cache(maxsize=8192)
def basis_action(label: str) -> tuple[np.ndarray, np.ndarray]:
    """How a Pauli string permutes and phases computational basis states.

    Returns (targets, phases) with P|j> = phases[j] |targets[j]>; both
    arrays are cached and read-only.
    """
    p = PauliString(label)
    n = p.n_qubits
    dim = 1 << n
    idx = np.arange(dim)
    targets = idx.copy()
    phases = np.ones(dim, dtype=complex)
    for q, ch in enumerate(label):
        if ch == "I":
            continue
        mask = 1 << (n - 1 - q)
        bit = (idx & mask) >> (n - 1 - q)
        if ch == "Z":
            phases = phases * (1 - 2 * bit)
        elif ch == "X":
            targets = targets ^ mask
        else:  # Y|b> = i(-1)^b |1-b>
            targets = targets ^ mask
            phases = phases * (1j * (1 - 2 * bit))
    targets.flags.writeable = False
    phases.flags.writeable = False
    return targets, phases


@dataclass(frozen=True, eq=True)
class PauliHamiltonian:
    """Weighted sum of Pauli strings with real coefficients.

    Duplicate strings are merged by coefficient addition at
    construction; term order is first appearance.
    """

    n_qubits: int
    terms: tuple[tuple[float, PauliString], ...]

    def __init__(self, n_qubits: int, terms: Iterable[tuple[float, PauliString | str]] = ()):
        if not _is_int(n_qubits):
            raise ValueError(f"n_qubits must be an integer, got {n_qubits!r}")
        if n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        merged: dict[str, float] = {}
        for coeff, string in terms:
            if isinstance(string, str):
                string = PauliString(string)
            if string.n_qubits != n_qubits:
                raise ValueError(
                    f"term {string.label!r} has {string.n_qubits} qubits, expected {n_qubits}"
                )
            # A float may still be inf or nan; that has its own message.
            if not _is_real(coeff) and not isinstance(coeff, (float, np.floating)):
                raise ValueError(f"coefficient for term {string.label!r} must be a real number, got {coeff!r}")
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ValueError(f"non-finite coefficient for term {string.label!r}")
            merged[string.label] = merged.get(string.label, 0.0) + coeff
        object.__setattr__(self, "n_qubits", int(n_qubits))
        object.__setattr__(
            self,
            "terms",
            tuple((c, PauliString(lbl)) for lbl, c in merged.items()),
        )

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def coefficient(self, label: str) -> float:
        for c, p in self.terms:
            if p.label == label:
                return c
        return 0.0

    def __str__(self) -> str:
        if not self.terms:
            return f"0 ({self.n_qubits} qubits)"
        return " + ".join(f"{c:+g}*{p}" for c, p in self.terms)


class ComplexPauliSum:
    """Accumulator for Pauli sums with complex coefficients.

    Intermediate container for operator products (folded spectrum,
    fermion mappings) whose imaginary parts cancel only after merging.
    """

    def __init__(self, n_qubits: int):
        if not _is_int(n_qubits):
            raise ValueError(f"n_qubits must be an integer, got {n_qubits!r}")
        if n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        self.n_qubits = int(n_qubits)
        self._coeffs: dict[str, complex] = {}

    def add(self, label: str, coeff: complex) -> None:
        if len(label) != self.n_qubits:
            raise ValueError(f"label {label!r} has wrong length for {self.n_qubits} qubits")
        self._coeffs[label] = self._coeffs.get(label, 0.0) + complex(coeff)

    @property
    def terms(self) -> tuple[tuple[complex, PauliString], ...]:
        return tuple((c, PauliString(lbl)) for lbl, c in self._coeffs.items())

    @property
    def term_count(self) -> int:
        return len(self._coeffs)

    def imag_residue(self) -> float:
        if not self._coeffs:
            return 0.0
        return max(abs(c.imag) for c in self._coeffs.values())

    def to_hamiltonian(self) -> PauliHamiltonian:
        residue = self.imag_residue()
        if residue > IMAG_TOL:
            raise ValueError(
                f"imaginary residue {residue:.3e} exceeds {IMAG_TOL:.1e}; sum is not Hermitian"
            )
        terms = [
            (c.real, lbl) for lbl, c in self._coeffs.items() if abs(c.real) >= PRUNE
        ]
        return PauliHamiltonian(self.n_qubits, terms)


def _require_power_of_two(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise ValueError(f"matrix dimension {dim} is not a power of two")
    return n


def decompose(m: np.ndarray, prune: float = PRUNE) -> PauliHamiltonian:
    """Expand a Hermitian matrix in the Pauli basis.

    Coefficient of string P is Tr(P m) / 2^n. Raises if the dimension
    is not a power of two, if n exceeds MAX_DECOMPOSE_QUBITS, or if any
    coefficient's imaginary part exceeds 1e-8 (non-Hermitian input);
    imaginary dust below that is discarded. Terms with |coefficient|
    below `prune` are dropped.
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
    sig = np.stack([_SINGLE[c] for c in PAULI_CHARS])
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
    labels = ["".join(tup) for tup in itertools.product(PAULI_CHARS, repeat=n)]
    terms = [
        (c.real, lbl)
        for c, lbl in zip(coeffs, labels)
        if abs(c.real) >= prune
    ]
    return PauliHamiltonian(n, terms)


def reconstruct(h: PauliHamiltonian | ComplexPauliSum) -> np.ndarray:
    """Dense matrix of a Pauli sum; for a PauliHamiltonian, the inverse of decompose."""
    dim = 1 << h.n_qubits
    m = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for coeff, p in h.terms:
        targets, phases = basis_action(p.label)
        m[targets, cols] += coeff * phases
    return m


def shift_and_square(h: PauliHamiltonian, shift: float) -> PauliHamiltonian:
    """Pauli expansion of (H - shift)^2.

    Pairwise term products with phase tracking, merged; the result has
    at most quadratically many terms and targets the eigenvalue nearest
    the shift when minimized.
    """
    acc = ComplexPauliSum(h.n_qubits)
    for ci, pi in h.terms:
        for cj, pj in h.terms:
            phase, pk = multiply(pi, pj)
            acc.add(pk.label, ci * cj * phase)
    for c, p in h.terms:
        acc.add(p.label, -2.0 * shift * c)
    acc.add("I" * h.n_qubits, shift * shift)
    return acc.to_hamiltonian()
