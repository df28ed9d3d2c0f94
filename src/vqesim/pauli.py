"""Pauli-string algebra: products, dense matrices of Pauli sums, folded operators.

Conventions used throughout the package:

* An n-qubit Pauli string is a label over {I, X, Y, Z}. Qubit 0 is the
  leftmost character and the leftmost Kronecker factor, so "XZ" means
  X on qubit 0 tensored with Z on qubit 1.
* Amplitude indices read like binary numbers with qubit 0 as the most
  significant bit: index 2 of a 2-qubit vector is the basis state |10>.
* A Hamiltonian is a weighted sum of Pauli strings with real
  coefficients. Every operator the package maps or folds is Hermitian
  and becomes such a sum; complex weights live only while they merge.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

PAULI_CHARS = "IXYZ"

IMAG_TOL = 1e-10  # the largest imaginary part a Hermitian Pauli sum's coefficient may keep
PRUNE = 1e-12  # coefficients smaller than this are dropped

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


def _positive_count(name: str, value) -> int:
    """A qubit or mode count as a Python int, once it is checked to be an integer >= 1."""
    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


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


def multiply(p: PauliString, q: PauliString) -> tuple[complex, PauliString]:
    """Product of two Pauli strings as (phase, string).

    The dense matrices satisfy P Q = phase R for the result R; the phase
    is one of {1, -1, 1j, -1j}.
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
        n_qubits = _positive_count("n_qubits", n_qubits)
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
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(
            self,
            "terms",
            tuple((c, PauliString(lbl)) for lbl, c in merged.items()),
        )

    @property
    def term_count(self) -> int:
        return len(self.terms)


def _real_sum(n_qubits: int, terms: Iterable[tuple[complex, str]]) -> PauliHamiltonian:
    """Merge complex-weighted Pauli labels into the real sum of a Hermitian operator.

    Coefficients add in order of first appearance. A merged imaginary
    part above IMAG_TOL means the operator is not Hermitian and raises
    ValueError; real parts below PRUNE are dropped.
    """
    merged: dict[str, complex] = {}
    for coeff, label in terms:
        merged[label] = merged.get(label, 0.0) + complex(coeff)
    residue = max((abs(c.imag) for c in merged.values()), default=0.0)
    if residue > IMAG_TOL:
        raise ValueError(f"imaginary residue {residue:.3e} exceeds {IMAG_TOL:.1e}; sum is not Hermitian")
    return PauliHamiltonian(n_qubits, [(c.real, lbl) for lbl, c in merged.items() if abs(c.real) >= PRUNE])


def reconstruct(h: PauliHamiltonian) -> np.ndarray:
    """Dense matrix of a Pauli sum, built from each term's `basis_action`."""
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
    terms: list[tuple[complex, str]] = []
    for ci, pi in h.terms:
        for cj, pj in h.terms:
            phase, pk = multiply(pi, pj)
            terms.append((ci * cj * phase, pk.label))
    terms += [(-2.0 * shift * c, p.label) for c, p in h.terms]
    terms.append((shift * shift, "I" * h.n_qubits))
    return _real_sum(h.n_qubits, terms)
