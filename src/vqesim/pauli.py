"""Pauli-string algebra: products, dense matrices of Pauli sums, folded operators.

Conventions used throughout the package:

* An n-qubit Pauli string is a label over {I, X, Y, Z}. Qubit 0 is the
  leftmost character and the leftmost Kronecker factor, so "XZ" means
  X on qubit 0 tensored with Z on qubit 1.
* Amplitude indices read like binary numbers with qubit 0 as the most
  significant bit: index 2 of a 2-qubit vector is the basis state |10>.
* A string also carries two bit masks, x and z, with qubit q at bit
  n-1-q as in amplitude indices, and P = i^|x&z| X^x Z^z: X sets x, Z
  sets z, Y sets both. "XYZI" has x = 0b1100 and z = 0b0110. Products
  and basis actions are integer operations on these masks.
* A Hamiltonian is a weighted sum of Pauli strings with real
  coefficients. Every operator the package maps or folds is Hermitian
  and becomes such a sum; complex weights live only while they merge.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

PAULI_CHARS = "IXYZ"

IMAG_TOL = 1e-10  # the largest imaginary part a Hermitian Pauli sum's coefficient may keep
PRUNE = 1e-12  # coefficients smaller than this are dropped

# i^k for k = 0..3, the phase of every Pauli product.
_PHASES = (1, 1j, -1, -1j)
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")


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
    """Tensor product of single-qubit Paulis: its label and the label's (x, z) masks."""

    label: str
    x: int = field(init=False, repr=False, compare=False)
    z: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("Pauli label must be nonempty")
        for pos, ch in enumerate(self.label):
            if ch not in PAULI_CHARS:
                raise ValueError(
                    f"invalid Pauli factor {ch!r} at position {pos} in {self.label!r}"
                )
        object.__setattr__(self, "x", int(self.label.translate(_X_DIGITS), 2))
        object.__setattr__(self, "z", int(self.label.translate(_Z_DIGITS), 2))

    @property
    def n_qubits(self) -> int:
        return len(self.label)

    @property
    def is_identity(self) -> bool:
        return not (self.x | self.z)


def _product(px: int, pz: int, qx: int, qz: int) -> tuple[complex, int, int]:
    """The product of the strings (px, pz) and (qx, qz) as (phase, x, z): P Q = phase R for R = (x, z).

    Each string carries its own i^|x&z|, and moving Z^pz past X^qx gives (-1)^|pz&qx|.
    """
    x, z = px ^ qx, pz ^ qz
    k = (px & pz).bit_count() + (qx & qz).bit_count() + 2 * (pz & qx).bit_count() - (x & z).bit_count()
    return _PHASES[k % 4], x, z


def _label(n_qubits: int, x: int, z: int) -> str:
    """The label of the n-qubit string with masks (x, z)."""
    return "".join("IZXY"[2 * (x >> k & 1) + (z >> k & 1)] for k in reversed(range(n_qubits)))


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
        merged: dict[str, list] = {}  # label -> [coefficient, the first PauliString given]
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
            merged.setdefault(string.label, [0.0, string])[0] += coeff
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "terms", tuple((c, p) for c, p in merged.values()))

    @property
    def term_count(self) -> int:
        return len(self.terms)

    @cached_property
    def action_table(self) -> tuple[np.ndarray, np.ndarray]:
        """How every term permutes and phases computational basis states, built once.

        Returns read-only (term_count, 2^n) arrays (targets, phases) with
        P_t|j> = phases[t, j] |targets[t, j]> for term t. From
        P = i^|x&z| X^x Z^z, P|j> = i^(|x&z| + 2|j&z|) |j^x>.
        """
        x = np.array([p.x for _, p in self.terms], dtype=np.int64)[:, None]
        z = np.array([p.z for _, p in self.terms], dtype=np.int64)[:, None]
        idx = np.arange(1 << self.n_qubits)
        targets = idx ^ x
        phases = np.array(_PHASES)[(np.bitwise_count(x & z) + 2 * np.bitwise_count(idx & z)) % 4]
        targets.flags.writeable = False
        phases.flags.writeable = False
        return targets, phases


def _real_sum(n_qubits: int, terms: Iterable[tuple[complex, int, int]]) -> PauliHamiltonian:
    """Merge complex-weighted (coefficient, x, z) strings into the real sum of a Hermitian operator.

    Coefficients add in order of first appearance. A merged imaginary
    part above IMAG_TOL means the operator is not Hermitian and raises
    ValueError; real parts below PRUNE are dropped, and only the strings
    kept get a label.
    """
    merged: dict[tuple[int, int], complex] = {}
    for coeff, x, z in terms:
        merged[x, z] = merged.get((x, z), 0.0) + complex(coeff)
    residue = max((abs(c.imag) for c in merged.values()), default=0.0)
    if residue > IMAG_TOL:
        raise ValueError(f"imaginary residue {residue:.3e} exceeds {IMAG_TOL:.1e}; sum is not Hermitian")
    return PauliHamiltonian(
        n_qubits, [(c.real, _label(n_qubits, x, z)) for (x, z), c in merged.items() if abs(c.real) >= PRUNE]
    )


def reconstruct(h: PauliHamiltonian) -> np.ndarray:
    """Dense matrix of a Pauli sum, built from its `action_table`."""
    dim = 1 << h.n_qubits
    m = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for (coeff, _), targets, phases in zip(h.terms, *h.action_table):
        m[targets, cols] += coeff * phases
    return m


def shift_and_square(h: PauliHamiltonian, shift: float) -> PauliHamiltonian:
    """Pauli expansion of (H - shift)^2.

    Pairwise term products with phase tracking, merged; the result has
    at most quadratically many terms and targets the eigenvalue nearest
    the shift when minimized.
    """
    terms: list[tuple[complex, int, int]] = []
    for ci, pi in h.terms:
        for cj, pj in h.terms:
            phase, x, z = _product(pi.x, pi.z, pj.x, pj.z)
            terms.append((ci * cj * phase, x, z))
    terms += [(-2.0 * shift * c, p.x, p.z) for c, p in h.terms]
    terms.append((shift * shift, 0, 0))
    return _real_sum(h.n_qubits, terms)
