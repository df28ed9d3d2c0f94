"""Second-quantized operators, their qubit mapping, and coupled-cluster states.

Fermionic modes are 1-based. Mode j maps to qubit j-1 with the parity
string trailing on higher modes:

    a_j      ->  I^(j-1) (x) (X + iY)/2 (x) Z^(N-j)
    a_j^dag  ->  I^(j-1) (x) (X - iY)/2 (x) Z^(N-j)

With this sign choice the number operator a_j^dag a_j maps to
(I - Z)/2 on qubit j-1, i.e. |1> marks an occupied mode, and a
reference occupation bitstring doubles as a computational basis label.

An integrals file loads as a `FermionOperator` (`formats.load_integrals`),
whose constructor is the one check of every mode range and coefficient.

Cluster operators follow t_p^r a_p^dag a_r: the first index creates
(virtual orbital), the second annihilates (occupied orbital). T is
linear in the amplitudes, so a `UccAnsatz` maps each excitation E_k to
its qubit-space generator G_k = E_k - E_k^dag once, when it is built.
`jordan_wigner` maps Hermitian operators only, so the ansatz maps iG_k,
a Pauli sum with real weights, and reads -i times its matrix from the
sum's action table, one entry per basis state it moves. Each
state preparation then only sums sum_k t_k G_k and evaluates
exp(T - T^dag) exactly by eigendecomposition. No circuit compilation
happens at this scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .analysis import MAX_SPECTRUM_QUBITS
from .pauli import (
    PauliHamiltonian, _is_int, _is_real, _positive_count, _product, _real_sum,
)
from .statevector import MAX_QUBITS, StateVector, basis_state

FermionTerm = tuple[complex, tuple[tuple[int, bool], ...]]


@dataclass(frozen=True)
class FermionOperator:
    """Sum of products of creation/annihilation operators.

    Each term is (coefficient, ((mode, is_creation), ...)) with the
    operator product read left to right.
    """

    n_modes: int
    terms: tuple[FermionTerm, ...]

    def __init__(self, n_modes: int, terms: Iterable[tuple[complex, Iterable[tuple[int, bool]]]] = ()):
        n_modes = _positive_count("n_modes", n_modes)
        normalized: list[FermionTerm] = []
        for coeff, ops in terms:
            ops = tuple(ops)
            for mode, dag in ops:
                if not _is_int(mode) or not isinstance(dag, (bool, np.bool_)):
                    raise ValueError(f"each factor is an integer mode and a bool creation flag, got {(mode, dag)!r}")
                if not 1 <= mode <= n_modes:
                    raise ValueError(f"mode index {mode} out of range [1, {n_modes}]")
            # A float or complex may still be inf or nan; that has its own message.
            if not _is_real(coeff) and not isinstance(coeff, (float, complex, np.inexact)):
                raise ValueError(f"coefficient must be a number, got {coeff!r}")
            ops = tuple((int(mode), bool(dag)) for mode, dag in ops)
            coeff = complex(coeff)
            if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
                raise ValueError("non-finite coefficient")
            normalized.append((coeff, ops))
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "terms", tuple(normalized))

    @property
    def term_count(self) -> int:
        return len(self.terms)


def _ladder_expansion(mode: int, creation: bool, n_modes: int) -> list[tuple[complex, int, int]]:
    """The two (coefficient, x, z) halves of one ladder operator: X or Y on qubit mode-1, Z on every later qubit."""
    bit = 1 << (n_modes - mode)
    return [(0.5, bit, bit - 1), (-0.5j if creation else 0.5j, bit, 2 * bit - 1)]


def jordan_wigner(op: FermionOperator) -> PauliHamiltonian:
    """Map a Hermitian fermionic operator to its real Pauli sum.

    Raises ValueError when the image keeps an imaginary coefficient
    residue above `IMAG_TOL`, which happens exactly when the operator
    is not equal to its conjugate transpose. To map a non-Hermitian
    operator, map its Hermitian parts (O + O^dag)/2 and
    (O - O^dag)/(2i) apart, as `UccAnsatz` maps iG_k.
    """
    if op.n_modes > MAX_QUBITS:
        raise ValueError(f"mapping over {op.n_modes} modes exceeds the {MAX_QUBITS}-mode guard")
    terms: list[tuple[complex, int, int]] = []
    for coeff, ops in op.terms:
        expansion: list[tuple[complex, int, int]] = [(coeff, 0, 0)]
        for mode, dag in ops:
            factor = _ladder_expansion(mode, dag, op.n_modes)
            new_expansion: list[tuple[complex, int, int]] = []
            for c1, x1, z1 in expansion:
                for c2, x2, z2 in factor:
                    phase, x, z = _product(x1, z1, x2, z2)
                    new_expansion.append((c1 * c2 * phase, x, z))
            expansion = new_expansion
        terms += expansion
    return _real_sum(op.n_modes, terms)


def reference_index(reference: str, n_modes: int) -> int:
    if len(reference) != n_modes or set(reference) - {"0", "1"}:
        raise ValueError(
            f"reference must be a {n_modes}-character bitstring over 0/1, got {reference!r}"
        )
    return int(reference, 2)


def ucc_prepare(ansatz: "UccAnsatz", parameters: np.ndarray) -> StateVector:
    """Apply exp(sum_k theta_k G_k) to the ansatz's reference state.

    The generators G_k were built when the ansatz was; each call only
    sums them into one dense anti-Hermitian matrix and exponentiates it
    exactly via eigendecomposition.
    """
    parameters = np.asarray(parameters, dtype=float)
    if parameters.shape != (ansatz.parameter_count,):
        raise ValueError(
            f"expected {ansatz.parameter_count} amplitudes, got shape {parameters.shape}"
        )
    if not np.all(np.isfinite(parameters)):
        raise ValueError("non-finite amplitude")
    n, ref = ansatz.n_modes, int(ansatz.reference, 2)
    if not np.any(parameters):
        return basis_state(n, ref)
    generator = np.zeros((1 << n, 1 << n), dtype=complex)
    for theta, (rows, cols, values) in zip(parameters, ansatz.generators):
        generator[rows, cols] += theta * values
    # exp(A) for anti-Hermitian A via the Hermitian matrix iA.
    eigvals, eigvecs = np.linalg.eigh(1j * generator)
    unitary_column = eigvecs @ (np.exp(-1j * eigvals) * eigvecs.conj().T[:, ref])
    return StateVector(n, unitary_column / np.linalg.norm(unitary_column))


@dataclass(frozen=True)
class UccAnsatz:
    """Coupled-cluster state preparation as an optimizable ansatz.

    The parameter vector holds one amplitude per excitation in the
    fixed `excitations` ordering; entries are ("s", p, r) or
    ("d", p, q, r, s) over distinct modes, the creation indices before
    the annihilation ones. Construction checks the mode cap, the
    reference, that there is at least one excitation and that each has
    one of those two shapes (else ValueError naming it), and stores each
    excitation's generator G_k = E_k - E_k^dag as the nonzero (rows,
    cols, values) of its qubit-space matrix, in row order: -i times the
    matrix of the Jordan-Wigner image of the Hermitian iG_k, read from
    that image's `action_table`.
    """

    n_modes: int
    reference: str
    excitations: tuple[tuple, ...]
    generators: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        # Each preparation is one dense 2^n x 2^n eigendecomposition, as a spectrum is.
        if self.n_modes > MAX_SPECTRUM_QUBITS:
            raise ValueError(f"{self.n_modes} modes exceeds the {MAX_SPECTRUM_QUBITS}-mode guard")
        reference_index(self.reference, self.n_modes)
        if not self.excitations:
            raise ValueError(
                f"no excitation out of reference {self.reference!r}; the ansatz would have no amplitude to optimize"
            )
        generators = []
        for exc in self.excitations:
            shape = (exc[0], len(exc)) if isinstance(exc, tuple) and exc else None
            if shape not in (("s", 3), ("d", 5)) or len(set(exc[1:])) < len(exc) - 1:
                raise ValueError(f"excitation {exc!r} is not ('s', p, r) or ('d', p, q, r, s) over distinct modes")
            modes = exc[1:]
            ops = [(mode, i < len(modes) // 2) for i, mode in enumerate(modes)]
            adjoint = [(mode, not dag) for mode, dag in reversed(ops)]
            image = jordan_wigner(FermionOperator(self.n_modes, [(1j, ops), (-1j, adjoint)]))
            targets, phases = image.action_table
            # Every term flips the same modes, so row r's one entry is in column targets[0, r].
            values = -1j * sum(c * p for (c, _), p in zip(image.terms, phases))[targets[0]]
            rows = np.arange(1 << self.n_modes)[values != 0]
            generators.append((rows, targets[0, rows], values[rows]))
        object.__setattr__(self, "generators", tuple(generators))

    @property
    def parameter_count(self) -> int:
        return len(self.excitations)

    @classmethod
    def from_reference(cls, n_modes: int, reference: str) -> "UccAnsatz":
        """UCCSD: all singles and all doubles out of the occupied modes."""
        occupied = [m + 1 for m, ch in enumerate(reference) if ch == "1"]
        virtual = [m + 1 for m, ch in enumerate(reference) if ch == "0"]
        excitations: list[tuple] = []
        for p in virtual:
            for r in occupied:
                excitations.append(("s", p, r))
        for i, p in enumerate(virtual):
            for q in virtual[i + 1:]:
                for j, r in enumerate(occupied):
                    for s in occupied[j + 1:]:
                        excitations.append(("d", p, q, r, s))
        return cls(n_modes, reference, tuple(excitations))

    def prepare(self, parameters: np.ndarray) -> StateVector:
        return ucc_prepare(self, parameters)

    def prepare_batch(self, batch: np.ndarray) -> np.ndarray:
        """The (B, 2^n) amplitudes of the rows of a (B, parameter_count) batch: one `ucc_prepare` each."""
        return np.stack([ucc_prepare(self, row).amplitudes for row in batch])

    def reference_state(self) -> StateVector:
        return basis_state(self.n_modes, int(self.reference, 2))
