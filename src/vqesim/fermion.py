"""Second-quantized operators, their qubit mapping, and coupled-cluster states.

Fermionic modes are 1-based. Mode j maps to qubit j-1 with the parity
string trailing on higher modes:

    a_j      ->  I^(j-1) (x) (X + iY)/2 (x) Z^(N-j)
    a_j^dag  ->  I^(j-1) (x) (X - iY)/2 (x) Z^(N-j)

With this sign choice the number operator a_j^dag a_j maps to
(I - Z)/2 on qubit j-1, i.e. |1> marks an occupied mode, and a
reference occupation bitstring doubles as a computational basis label.

Cluster operators follow t_p^r a_p^dag a_r: the first index creates
(virtual orbital), the second annihilates (occupied orbital). The
coupled-cluster exponential exp(T - T^dag) is evaluated exactly by
eigendecomposition; no circuit compilation happens at this scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .pauli import ComplexPauliSum, PauliHamiltonian, PauliString, multiply, reconstruct
from .statevector import StateVector, basis_state

MAX_UCC_MODES = 10
MAX_JW_MODES = 12

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
        if n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        normalized: list[FermionTerm] = []
        for coeff, ops in terms:
            ops = tuple((int(mode), bool(dag)) for mode, dag in ops)
            for mode, _ in ops:
                if not 1 <= mode <= n_modes:
                    raise ValueError(f"mode index {mode} out of range [1, {n_modes}]")
            coeff = complex(coeff)
            if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
                raise ValueError("non-finite coefficient")
            normalized.append((coeff, ops))
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "terms", tuple(normalized))

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def adjoint(self) -> "FermionOperator":
        terms = [
            (coeff.conjugate(), tuple((mode, not dag) for mode, dag in reversed(ops)))
            for coeff, ops in self.terms
        ]
        return FermionOperator(self.n_modes, terms)

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        if other.n_modes != self.n_modes:
            raise ValueError("mode counts differ")
        negated = [(-c, ops) for c, ops in other.terms]
        return FermionOperator(self.n_modes, list(self.terms) + negated)


def _ladder_expansion(mode: int, creation: bool, n_modes: int) -> list[tuple[complex, str]]:
    """The two Pauli-string halves of one ladder operator."""
    head = "I" * (mode - 1)
    tail = "Z" * (n_modes - mode)
    x_label = head + "X" + tail
    y_label = head + "Y" + tail
    y_coeff = -0.5j if creation else 0.5j
    return [(0.5, x_label), (y_coeff, y_label)]


def jordan_wigner(op: FermionOperator) -> PauliHamiltonian | ComplexPauliSum:
    """Map a fermionic operator to qubit form.

    Returns a PauliHamiltonian when the image is Hermitian (imaginary
    coefficient residue below 1e-10, which holds exactly when the
    fermionic input equals its conjugate transpose); otherwise the
    complex-coefficient sum is returned as a ComplexPauliSum.
    """
    if op.n_modes > MAX_JW_MODES:
        raise ValueError(f"mapping over {op.n_modes} modes exceeds the {MAX_JW_MODES}-mode guard")
    acc = ComplexPauliSum(op.n_modes)
    identity = "I" * op.n_modes
    for coeff, ops in op.terms:
        expansion: list[tuple[complex, str]] = [(coeff, identity)]
        for mode, dag in ops:
            factor = _ladder_expansion(mode, dag, op.n_modes)
            new_expansion: list[tuple[complex, str]] = []
            for c1, label1 in expansion:
                for c2, label2 in factor:
                    phase, product = multiply(PauliString(label1), PauliString(label2))
                    new_expansion.append((c1 * c2 * phase, product.label))
            expansion = new_expansion
        for c, label in expansion:
            acc.add(label, c)
    if acc.imag_residue() <= 1e-10:
        return acc.to_hamiltonian(imag_tol=1e-10)
    return acc


def jw_matrix(op: FermionOperator) -> np.ndarray:
    """Dense qubit-space matrix of a fermionic operator (oracle path)."""
    return reconstruct(jordan_wigner(op))


@dataclass(frozen=True)
class MolecularIntegrals:
    """Sparse one- and two-body coefficients with explicit 1-based indices."""

    n_modes: int
    one_body: tuple[tuple[int, int, float], ...]
    two_body: tuple[tuple[int, int, int, int, float], ...]

    def __init__(
        self,
        n_modes: int,
        one_body: Iterable[tuple[int, int, float]] = (),
        two_body: Iterable[tuple[int, int, int, int, float]] = (),
    ):
        if n_modes < 1:
            raise ValueError("n_modes must be >= 1")

        def check(indices: tuple[int, ...], value: float) -> None:
            for idx in indices:
                if not 1 <= idx <= n_modes:
                    raise ValueError(f"orbital index {idx} out of range [1, {n_modes}]")
            if not math.isfinite(value):
                raise ValueError("non-finite integral value")

        one = []
        for p, q, v in one_body:
            p, q, v = int(p), int(q), float(v)
            check((p, q), v)
            one.append((p, q, v))
        two = []
        for p, q, r, s, v in two_body:
            p, q, r, s, v = int(p), int(q), int(r), int(s), float(v)
            check((p, q, r, s), v)
            two.append((p, q, r, s, v))
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "one_body", tuple(one))
        object.__setattr__(self, "two_body", tuple(two))


def build_molecular_hamiltonian(integrals: MolecularIntegrals) -> FermionOperator:
    """Sum of h_pq a_p^dag a_q and h_pqrs a_p^dag a_q^dag a_r a_s terms.

    Index tuples are applied literally in the stored order; no
    chemists'/physicists' reordering is attempted.
    """
    terms: list[tuple[complex, tuple[tuple[int, bool], ...]]] = []
    for p, q, v in integrals.one_body:
        terms.append((v, ((p, True), (q, False))))
    for p, q, r, s, v in integrals.two_body:
        terms.append((v, ((p, True), (q, True), (r, False), (s, False))))
    return FermionOperator(integrals.n_modes, terms)


@dataclass(frozen=True)
class ClusterAmplitudes:
    """Sparse singles/doubles amplitudes with excitation cap 1 or 2."""

    n_modes: int
    singles: Mapping[tuple[int, int], float] = field(default_factory=dict)
    doubles: Mapping[tuple[int, int, int, int], float] = field(default_factory=dict)
    cap: int = 2

    def __post_init__(self) -> None:
        if self.cap not in (1, 2):
            raise ValueError("excitation cap must be 1 or 2")
        if self.cap < 2 and self.doubles:
            raise ValueError("doubles amplitudes present but excitation cap is 1")
        for key, value in list(self.singles.items()) + list(self.doubles.items()):
            for idx in key:
                if not 1 <= idx <= self.n_modes:
                    raise ValueError(f"amplitude index {idx} out of range [1, {self.n_modes}]")
            if not math.isfinite(value):
                raise ValueError("non-finite amplitude")


def build_cluster(amplitudes: ClusterAmplitudes) -> FermionOperator:
    """The truncated cluster operator T = T1 (+ T2)."""
    terms: list[tuple[complex, tuple[tuple[int, bool], ...]]] = []
    for (p, r), t in amplitudes.singles.items():
        terms.append((t, ((p, True), (r, False))))
    for (p, q, r, s), t in amplitudes.doubles.items():
        terms.append((t, ((p, True), (q, True), (r, False), (s, False))))
    return FermionOperator(amplitudes.n_modes, terms)


def reference_index(reference: str, n_modes: int) -> int:
    if len(reference) != n_modes or set(reference) - {"0", "1"}:
        raise ValueError(
            f"reference must be a {n_modes}-character bitstring over 0/1, got {reference!r}"
        )
    return int(reference, 2)


def ucc_prepare(amplitudes: ClusterAmplitudes, reference: str) -> StateVector:
    """Apply exp(T - T^dag) to a computational-basis reference state.

    The anti-Hermitian generator is mapped to qubit space, checked
    (a corrupted amplitude table breaks anti-Hermiticity), and
    exponentiated exactly via eigendecomposition.
    """
    n = amplitudes.n_modes
    if n > MAX_UCC_MODES:
        raise ValueError(f"{n} modes exceeds the {MAX_UCC_MODES}-mode guard")
    ref = reference_index(reference, n)
    cluster = build_cluster(amplitudes)
    if not cluster.terms:
        return basis_state(n, ref)
    generator = jw_matrix(cluster - cluster.adjoint())
    if not np.any(generator):
        return basis_state(n, ref)
    defect = float(np.max(np.abs(generator + generator.conj().T)))
    if defect > 1e-10 * max(1.0, float(np.max(np.abs(generator)))):
        raise ValueError(f"generator is not anti-Hermitian (defect {defect:.3e}); amplitude table corrupt")
    # exp(A) for anti-Hermitian A via the Hermitian matrix iA.
    eigvals, eigvecs = np.linalg.eigh(1j * generator)
    unitary_column = eigvecs @ (np.exp(-1j * eigvals) * eigvecs.conj().T[:, ref])
    amps = unitary_column / np.linalg.norm(unitary_column)
    return StateVector(n, amps)


@dataclass(frozen=True)
class UccAnsatz:
    """Coupled-cluster state preparation as an optimizable ansatz.

    The parameter vector holds one amplitude per excitation in the
    fixed `excitations` ordering; entries are ("s", p, r) or
    ("d", p, q, r, s).
    """

    n_modes: int
    reference: str
    excitations: tuple[tuple, ...]

    def __post_init__(self) -> None:
        reference_index(self.reference, self.n_modes)

    @property
    def parameter_count(self) -> int:
        return len(self.excitations)

    @classmethod
    def from_reference(cls, n_modes: int, reference: str, cap: int = 2) -> "UccAnsatz":
        """All singles (and doubles, if cap=2) out of the occupied modes."""
        if cap not in (1, 2):
            raise ValueError("excitation cap must be 1 or 2")
        reference_index(reference, n_modes)
        occupied = [m + 1 for m, ch in enumerate(reference) if ch == "1"]
        virtual = [m + 1 for m, ch in enumerate(reference) if ch == "0"]
        excitations: list[tuple] = []
        for p in virtual:
            for r in occupied:
                excitations.append(("s", p, r))
        if cap == 2:
            for i, p in enumerate(virtual):
                for q in virtual[i + 1:]:
                    for j, r in enumerate(occupied):
                        for s in occupied[j + 1:]:
                            excitations.append(("d", p, q, r, s))
        return cls(n_modes, reference, tuple(excitations))

    def amplitudes(self, parameters: np.ndarray) -> ClusterAmplitudes:
        parameters = np.asarray(parameters, dtype=float)
        if parameters.shape != (self.parameter_count,):
            raise ValueError(
                f"expected {self.parameter_count} amplitudes, got shape {parameters.shape}"
            )
        singles: dict[tuple[int, int], float] = {}
        doubles: dict[tuple[int, int, int, int], float] = {}
        for value, exc in zip(parameters, self.excitations):
            if exc[0] == "s":
                singles[(exc[1], exc[2])] = float(value)
            else:
                doubles[(exc[1], exc[2], exc[3], exc[4])] = float(value)
        return ClusterAmplitudes(self.n_modes, singles, doubles, cap=2 if doubles else 1)

    def prepare(self, parameters: np.ndarray) -> StateVector:
        return ucc_prepare(self.amplitudes(parameters), self.reference)

    def reference_state(self) -> StateVector:
        return basis_state(self.n_modes, reference_index(self.reference, self.n_modes))

