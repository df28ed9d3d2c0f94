"""Shot-based estimation of Pauli expectations and Hamiltonian energies.

Each Pauli term is measured in its own short experiment: the prepared
state is rotated into the term's joint eigenbasis (Hadamard for X
factors, Rz(-pi/2) then Hadamard for Y) and every shot scores +1 or -1,
the product of the eigenvalues at the non-identity positions. Only the
number k of +1 outcomes among s shots carries information, and it is
Binomial(s, (1 + <P>)/2), so each term is one binomial draw: mean
(2k - s)/s, per-shot variance 1 - <P>^2. Estimating one term with
coefficient h to precision p therefore costs ceil(h^2/p^2) shots, and
the per-evaluation budget is the sum of that rule over terms.

On hardware every term needs a fresh preparation. On a noiseless
statevector a re-preparation returns the same amplitudes, so the state
is prepared once per evaluation and each term draws its count on its
own RNG stream; that is statistically the same as re-preparing, and the
term estimates stay independent.

Randomness is fully deterministic: a 64-bit seed plus a (term index,
iteration index) stream label select an independent generator, so term
estimates may be computed in any order (or concurrently) without
changing results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliHamiltonian, PauliString
from .statevector import StateVector, exact_energy, exact_expectation

# SeedSequence spawn-key namespaces; keeps sampling streams disjoint
# from parameter-init, scan-point and Monte-Carlo streams.
STREAM_SAMPLING = 0
STREAM_INIT = 1
STREAM_SCAN = 2
STREAM_MC = 3

MAX_SEED = 2**64 - 1
# The most shots one term may take: numpy draws them as a 64-bit integer.
MAX_TERM_SHOTS = 2**63 - 1


def derived_generator(seed: int, namespace: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, namespace, key...)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(namespace, *key))
    return np.random.default_rng(ss)


def derive_seed(seed: int, namespace: int, *key: int) -> int:
    """Deterministic 64-bit child seed, e.g. one per scan point."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(namespace, *key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class RngStream:
    """Seed plus (term index, iteration index) label for one sample stream.

    Identical (seed, label) pairs reproduce identical sample sequences.
    """

    seed: int
    label: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError("seed must fit in 64 unsigned bits")
        t, i = self.label
        if t < 0 or i < 0:
            raise ValueError("stream label indices must be non-negative")

    def labeled(self, term_index: int, iteration_index: int) -> "RngStream":
        return RngStream(self.seed, (term_index, iteration_index))

    def generator(self) -> np.random.Generator:
        return derived_generator(self.seed, STREAM_SAMPLING, *self.label)


@dataclass(frozen=True)
class ShotPolicy:
    """How energies are estimated: noiseless, fixed shots, or target precision.

    `bias` emulates a constant systematic shift of sampled estimates
    (hardware-style offset); it is off by default and never applied in
    exact mode.
    """

    mode: str
    shots: int | None = None
    precision: float | None = None
    bias: float = 0.0

    def __post_init__(self) -> None:
        if self.mode == "exact":
            if self.shots is not None or self.precision is not None:
                raise ValueError("exact mode takes no shots or precision")
        elif self.mode == "shots":
            if self.shots is None or not 1 <= self.shots <= MAX_TERM_SHOTS:
                raise ValueError(f"fixed-shot mode requires 1 <= shots <= 2**63 - 1, got {self.shots!r}")
        elif self.mode == "precision":
            if self.precision is None or not 0.0 < self.precision <= 1.0:
                raise ValueError("precision mode requires 0 < precision <= 1")
        else:
            raise ValueError(f"unknown shot policy mode {self.mode!r}")
        if not math.isfinite(self.bias):
            raise ValueError("bias must be finite")

    @classmethod
    def exact(cls) -> "ShotPolicy":
        return cls("exact")

    @classmethod
    def fixed(cls, shots: int, bias: float = 0.0) -> "ShotPolicy":
        return cls("shots", shots=int(shots), bias=bias)

    @classmethod
    def target_precision(cls, precision: float, bias: float = 0.0) -> "ShotPolicy":
        return cls("precision", precision=float(precision), bias=bias)

    @classmethod
    def parse(cls, text: str, bias: float = 0.0) -> "ShotPolicy":
        """Parse the run-config form: 'exact' | 'shots:<S>' | 'precision:<p>'."""
        text = text.strip()
        if text == "exact":
            return cls.exact()
        if text.startswith("shots:"):
            return cls.fixed(int(text.split(":", 1)[1]), bias=bias)
        if text.startswith("precision:"):
            return cls.target_precision(float(text.split(":", 1)[1]), bias=bias)
        raise ValueError(f"unrecognized shot policy {text!r}")

    def describe(self) -> str:
        if self.mode == "exact":
            return "exact"
        if self.mode == "shots":
            return f"shots:{self.shots}"
        return f"precision:{self.precision!r}"

    def term_shots(self, coefficient: float) -> int:
        """Shots allocated to one term under this policy's cost rule."""
        if self.mode == "exact":
            return 0
        if self.mode == "shots":
            return int(self.shots)
        try:
            shots = max(1, math.ceil(coefficient * coefficient / (self.precision * self.precision)))
        except (ZeroDivisionError, OverflowError):  # 1/p^2 is not finite
            shots = MAX_TERM_SHOTS + 1
        if shots > MAX_TERM_SHOTS:
            raise ValueError(
                f"precision {self.precision!r} needs more than 2**63 - 1 shots for coefficient {coefficient!r}"
            )
        return shots


@dataclass(frozen=True)
class EnergyEstimate:
    """One estimated <H>: value, combined standard error, shot bookkeeping."""

    value: float
    std_error: float
    term_shots: tuple[int, ...]
    total_shots: int


def sample_pauli(
    state: StateVector, p: PauliString, shots: int, rng: RngStream
) -> tuple[float, float]:
    """Shot-sampled estimate of <psi|P|psi> from one binomial count.

    The count of +1 outcomes is drawn as k ~ Binomial(shots, (1 + <P>)/2)
    on the stream's generator. Returns (mean, std_error): the mean
    (2k - shots)/shots of the +-1 outcomes, and their sample standard
    deviation (ddof=1) divided by sqrt(shots), which for +-1 outcomes is
    sqrt((1 - mean^2)/(shots - 1)) (0.0 for a single shot). Identity
    strings return (1.0, 0.0) without sampling.
    """
    if p.n_qubits != state.n_qubits:
        raise ValueError(
            f"operator acts on {p.n_qubits} qubits, state has {state.n_qubits}"
        )
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if p.is_identity:
        return 1.0, 0.0
    # Clipped: rounding can push <P> a hair outside [-1, 1].
    p_plus = min(max((1.0 + exact_expectation(state, p)) / 2.0, 0.0), 1.0)
    plus_count = int(rng.generator().binomial(shots, p_plus))
    mean = (2 * plus_count - shots) / shots
    if shots == 1:
        return mean, 0.0
    return mean, math.sqrt((1.0 - mean * mean) / (shots - 1))


def estimate_energy(
    state: StateVector,
    hamiltonian: PauliHamiltonian,
    policy: ShotPolicy,
    rng: RngStream,
    iteration: int = 0,
) -> EnergyEstimate:
    """Estimate <H> for a prepared state under a shot policy.

    The one state is measured per Hamiltonian term, each term on its own
    (term index, iteration) RNG stream. On a noiseless statevector that
    is statistically the same as re-preparing the state for every term,
    so the term estimates are independent and their errors combine in
    quadrature. Exact mode delegates to the noiseless expectation.
    """
    if state.n_qubits != hamiltonian.n_qubits:
        raise ValueError(
            f"prepared state has {state.n_qubits} qubits, Hamiltonian {hamiltonian.n_qubits}"
        )
    if policy.mode == "exact":
        value = exact_energy(state, hamiltonian)
        return EnergyEstimate(value, 0.0, (0,) * hamiltonian.term_count, 0)

    value = 0.0
    variance = 0.0
    shots_used: list[int] = []
    for index, (coeff, string) in enumerate(hamiltonian.terms):
        if string.is_identity:
            value += coeff
            shots_used.append(0)
            continue
        shots = policy.term_shots(coeff)
        mean, err = sample_pauli(state, string, shots, rng.labeled(index, iteration))
        value += coeff * mean
        variance += (coeff * err) ** 2
        shots_used.append(shots)
    value += policy.bias
    return EnergyEstimate(value, math.sqrt(variance), tuple(shots_used), sum(shots_used))


def shot_budget(hamiltonian: PauliHamiltonian, policy: ShotPolicy) -> tuple[tuple[int, ...], int]:
    """Per-term and total shots one energy evaluation would allocate.

    Applies the cost rule literally to every term (identity terms are
    skipped at runtime but still counted here, matching the worst-case
    budget formula).
    """
    per_term = tuple(policy.term_shots(c) for c, _ in hamiltonian.terms)
    return per_term, sum(per_term)
