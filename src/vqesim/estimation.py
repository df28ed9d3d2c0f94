"""Shot-based estimation of Pauli expectations and Hamiltonian energies.

Each Pauli term is measured in its own short experiment: the prepared
state is rotated into the term's joint eigenbasis (Hadamard for X
factors, Rz(-pi/2) then Hadamard for Y) and every shot scores +1 or -1,
the product of the eigenvalues at the non-identity positions. Only the
number k of +1 outcomes among s shots carries information, and it is
Binomial(s, (1 + <P>)/2), so each term is one binomial count: mean
(2k - s)/s, per-shot variance 1 - <P>^2. Estimating one term with
coefficient h to precision p therefore costs ceil(h^2/p^2) shots. An
identity term is a constant and is never measured, so the per-evaluation
budget is the sum of that rule over the measured terms. `shot_budget` is
the rule's only home: a run prices its terms once with it, and the
estimator draws exactly the per-term shots it is handed. An estimate in
which no term takes a shot is exact (the exact policy prices every term
at 0).

On hardware every term needs a fresh preparation. On a noiseless
statevector a re-preparation returns the same amplitudes, so the state
is prepared once per evaluation and every term's count is drawn from
it; that is statistically the same as re-preparing, and the term
estimates stay independent.

Every term's noiseless expectation comes from one numpy reduction over
the Hamiltonian's action table (`statevector.batch_term_expectations`),
not one call per term; a run reduces a whole batch of states at once.
What a run fixes (the Hamiltonian, its per-term shots and the seed) is
checked once, in a `Measurement`, and `estimate_energy` takes one row of
expectations with that `Measurement`.
Randomness is fully deterministic: a run keys one counter-based Philox
stream from its 64-bit seed, the evaluation's iteration index labels
the stream's counter, and the binomial draws at that label give every
term's count, one scalar draw per term in term order: the same counts
as one array draw over the measured terms, without the argument checks
numpy's array form pays on every call. Every generator and child seed
derives from one `SeedSequence` helper, which holds the one seed range
check.
The noiseless <H> of the same pass comes with the estimate, so the
trace's diagnostics need not compute it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliHamiltonian, _is_int, _is_real
from .statevector import _weighted_sum

# SeedSequence spawn-key namespaces; keeps sampling streams disjoint
# from parameter-init, scan-point and Monte-Carlo streams.
STREAM_SAMPLING = 0
STREAM_INIT = 1
STREAM_SCAN = 2
STREAM_MC = 3

MAX_SEED = 2**64 - 1
# The most shots one term may take: numpy draws them as a 64-bit integer.
MAX_TERM_SHOTS = 2**63 - 1


def _seed_sequence(seed: int, namespace: int, *key: int) -> np.random.SeedSequence:
    """The SeedSequence of (seed, namespace, key...); a seed that is no integer in [0, MAX_SEED] raises ValueError."""
    if not _is_int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError("seed must fit in 64 unsigned bits")
    return np.random.SeedSequence(entropy=seed, spawn_key=(namespace, *key))


def derived_generator(seed: int, namespace: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, namespace, key...)."""
    return np.random.default_rng(_seed_sequence(seed, namespace, *key))


def derive_seed(seed: int, namespace: int, *key: int) -> int:
    """Deterministic 64-bit child seed, e.g. one per scan point."""
    return int(_seed_sequence(seed, namespace, *key).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class ShotPolicy:
    """How a run prices its shots (see `shot_budget`): none, a fixed count, or a target precision."""

    mode: str
    shots: int | None = None
    precision: float | None = None

    def __post_init__(self) -> None:
        if self.mode == "exact":
            if self.shots is not None or self.precision is not None:
                raise ValueError("exact mode takes no shots or precision")
        elif self.mode == "shots":
            # One shot has no spread, so it could report no standard error.
            if not _is_int(self.shots) or not 2 <= self.shots <= MAX_TERM_SHOTS:
                raise ValueError(f"fixed-shot mode requires an integer 2 <= shots <= 2**63 - 1, got {self.shots!r}")
        elif self.mode == "precision":
            if not _is_real(self.precision) or not 0.0 < self.precision <= 1.0:
                raise ValueError(f"precision mode requires a number 0 < precision <= 1, got {self.precision!r}")
        else:
            raise ValueError(f"unknown shot policy mode {self.mode!r}")

    @classmethod
    def exact(cls) -> "ShotPolicy":
        return cls("exact")

    @classmethod
    def fixed(cls, shots: int) -> "ShotPolicy":
        return cls("shots", shots=shots)

    @classmethod
    def parse(cls, text: str) -> "ShotPolicy":
        """Parse the run-config form: 'exact' | 'shots:<integer>' | 'precision:<number>'."""
        text = text.strip()
        if text == "exact":
            return cls.exact()
        kind, _, number = text.partition(":")
        try:
            value = {"shots": int, "precision": float}[kind](number)
        except (KeyError, ValueError):  # an unknown form, or a number that does not read
            raise ValueError(
                f"unrecognized shot policy {text!r}; expected exact, shots:<integer> or precision:<number>"
            ) from None
        return cls(kind, **{kind: value})

    def describe(self) -> str:
        if self.mode == "exact":
            return "exact"
        if self.mode == "shots":
            return f"shots:{self.shots}"
        return f"precision:{float(self.precision)!r}"


@dataclass(frozen=True)
class EnergyEstimate:
    """One estimated <H>: value, combined standard error, shot bookkeeping.

    `term_shots` are the shots drawn per term, in term order, as the
    caller priced them with `shot_budget`. `exact_value` is the noiseless
    <H> of the same state, computed from the same term expectations the
    counts were drawn with.
    """

    value: float
    std_error: float
    term_shots: tuple[int, ...]
    exact_value: float

    @property
    def total_shots(self) -> int:
        return sum(self.term_shots)


def shot_budget(hamiltonian: PauliHamiltonian, policy: ShotPolicy) -> tuple[int, ...]:
    """Shots per term of one evaluation, in term order: the cost rule's only home.

    Exact mode and identity terms (constants, never measured) take 0; a
    measured term takes the fixed count, or max(2, ceil(h^2/p^2)) for
    coefficient h at precision p: two shots are the fewest whose spread
    gives a standard error. A count past MAX_TERM_SHOTS raises
    ValueError.
    """
    if policy.mode == "exact":
        return (0,) * hamiltonian.term_count
    if policy.mode == "shots":
        # A Python int: with a numpy count the estimator's 2k - s overflows near MAX_TERM_SHOTS.
        return tuple(0 if p.is_identity else int(policy.shots) for _, p in hamiltonian.terms)
    p2 = policy.precision * policy.precision
    per_term = []
    for coefficient, p in hamiltonian.terms:
        try:
            shots = 0 if p.is_identity else max(2, math.ceil(coefficient * coefficient / p2))
        except (ZeroDivisionError, OverflowError):  # 1/p^2 is not finite
            shots = MAX_TERM_SHOTS + 1
        if shots > MAX_TERM_SHOTS:
            raise ValueError(
                f"precision {policy.precision!r} needs more than 2**63 - 1 shots for coefficient {coefficient!r}"
            )
        per_term.append(shots)
    return tuple(per_term)


class Measurement:
    """What every estimate of one run shares, checked once when the run starts.

    It holds the Hamiltonian, the per-term shots `shot_budget` priced for
    it, and the run's sampling stream: one counter-based Philox generator
    (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as easy as
    1, 2, 3", SC'11), keyed once from
    `_seed_sequence(seed, STREAM_SAMPLING)`. Each estimate relabels it:
    the counter is set to (0, 0, iteration, 0) with an empty buffer, which
    gives exactly the draws of a fresh `Philox(key=key, counter=(0, 0,
    iteration, 0))`, whatever was drawn before. Philox increments word 0
    and carries upward, so each label has 2^128 blocks before it could
    meet the next. A `term_shots` of the wrong length, a seed outside
    [0, MAX_SEED], or, when any term takes shots, a measured term with
    fewer than 2 raises ValueError.
    """

    def __init__(self, hamiltonian: PauliHamiltonian, term_shots: tuple[int, ...], seed: int):
        if len(term_shots) != hamiltonian.term_count:
            raise ValueError(
                f"term_shots has {len(term_shots)} entries, the Hamiltonian {hamiltonian.term_count} terms"
            )
        self._bit_generator = np.random.Philox(_seed_sequence(seed, STREAM_SAMPLING))
        self._generator = np.random.Generator(self._bit_generator)
        self._label = self._bit_generator.state
        self._label.update(buffer_pos=4, has_uint32=0)
        self.hamiltonian, self.term_shots = hamiltonian, term_shots
        # Identity terms alone are a constant, which `estimate_energy` adds exactly.
        self._exact = not any(term_shots) and not all(p.is_identity for _, p in hamiltonian.terms)
        if not self._exact:
            for (_, pauli), shots in zip(hamiltonian.terms, term_shots):
                if not shots and not pauli.is_identity:
                    raise ValueError(f"term {pauli.label} is measured but takes 0 shots")
                if shots == 1:
                    raise ValueError(f"term {pauli.label} takes 1 shot; a standard error needs 2")
        self._terms = [(coeff, shots) for (coeff, _), shots in zip(hamiltonian.terms, term_shots)]

    def stream(self, iteration: int) -> np.random.Generator:
        """The run's generator, relabelled to `iteration`, an integer in [0, 2**64 - 1] (else ValueError)."""
        if not _is_int(iteration) or not 0 <= iteration <= MAX_SEED:
            raise ValueError(f"stream label must be an integer in [0, 2**64 - 1], got {iteration!r}")
        self._label["state"]["counter"][2] = iteration
        self._bit_generator.state = self._label
        return self._generator


def estimate_energy(expectations: np.ndarray, measurement: Measurement, iteration: int = 0) -> EnergyEstimate:
    """Estimate <H> for one prepared state from its term expectations, drawing exactly the run's shots.

    `expectations` is the state's row of `batch_term_expectations`, one
    entry per term of the `measurement`'s Hamiltonian (any other shape
    raises ValueError). Their weighted sum is `exact_value`, bit for bit
    what `exact_energy` returns, and when no term takes a shot it is also
    the estimate; only a Hamiltonian of identity terms alone, a constant,
    estimates as the exact sum of its coefficients. Otherwise a term with
    s shots has the +1 count k ~ Binomial(s, clip((1 + <P>)/2, 0, 1)),
    drawn in term order on the run's stream labelled `iteration` (see
    `Measurement`), one scalar draw per term. A term's mean is (2k - s)/s
    and its standard error the ddof=1 figure of its +-1 outcomes,
    sqrt((1 - mean^2)/(s - 1)); the errors combine in quadrature. An
    identity term without shots adds its coefficient.
    """
    hamiltonian, term_shots = measurement.hamiltonian, measurement.term_shots
    if expectations.shape != (len(term_shots),):
        raise ValueError(f"expectations have shape {expectations.shape}, the Hamiltonian {len(term_shots)} terms")
    exact_value = _weighted_sum(hamiltonian, expectations)
    if measurement._exact:
        return EnergyEstimate(exact_value, 0.0, term_shots, exact_value)
    generator = measurement.stream(iteration)
    value = variance = 0.0
    for (coeff, shots), e in zip(measurement._terms, expectations.tolist()):
        if not shots:
            value += coeff
            continue
        # Clipped: rounding can push <P> a hair outside [-1, 1]. Python floats round as numpy's would.
        plus = int(generator.binomial(shots, min(1.0, max(0.0, (1.0 + e) / 2.0))))
        # Python ints: 2k overflows int64 near MAX_TERM_SHOTS.
        mean = (2 * plus - shots) / shots
        value += coeff * mean
        variance += (coeff * math.sqrt((1.0 - mean * mean) / (shots - 1))) ** 2
    return EnergyEstimate(value, math.sqrt(variance), term_shots, exact_value)
