import importlib.util
import itertools
from pathlib import Path

import numpy as np

from vqesim import (
    FermionOperator,
    Measurement,
    PauliHamiltonian,
    StateVector,
    estimate_energy,
    exact_energy,
    jordan_wigner,
    reconstruct,
)
from vqesim.statevector import batch_term_expectations


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def random_state(rng: np.random.Generator, n_qubits: int) -> StateVector:
    v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return StateVector(n_qubits, v / np.linalg.norm(v))


def expectation(state: StateVector, label: str) -> float:
    """<P> of one string through the library's one path: `exact_energy` of 1.0 * P, which is 0.0 + 1.0 * <P>."""
    return exact_energy(state, PauliHamiltonian(state.n_qubits, [(1.0, label)]))


def term_row(state: StateVector, h: PauliHamiltonian) -> np.ndarray:
    """The state's row of term expectations: `batch_term_expectations` of a batch of one."""
    return batch_term_expectations(state.amplitudes[None], h)[0]


def estimate_state(state: StateVector, h: PauliHamiltonian, term_shots, seed: int, iteration: int = 0):
    """One prepared state's estimate as a run makes it: its row of expectations through a `Measurement`."""
    return estimate_energy(term_row(state, h), Measurement(h, term_shots, seed), iteration)


def drive(search, objective):
    """Run an ask-and-tell search to its result, answering each batch it asks for with objective(batch)."""
    try:
        batch = next(search)
        while True:
            batch = search.send(objective(batch))
    except StopIteration as stop:
        return stop.value


def all_labels(n_qubits: int) -> list[str]:
    return ["".join(t) for t in itertools.product("IXYZ", repeat=n_qubits)]


def random_hamiltonian(rng: np.random.Generator, n_qubits: int, labels=None) -> PauliHamiltonian:
    labels = labels or all_labels(n_qubits)
    return PauliHamiltonian(n_qubits, [(rng.uniform(-1, 1), l) for l in labels])


def fermion_matrix(op: FermionOperator) -> np.ndarray:
    """Dense matrix of any fermionic operator O through vqesim's own mapping.

    `jordan_wigner` maps Hermitian operators only, so O is split into
    its Hermitian parts H1 = (O + O^dag)/2 and H2 = (O - O^dag)/(2i),
    and the result is M(H1) + i M(H2).
    """
    adjoint = [(c.conjugate(), [(mode, not dag) for mode, dag in reversed(ops)]) for c, ops in op.terms]
    h1 = FermionOperator(op.n_modes, [(c / 2, ops) for c, ops in op.terms] + [(c / 2, ops) for c, ops in adjoint])
    h2 = FermionOperator(op.n_modes, [(c / 2j, ops) for c, ops in op.terms] + [(-c / 2j, ops) for c, ops in adjoint])
    return reconstruct(jordan_wigner(h1)) + 1j * reconstruct(jordan_wigner(h2))


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    """Import scripts/<name>.py as a module, by path (scripts/ is not a package)."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
