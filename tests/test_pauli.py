import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_labels, random_hermitian
from reference import coefficient, decompose, pauli_matrix
from vqesim import (
    PauliHamiltonian,
    PauliString,
    reconstruct,
    shift_and_square,
)
from vqesim.pauli import _is_int, _label, _product

labels_st = st.text(alphabet="IXYZ", min_size=1, max_size=4)


@pytest.mark.parametrize(
    "value, expected",
    [(3, True), (np.int64(3), True), (2**70, True), (True, False), (np.bool_(True), False), (3.0, False)],
    ids=["int", "np.int64", "2**70", "bool", "np.bool_", "float"],
)
def test_is_int_takes_integers_and_refuses_bools(value, expected):
    assert _is_int(value) is expected


class TestParse:
    def test_identity(self):
        assert PauliString("II").label == "II"
        assert PauliString("II").is_identity
        # is_identity reads the masks: any X, Y or Z sets a bit.
        assert (PauliString("II").x, PauliString("II").z) == (0, 0)
        assert not any(PauliString(label).is_identity for label in ("XI", "IY", "ZI"))

    def test_direct_mapping(self):
        p = PauliString("XZ")
        assert p.label == "XZ"
        assert p.n_qubits == 2
        # Qubit q is bit n-1-q of each mask, as in amplitude indices.
        q = PauliString("XYZI")
        assert q.x == 0b1100 and q.z == 0b0110

    def test_error_names_position(self):
        with pytest.raises(ValueError, match="position 0"):
            PauliString("AB")
        with pytest.raises(ValueError, match="position 2"):
            PauliString("XZq")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PauliString("")

    @given(labels_st)
    def test_roundtrip(self, label):
        assert PauliString(label).label == label


class TestMatrix:
    def test_z(self):
        assert np.array_equal(pauli_matrix(PauliString("Z")), np.diag([1.0, -1.0]).astype(complex))

    def test_y(self):
        assert np.array_equal(
            pauli_matrix(PauliString("Y")), np.array([[0, -1j], [1j, 0]])
        )

    def test_xx_antidiagonal(self):
        assert np.array_equal(pauli_matrix(PauliString("XX")), np.fliplr(np.eye(4)).astype(complex))

    @given(labels_st)
    @settings(max_examples=60)
    def test_matches_basis_action(self, label):
        # kron chain vs permutation-and-phase route: the one row of the term's action table
        m = pauli_matrix(PauliString(label))
        (targets,), (phases,) = PauliHamiltonian(len(label), [(1.0, label)]).action_table
        dense = np.zeros_like(m)
        dense[targets, np.arange(len(targets))] = phases
        assert np.array_equal(m, dense)

    def test_hermitian_and_involutive(self):
        for label in all_labels(2):
            m = pauli_matrix(PauliString(label))
            assert np.allclose(m, m.conj().T)
            assert np.allclose(m @ m, np.eye(4))


def product(p: PauliString, q: PauliString) -> tuple[complex, PauliString]:
    """P Q as (phase, R), from the masks that `pauli._product` multiplies."""
    phase, x, z = _product(p.x, p.z, q.x, q.z)
    return phase, PauliString(_label(p.n_qubits, x, z))


class TestMultiply:
    def test_xy_is_iz(self):
        phase, out = product(PauliString("X"), PauliString("Y"))
        assert phase == 1j and out.label == "Z"

    def test_involution(self):
        phase, out = product(PauliString("Z"), PauliString("Z"))
        assert phase == 1 and out.label == "I"

    def test_disjoint_supports(self):
        phase, out = product(PauliString("XI"), PauliString("IZ"))
        assert phase == 1 and out.label == "XZ"

    def test_all_pairs_up_to_two_qubits(self):
        for n in (1, 2):
            for a, b in itertools.product(all_labels(n), repeat=2):
                phase, out = product(PauliString(a), PauliString(b))
                assert np.allclose(
                    pauli_matrix(PauliString(a)) @ pauli_matrix(PauliString(b)),
                    phase * pauli_matrix(out),
                )

    def test_all_three_qubit_pairs_match_dense(self):
        labels = all_labels(3)
        dense = {l: pauli_matrix(PauliString(l)) for l in labels}
        for a, b in itertools.product(labels, repeat=2):
            phase, out = product(PauliString(a), PauliString(b))
            assert np.array_equal(dense[a] @ dense[b], phase * dense[out.label])


class TestHamiltonianContainer:
    def test_duplicates_merged(self):
        h = PauliHamiltonian(1, [(0.5, "Z"), (0.25, "Z"), (1.0, "X")])
        assert h.term_count == 2
        assert coefficient(h, "Z") == 0.75

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PauliHamiltonian(2, [(1.0, "Z")])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PauliHamiltonian(1, [(float("nan"), "Z")])

    @pytest.mark.parametrize("coeff", [True, "2.5", None, 1j])
    def test_coefficient_must_be_a_real_number(self, coeff):
        with pytest.raises(ValueError, match="must be a real number"):
            PauliHamiltonian(1, [(coeff, "Z")])

    @pytest.mark.parametrize("n_qubits", [True, 1.0, 2.0, 0])
    def test_qubit_count_must_be_an_integer(self, n_qubits):
        with pytest.raises(ValueError, match=f"^n_qubits must be an integer >= 1, got {n_qubits!r}$"):
            PauliHamiltonian(n_qubits, [(1.0, "Z")])

    def test_numpy_scalars_accepted(self):
        h = PauliHamiltonian(np.int64(1), [(np.float32(0.5), "Z"), (np.int64(2), "X")])
        assert type(h.n_qubits) is int and h.terms == ((0.5, PauliString("Z")), (2.0, PauliString("X")))

    def test_empty_allowed(self):
        h = PauliHamiltonian(1, [])
        assert h.term_count == 0
        assert np.array_equal(reconstruct(h), np.zeros((2, 2)))


class TestDecompose:
    def test_z(self):
        h = decompose(np.diag([1.0, -1.0]))
        assert h.term_count == 1 and coefficient(h, "Z") == 1.0

    def test_identity_4(self):
        h = decompose(np.eye(4))
        assert h.term_count == 1 and coefficient(h, "II") == 1.0

    def test_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            decompose(np.eye(3))

    def test_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            decompose(np.eye(512))

    def test_prune_threshold(self):
        m = np.diag([1.0, -1.0]) + 1e-13 * np.eye(2)
        assert coefficient(decompose(m), "I") == 0.0
        assert coefficient(decompose(m, prune=1e-14), "I") != 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_roundtrip_random_hermitian(self, n):
        rng = np.random.default_rng(100 + n)
        m = random_hermitian(rng, 1 << n)
        assert np.max(np.abs(reconstruct(decompose(m)) - m)) < 1e-12

    @given(st.integers(0, 10_000), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        m1, m2 = random_hermitian(rng, 4), random_hermitian(rng, 4)
        combined = decompose(a * m1 + b * m2)
        h1, h2 = decompose(m1, prune=0.0), decompose(m2, prune=0.0)
        for label in all_labels(2):
            expected = a * coefficient(h1, label) + b * coefficient(h2, label)
            assert coefficient(combined, label) == pytest.approx(expected, abs=1e-10)


class TestReconstruct:
    def test_single_z(self):
        h = PauliHamiltonian(1, [(1.0, "Z")])
        assert np.allclose(reconstruct(h), np.diag([1.0, -1.0]))

    def test_matches_kron_sum(self):
        rng = np.random.default_rng(7)
        h = PauliHamiltonian(2, [(rng.uniform(-1, 1), l) for l in all_labels(2)])
        direct = sum(c * pauli_matrix(p) for c, p in h.terms)
        assert np.allclose(reconstruct(h), direct)


class TestShiftAndSquare:
    def test_z_squared(self):
        h = shift_and_square(PauliHamiltonian(1, [(1.0, "Z")]), 0.0)
        assert h.term_count == 1 and coefficient(h, "I") == 1.0

    def test_z_minus_one_squared(self):
        h = shift_and_square(PauliHamiltonian(1, [(1.0, "Z")]), 1.0)
        assert coefficient(h, "I") == pytest.approx(2.0)
        assert coefficient(h, "Z") == pytest.approx(-2.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, 4)
        h = decompose(m)
        folded = shift_and_square(h, 0.3)
        target = (m - 0.3 * np.eye(4)) @ (m - 0.3 * np.eye(4))
        assert np.max(np.abs(reconstruct(folded) - target)) < 1e-10

    def test_real_coefficients_and_quadratic_term_count(self):
        rng = np.random.default_rng(11)
        h = PauliHamiltonian(2, [(rng.uniform(-1, 1), l) for l in all_labels(2)[:5]])
        folded = shift_and_square(h, 0.7)
        assert all(isinstance(c, float) for c, _ in folded.terms)
        assert folded.term_count <= h.term_count * h.term_count + h.term_count + 1


def test_reference_oracles_are_built_apart_from_the_library():
    """reference.py takes only the two containers from vqesim, never an action table or reconstruct.

    TestMatrix.test_matches_basis_action and TestReconstruct.test_matches_kron_sum
    then compare two independent constructions.
    """
    imported = set()
    for node in ast.walk(ast.parse(Path(__file__).with_name("reference.py").read_text())):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "vqesim" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vqesim":
            imported |= {alias.name for alias in node.names}
    assert imported == {"PauliHamiltonian", "PauliString"}
