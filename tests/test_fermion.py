import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fermion_matrix
from reference import coefficient, overlap
from vqesim import (
    AnsatzSpec,
    FermionOperator,
    NelderMeadConfig,
    PauliHamiltonian,
    ShotPolicy,
    UccAnsatz,
    exact_energy,
    exact_spectrum,
    jordan_wigner,
    reconstruct,
    run_vqe,
    ucc_prepare,
)
from vqesim.fermion import reference_index
from vqesim.formats import parse_integrals


def ladder_matrix(mode: int, creation: bool, n_modes: int) -> np.ndarray:
    return fermion_matrix(FermionOperator(n_modes, [(1.0, ((mode, creation),))]))


class TestJordanWigner:
    def test_annihilation_on_two_modes(self):
        # a_1 = (XZ + i YZ)/2, read through its two Hermitian parts.
        a, a_dag = ((1, False),), ((1, True),)
        assert jordan_wigner(FermionOperator(2, [(1.0, a), (1.0, a_dag)])) == PauliHamiltonian(2, [(1.0, "XZ")])
        assert jordan_wigner(FermionOperator(2, [(1j, a_dag), (-1j, a)])) == PauliHamiltonian(2, [(1.0, "YZ")])

    def test_non_hermitian_operator_refused(self):
        # A lone a_1 keeps the imaginary weight 0.5 on YZ.
        with pytest.raises(ValueError, match=r"^imaginary residue 5\.000e-01 exceeds 1\.0e-10; sum is not Hermitian$"):
            jordan_wigner(FermionOperator(2, [(1.0, ((1, False),))]))

    def test_number_operator(self):
        mapped = jordan_wigner(FermionOperator(1, [(1.0, ((1, True), (1, False)))]))
        assert isinstance(mapped, PauliHamiltonian)
        assert coefficient(mapped, "I") == pytest.approx(0.5)
        assert coefficient(mapped, "Z") == pytest.approx(-0.5)
        # fixes the sign convention: |1> is the occupied state
        dense = reconstruct(mapped)
        assert np.allclose(dense, np.diag([0.0, 1.0]))

    @pytest.mark.parametrize("n_modes", [True, 0, 2.0])
    def test_mode_count_must_be_an_integer(self, n_modes):
        # The mapping's qubit count is the operator's mode count, so it is checked there.
        with pytest.raises(ValueError, match=f"^n_modes must be an integer >= 1, got {n_modes!r}$"):
            FermionOperator(n_modes, [(1.0, ((1, True), (1, False)))])

    def test_mode_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            FermionOperator(2, [(1.0, ((3, False),))])

    @pytest.mark.parametrize(
        "n_modes,term,message",
        [
            (2, (1.0, [(1.7, "no")]), "integer mode and a bool creation flag"),
            (2, (1.0, [(True, False)]), "integer mode"),
            (2, (1.0, [(1, "no")]), "bool creation flag"),
            (2, (1.0, [(1, 1)]), "bool creation flag"),
            (2, (True, [(1, False)]), "coefficient must be a number"),
            (2, ("1.0", [(1, False)]), "coefficient must be a number"),
            (2.0, (1.0, [(1, False)]), "n_modes must be an integer"),
        ],
    )
    def test_values_taken_as_typed(self, n_modes, term, message):
        with pytest.raises(ValueError, match=message):
            FermionOperator(n_modes, [term])

    def test_numpy_scalars_and_complex_coefficients_accepted(self):
        op = FermionOperator(np.int64(2), [(np.float64(0.5), [(np.int32(2), np.True_)]), (0.5j, [(1, False)])])
        assert op.terms == ((0.5 + 0j, ((2, True),)), (0.5j, ((1, False),)))
        with pytest.raises(ValueError, match="non-finite coefficient"):
            FermionOperator(1, [(float("inf"), [(1, True)])])

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
    def test_canonical_anticommutation(self, n_modes):
        create = {j: ladder_matrix(j, True, n_modes) for j in range(1, n_modes + 1)}
        annihilate = {j: ladder_matrix(j, False, n_modes) for j in range(1, n_modes + 1)}
        eye = np.eye(1 << n_modes)
        for i, j in itertools.product(range(1, n_modes + 1), repeat=2):
            acomm = create[i] @ annihilate[j] + annihilate[j] @ create[i]
            assert np.max(np.abs(acomm - (eye if i == j else 0))) < 1e-10
            acomm = annihilate[i] @ annihilate[j] + annihilate[j] @ annihilate[i]
            assert np.max(np.abs(acomm)) < 1e-10
            acomm = create[i] @ create[j] + create[j] @ create[i]
            assert np.max(np.abs(acomm)) < 1e-10

    def test_term_count_bound(self):
        # A term and its adjoint expand over the same 2^k labels, one per X/Y choice at its k factors.
        op = FermionOperator(3, [
            (0.5, ((1, True), (2, False))), (0.5, ((2, True), (1, False))),
            (0.25, ((2, True), (3, True), (3, False), (1, False))), (0.25, ((1, True), (3, True), (3, False), (2, False))),
        ])
        mapped = jordan_wigner(op)
        assert len(mapped.terms) <= 2**2 + 2**4

    def test_hermitian_input_yields_hamiltonian(self):
        op = FermionOperator(
            2,
            [(0.7, ((1, True), (2, False))), (0.7, ((2, True), (1, False)))],
        )
        mapped = jordan_wigner(op)
        assert isinstance(mapped, PauliHamiltonian)
        dense = fermion_matrix(op)
        assert np.max(np.abs(dense - reconstruct(mapped))) < 1e-12
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-10


class TestMolecularHamiltonian:
    def test_single_one_body_term(self):
        op = parse_integrals({"n_modes": 1, "one_body": [[1, 1, -1.0]]})
        assert op.terms == ((complex(-1.0), ((1, True), (1, False))),)

    def test_empty(self):
        op = parse_integrals({"n_modes": 2})
        assert op.term_count == 0

    def test_index_bounds(self):
        with pytest.raises(ValueError, match=r"mode index 3 out of range \[1, 2\]"):
            parse_integrals({"n_modes": 2, "one_body": [[1, 3, 0.1]]})
        with pytest.raises(ValueError, match=r"mode index 0 out of range \[1, 2\]"):
            parse_integrals({"n_modes": 2, "two_body": [[2, 1, 0, 2, 0.5]]})

    def test_symmetric_integrals_give_hermitian_image(self):
        op = parse_integrals({
            "n_modes": 2,
            "one_body": [[1, 1, -1.2], [2, 2, -0.5], [1, 2, 0.3], [2, 1, 0.3]],
            "two_body": [[1, 2, 2, 1, 0.4]],
        })
        dense = fermion_matrix(op)
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-10

    def test_numpy_scalars_accepted(self):
        op = FermionOperator(np.int64(2), [(np.float32(0.5), ((np.int32(1), np.bool_(True)), (np.int64(2), False)))])
        assert op.n_modes == 2 and type(op.n_modes) is int
        assert op.terms == ((0.5 + 0j, ((1, True), (2, False))),)
        assert all(type(mode) is int and type(dag) is bool for mode, dag in op.terms[0][1])


def dense_generator(ansatz: UccAnsatz, parameters) -> np.ndarray:
    """sum_k theta_k G_k assembled from the ansatz's stored sparse generators."""
    dim = 1 << ansatz.n_modes
    total = np.zeros((dim, dim), dtype=complex)
    for theta, (rows, cols, values) in zip(parameters, ansatz.generators):
        total[rows, cols] += theta * values
    return total


def excitation_matrix(excitation: tuple, n_modes: int) -> np.ndarray:
    """E_k as a product of dense ladder matrices: creations, then annihilations."""
    modes = excitation[1:]
    product = np.eye(1 << n_modes, dtype=complex)
    for i, mode in enumerate(modes):
        product = product @ ladder_matrix(mode, i < len(modes) // 2, n_modes)
    return product


SINGLE = UccAnsatz(2, "10", (("s", 2, 1),))


class TestCluster:
    def test_single_amplitude(self):
        excitation = ladder_matrix(2, True, 2) @ ladder_matrix(1, False, 2)
        generator = dense_generator(SINGLE, [0.1])
        assert np.allclose(generator, 0.1 * (excitation - excitation.conj().T), atol=1e-15)

    @pytest.mark.parametrize("n_modes,reference", [(4, "1100"), (6, "111000"), (8, "11110000")])
    def test_generators_match_dense_excitations(self, n_modes, reference):
        # Each stored G_k, mapped as the Hermitian iG_k, is the dense E_k - E_k^dag entry for entry.
        ansatz = UccAnsatz.from_reference(n_modes, reference)
        for excitation, (rows, cols, values) in zip(ansatz.excitations, ansatz.generators):
            e = excitation_matrix(excitation, n_modes)
            dense = e - e.conj().T
            expected_rows, expected_cols = np.nonzero(dense)
            assert np.array_equal(rows, expected_rows) and np.array_equal(cols, expected_cols)
            assert np.array_equal(values, dense[expected_rows, expected_cols])

    def test_empty(self):
        # A full or empty reference has no excitation, so nothing to optimize.
        for reference in ("11", "00"):
            with pytest.raises(ValueError, match=f"^no excitation out of reference '{reference}'"):
                UccAnsatz.from_reference(2, reference)
        with pytest.raises(ValueError, match="^no excitation out of reference '10'"):
            UccAnsatz(2, "10", ())

    @pytest.mark.parametrize(
        "excitation",
        [("s", 1, 1), ("d", 3, 3, 1, 2), ("s", 1), ("s", 3, 1, 2), ("x", 3, 1)],
        ids=["repeated-single", "repeated-double", "short-single", "long-single", "unknown-kind"],
    )
    def test_malformed_excitation_refused(self, excitation):
        # A repeated mode gives a zero generator; a wrong length changes the particle number.
        with pytest.raises(ValueError, match=f"^excitation {re.escape(repr(excitation))} is not"):
            UccAnsatz(4, "1100", (("s", 3, 1), excitation))

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_generator_is_anti_hermitian(self, t1, t2):
        ansatz = UccAnsatz(3, "100", (("s", 3, 1), ("s", 2, 1)))
        for k in range(ansatz.parameter_count):
            unit = dense_generator(ansatz, np.eye(ansatz.parameter_count)[k])
            assert np.any(unit) and np.max(np.abs(unit + unit.conj().T)) < 1e-10
        dense = dense_generator(ansatz, [t1, t2])
        assert np.max(np.abs(dense + dense.conj().T)) < 1e-10


class TestUccPrepare:
    def test_zero_amplitudes_reproduce_reference(self):
        state = ucc_prepare(SINGLE, np.zeros(1))
        expected = np.zeros(4)
        expected[reference_index("10", 2)] = 1.0
        assert np.array_equal(state.amplitudes, expected.astype(complex))

    def test_norm_for_random_tables(self):
        ansatz = UccAnsatz(4, "1100", (("s", 3, 1), ("s", 4, 2), ("d", 3, 4, 1, 2)))
        rng = np.random.default_rng(31)
        for _ in range(100):
            state = ucc_prepare(ansatz, rng.normal(size=3))
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10

    @given(st.floats(-np.pi, np.pi))
    @settings(max_examples=40, deadline=None)
    def test_two_level_rotation_closed_form(self, t):
        state = ucc_prepare(SINGLE, np.array([t]))
        # generator t(|01><10| - |10><01|) rotates |10> toward |01>
        assert abs(state.amplitudes[0b10]) == pytest.approx(abs(np.cos(t)), abs=1e-9)
        assert abs(state.amplitudes[0b01]) == pytest.approx(abs(np.sin(t)), abs=1e-9)

    def test_quarter_turn_orthogonal_to_reference(self):
        state = ucc_prepare(SINGLE, np.array([np.pi / 2]))
        assert overlap(state, SINGLE.reference_state()) < 1e-9

    def test_mode_guard(self):
        with pytest.raises(ValueError, match="guard"):
            UccAnsatz(11, "1" + "0" * 10, (("s", 2, 1),))
        with pytest.raises(ValueError, match="guard"):
            UccAnsatz.from_reference(11, "1" + "0" * 10)

    def test_bad_reference(self):
        with pytest.raises(ValueError, match="bitstring"):
            UccAnsatz(2, "12", ())
        with pytest.raises(ValueError, match="bitstring"):
            UccAnsatz.from_reference(4, "110")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            ucc_prepare(SINGLE, np.array([bad]))

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(ValueError, match="expected 1 amplitudes"):
            ucc_prepare(SINGLE, np.zeros(2))

    def test_matches_dense_exponential_oracle(self):
        ansatz = UccAnsatz.from_reference(4, "1100")
        assert {exc[0] for exc in ansatz.excitations} == {"s", "d"}
        rng = np.random.default_rng(7)
        for _ in range(10):
            theta = rng.normal(size=ansatz.parameter_count)
            generator = sum(
                t * (e - e.conj().T)
                for t, e in zip(theta, (excitation_matrix(exc, 4) for exc in ansatz.excitations))
            )
            values, vectors = np.linalg.eigh(1j * generator)
            unitary = vectors @ np.diag(np.exp(-1j * values)) @ vectors.conj().T
            expected = unitary[:, reference_index("1100", 4)]
            state = ucc_prepare(ansatz, theta)
            assert np.max(np.abs(state.amplitudes - expected)) < 1e-12


def toy_integrals() -> FermionOperator:
    return parse_integrals({
        "n_modes": 4,
        "one_body": [
            [1, 1, -1.8], [2, 2, -1.3], [3, 3, -0.4], [4, 4, -0.2],
            [1, 3, 0.25], [3, 1, 0.25], [2, 4, 0.18], [4, 2, 0.18],
        ],
        "two_body": [
            [1, 2, 2, 1, 0.6], [2, 1, 1, 2, 0.6],
            [1, 4, 4, 1, 0.22], [4, 1, 1, 4, 0.22],
            [3, 4, 4, 3, 0.35], [4, 3, 3, 4, 0.35],
        ],
    })


class TestUccAnsatz:
    def test_excitation_enumeration(self):
        ansatz = UccAnsatz.from_reference(4, "1100")
        singles = [e for e in ansatz.excitations if e[0] == "s"]
        doubles = [e for e in ansatz.excitations if e[0] == "d"]
        assert len(singles) == 4 and len(doubles) == 1
        assert ansatz.parameter_count == 5

    def test_prepare_zero_is_reference(self):
        ansatz = UccAnsatz.from_reference(4, "1100")
        state = ansatz.prepare(np.zeros(ansatz.parameter_count))
        assert overlap(state, ansatz.reference_state()) == pytest.approx(1.0)


class TestUccVqe:
    def test_iteration_zero_is_reference_energy(self):
        mapped = jordan_wigner(toy_integrals())
        ansatz = UccAnsatz.from_reference(4, "1100")
        result = run_vqe(
            mapped,
            ansatz,
            ShotPolicy.exact(),
            NelderMeadConfig(max_evaluations=40),
            seed=0,
            x0=np.zeros(ansatz.parameter_count),
        )
        reference_energy = exact_energy(ansatz.reference_state(), mapped)
        assert result.trace.records[0].energy_estimate == pytest.approx(reference_energy)

    def test_exact_mode_variational_window(self):
        mapped = jordan_wigner(toy_integrals())
        ansatz = UccAnsatz.from_reference(4, "1100")
        result = run_vqe(
            mapped,
            ansatz,
            ShotPolicy.exact(),
            NelderMeadConfig(max_evaluations=1500),
            seed=1,
            x0=np.zeros(ansatz.parameter_count),
        )
        reference_energy = exact_energy(ansatz.reference_state(), mapped)
        ground = exact_spectrum(mapped).ground_energy()
        assert result.best_energy <= reference_energy + 1e-12
        assert result.best_energy >= ground - 1e-9

    def test_qubit_count_mismatch(self):
        ansatz = UccAnsatz.from_reference(4, "1100")
        with pytest.raises(ValueError, match="qubits"):
            run_vqe(
                PauliHamiltonian(2, [(1.0, "ZZ")]),
                ansatz,
                ShotPolicy.exact(),
                x0=np.zeros(ansatz.parameter_count),
            )
