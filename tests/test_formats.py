import json

import numpy as np
import pytest

from reference import coefficient
from vqesim import exact_spectrum
from vqesim.formats import (
    FormatError,
    load_hamiltonian,
    load_integrals,
    load_scan,
    parse_hamiltonian_text,
    parse_integrals,
    parse_scan,
)
from vqesim.synthetic import ground_curve_value, parabola_scan


class TestHamiltonianText:
    def test_comments_and_blanks(self):
        text = "# molecular terms\n\n0.5 ZI\n-0.25 IZ\n  # trailing comment\n1.0 XX\n"
        h = parse_hamiltonian_text(text)
        assert h.n_qubits == 2 and h.term_count == 3
        assert coefficient(h, "ZI") == 0.5

    def test_duplicates_merged(self):
        h = parse_hamiltonian_text("0.5 Z\n0.25 Z\n")
        assert h.term_count == 1 and coefficient(h, "Z") == 0.75

    def test_bad_coefficient_names_line(self):
        with pytest.raises(FormatError, match=":2:"):
            parse_hamiltonian_text("0.5 Z\nabc X\n")

    def test_bad_label_names_line(self):
        with pytest.raises(FormatError, match=":1:"):
            parse_hamiltonian_text("0.5 ZQ\n")

    def test_inconsistent_length_names_line(self):
        with pytest.raises(FormatError, match=":3:"):
            parse_hamiltonian_text("0.5 ZI\n0.5 XX\n0.5 Z\n")

    def test_wrong_field_count_names_line(self):
        with pytest.raises(FormatError, match=":1:"):
            parse_hamiltonian_text("0.5 Z extra\n")

    def test_empty_file_rejected(self):
        with pytest.raises(FormatError, match="no Hamiltonian terms"):
            parse_hamiltonian_text("# nothing here\n")

    def test_roundtrip_through_formatter(self, tmp_path):
        h = parse_hamiltonian_text("0.5 ZI\n-0.3333333333333333 XX\n")
        path = tmp_path / "h.txt"
        path.write_text("# roundtrip\n" + "".join(f"{c!r} {p.label}\n" for c, p in h.terms))
        h = load_hamiltonian(path)
        assert coefficient(h, "XX") == -0.3333333333333333


class TestScan:
    def test_parse_valid(self):
        data = [
            {"R": 1.0, "terms": [[0.5, "ZI"]]},
            {"R": 2.0, "terms": [[0.25, "XX"]]},
        ]
        points = parse_scan(data)
        assert [p.label for p in points] == [1.0, 2.0]

    def test_labels_must_increase(self):
        data = [{"R": 2.0, "terms": [[1.0, "Z"]]}, {"R": 2.0, "terms": [[1.0, "Z"]]}]
        with pytest.raises(FormatError, match="strictly increasing"):
            parse_scan(data)

    def test_qubit_counts_must_match(self):
        data = [{"R": 1.0, "terms": [[1.0, "Z"]]}, {"R": 2.0, "terms": [[1.0, "ZZ"]]}]
        with pytest.raises(FormatError, match="qubit count"):
            parse_scan(data)

    def test_empty_rejected(self):
        with pytest.raises(FormatError, match="nonempty"):
            parse_scan([])

    def test_point_without_terms_rejected(self):
        data = [{"R": 1.0, "terms": [[1.0, "Z"]]}, {"R": 2.0, "terms": []}]
        with pytest.raises(FormatError, match=r"^<scan>\[1\]: no Hamiltonian terms found$"):
            parse_scan(data)

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "scan.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="invalid JSON"):
            load_scan(path)


class TestIntegrals:
    def test_load(self, tmp_path):
        path = tmp_path / "integrals.json"
        path.write_text(
            json.dumps(
                {
                    "n_modes": 2,
                    "one_body": [[1, 1, -1.0], [2, 2, -0.5]],
                    "two_body": [[1, 2, 2, 1, 0.3]],
                }
            )
        )
        operator = load_integrals(path)
        assert operator.n_modes == 2
        assert operator.terms == (
            (-1.0 + 0j, ((1, True), (1, False))),
            (-0.5 + 0j, ((2, True), (2, False))),
            (0.3 + 0j, ((1, True), (2, True), (2, False), (1, False))),
        )

    def test_missing_n_modes(self, tmp_path):
        path = tmp_path / "integrals.json"
        path.write_text(json.dumps({"one_body": []}))
        with pytest.raises(FormatError, match="n_modes"):
            load_integrals(path)

    def test_bad_index(self, tmp_path):
        path = tmp_path / "integrals.json"
        path.write_text(json.dumps({"n_modes": 2, "one_body": [[1, 5, 0.1]]}))
        with pytest.raises(FormatError, match=r"integrals.json: mode index 5 out of range \[1, 2\]"):
            load_integrals(path)

    @pytest.mark.parametrize(
        "n_modes,one_body",
        [
            (2.9, [[1.7, True, "0.5"]]),
            (2.0, []),
            (True, []),
            (2, [[1.7, 1, 0.5]]),
            (2, [[True, 1, 0.5]]),
            (2, [[1, 1, "0.5"]]),
            (2, [[1, 1, False]]),
            (2, [[1, 1, 1j]]),
        ],
    )
    def test_non_integer_index_or_non_real_value_rejected(self, n_modes, one_body):
        with pytest.raises(FormatError, match="expected (an integer|2 integer indices and a finite value)"):
            parse_integrals({"n_modes": n_modes, "one_body": one_body})

    def test_two_body_entries_checked_alike(self):
        with pytest.raises(FormatError, match=r"two_body\[0\] is \[2, 1, 1, 2.9, 0.5\]; expected 4 integer"):
            parse_integrals({"n_modes": 2, "two_body": [[2, 1, 1, 2.9, 0.5]]})
        with pytest.raises(FormatError, match=r"two_body\[0\] is \[2, 1, 1, 2, False\]; expected 4 integer"):
            parse_integrals({"n_modes": 2, "two_body": [[2, 1, 1, 2, False]]})


class TestSyntheticScan:
    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_ground_curve_matches_spectrum(self, n_qubits):
        r_values = np.linspace(80.0, 100.0, 5)
        points = parabola_scan(r_values, 90.0, 0.01, -2.5, cubic=1e-4, n_qubits=n_qubits)
        for point in points:
            truth = exact_spectrum(point.hamiltonian).ground_energy()
            expected = ground_curve_value(point.label, 90.0, 0.01, -2.5, 1e-4)
            assert truth == pytest.approx(expected, abs=1e-12)

    def test_minimum_is_at_r_star(self):
        r = np.linspace(-5, 5, 2001) + 90.0
        curve = [ground_curve_value(x, 90.0, 0.01, -2.5, 1e-4) for x in r]
        assert r[int(np.argmin(curve))] == pytest.approx(90.0, abs=0.01)

    def test_curvature_guard(self):
        with pytest.raises(ValueError):
            parabola_scan([1.0], 0.0, -0.1, 0.0)
