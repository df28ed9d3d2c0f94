"""On-disk formats: Hamiltonian text files, scan lists, integral tables.

Hamiltonian text: one `<finite coefficient> <pauli-label>` pair per line,
`#` comments and blank lines ignored; the label length of the first
term fixes the qubit count for the whole file.

Scan: a JSON list of {"R": <finite real>, "terms": [[coeff, label], ...]}
objects with strictly increasing R, a common qubit count and at least
one term per point.

Integrals: JSON {"n_modes": N, "one_body": [[p, q, value], ...],
"two_body": [[p, q, r, s, value], ...]} with 1-based indices, loaded as
the `FermionOperator` of h_pq a_p^dag a_q then h_pqrs a_p^dag a_q^dag
a_r a_s terms in file order; no chemists'/physicists' reordering.

JSON values are taken as they are typed: R, coefficients and integral
values must be finite JSON numbers, `n_modes` and indices JSON
integers. A boolean, a string or a fractional index is an error, never
read as the number it resembles. Those types are checked here; index
ranges are `FermionOperator`'s to check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .fermion import FermionOperator
from .pauli import PauliHamiltonian, PauliString, _is_int, _is_real


class FormatError(ValueError):
    """Malformed input file; the message names the file and location."""


def _read_text(path: Path) -> str:
    """A missing, unreadable or undecodable file is an input error too."""
    try:
        return path.read_text()
    except (OSError, ValueError) as exc:
        raise FormatError(f"{path}: cannot read ({exc})") from None


def _read_json(path: Path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None


def parse_hamiltonian_text(text: str, source: str = "<string>") -> PauliHamiltonian:
    terms: list[tuple[float, PauliString]] = []
    n_qubits: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(
                f"{source}:{lineno}: expected '<coefficient> <pauli-label>', got {line!r}"
            )
        coeff_text, label = fields
        try:
            coeff = float(coeff_text)
        except ValueError:
            coeff = math.nan
        if not math.isfinite(coeff):
            raise FormatError(f"{source}:{lineno}: bad coefficient {coeff_text!r}; expected a finite number")
        try:
            string = PauliString(label)
        except ValueError as exc:
            raise FormatError(f"{source}:{lineno}: {exc}") from None
        if n_qubits is None:
            n_qubits = string.n_qubits
        elif string.n_qubits != n_qubits:
            raise FormatError(
                f"{source}:{lineno}: label {label!r} has length {string.n_qubits}, "
                f"but the file fixed {n_qubits} qubits"
            )
        terms.append((coeff, string))
    if n_qubits is None:
        raise FormatError(f"{source}: no Hamiltonian terms found")
    return PauliHamiltonian(n_qubits, terms)


def load_hamiltonian(path: str | Path) -> PauliHamiltonian:
    path = Path(path)
    return parse_hamiltonian_text(_read_text(path), source=str(path))


@dataclass(frozen=True)
class ScanPoint:
    label: float
    hamiltonian: PauliHamiltonian


def parse_scan(data, source: str = "<scan>") -> list[ScanPoint]:
    if not isinstance(data, list) or not data:
        raise FormatError(f"{source}: expected a nonempty JSON list of scan points")
    points: list[ScanPoint] = []
    n_qubits: int | None = None
    for index, entry in enumerate(data):
        where = f"{source}[{index}]"
        if not isinstance(entry, dict) or "R" not in entry or "terms" not in entry:
            raise FormatError(f"{where}: each point needs 'R' and 'terms'")
        if not _is_real(entry["R"]):
            raise FormatError(f"{where}: bad R value {entry['R']!r}; expected a finite number")
        label = float(entry["R"])
        try:
            terms = []
            for coeff, text in entry["terms"]:
                if not _is_real(coeff):
                    raise ValueError(f"bad coefficient {coeff!r}; expected a finite number")
                terms.append((float(coeff), PauliString(str(text))))
            if not terms:
                raise ValueError("no Hamiltonian terms found")
            hamiltonian = PauliHamiltonian(terms[0][1].n_qubits, terms)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{where}: {exc}") from None
        if n_qubits is None:
            n_qubits = hamiltonian.n_qubits
        elif hamiltonian.n_qubits != n_qubits:
            raise FormatError(
                f"{where}: qubit count {hamiltonian.n_qubits} differs from {n_qubits}"
            )
        if points and label <= points[-1].label:
            raise FormatError(f"{where}: R values must be strictly increasing")
        points.append(ScanPoint(label, hamiltonian))
    return points


def load_scan(path: str | Path) -> list[ScanPoint]:
    path = Path(path)
    return parse_scan(_read_json(path), source=str(path))


def write_scan(path: str | Path, points: list[ScanPoint]) -> None:
    payload = [
        {"R": point.label, "terms": [[c, p.label] for c, p in point.hamiltonian.terms]}
        for point in points
    ]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _integral_entries(data: dict, key: str, n_indices: int, source: str) -> list[list]:
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise FormatError(f"{source}: {key} must be a JSON list")
    for index, entry in enumerate(entries):
        if not (
            isinstance(entry, list)
            and len(entry) == n_indices + 1
            and all(_is_int(i) for i in entry[:-1])
            and _is_real(entry[-1])
        ):
            raise FormatError(
                f"{source}: {key}[{index}] is {entry!r}; expected {n_indices} integer indices and a finite value"
            )
    return entries


def parse_integrals(data, source: str = "<integrals>") -> FermionOperator:
    if not isinstance(data, dict) or "n_modes" not in data:
        raise FormatError(f"{source}: expected a JSON object with 'n_modes'")
    if not _is_int(data["n_modes"]):
        raise FormatError(f"{source}: n_modes is {data['n_modes']!r}; expected an integer")
    one_body = _integral_entries(data, "one_body", 2, source)
    two_body = _integral_entries(data, "two_body", 4, source)
    terms = [(v, ((p, True), (q, False))) for p, q, v in one_body]
    terms += [(v, ((p, True), (q, True), (r, False), (s, False))) for p, q, r, s, v in two_body]
    try:
        return FermionOperator(data["n_modes"], terms)
    except ValueError as exc:
        raise FormatError(f"{source}: {exc}") from None


def load_integrals(path: str | Path) -> FermionOperator:
    path = Path(path)
    return parse_integrals(_read_json(path), source=str(path))
