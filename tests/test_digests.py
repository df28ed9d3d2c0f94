"""Golden digests: same inputs plus same seed give the same bytes.

Each pinned sha256 was recorded before the change it guards: the first
three before the estimator shared one prepared state across its terms,
the gradient-descent and per-mode CLI digests before the CLI loaded its
inputs once for both verbs. A speed-up or a refactor that keeps the
amplitudes and the RNG stream labels must leave them unchanged. A change
that moves them on purpose (different rounding, different sampling)
updates them here and says why.

The ucc digest was re-pinned when the UCC ansatz began summing
generators built once per ansatz instead of mapping a fresh cluster
operator per evaluation: the summation order changed, the `exact_energy`
column of 16 of the 40 trace rows moved by at most 1.3e-15, and every
other column, `summary.json` and `config.json` stayed byte-identical.
"""

import hashlib
import json

import numpy as np
import pytest

from vqesim import AnsatzSpec, GradientDescentConfig, NelderMeadConfig, ShotPolicy, run_vqe
from vqesim.formats import load_hamiltonian, write_scan
from vqesim.cli import main
from vqesim.synthetic import parabola_scan

TWO_QUBIT_FILE = "0.3 II\n-0.6 ZI\n0.4 IZ\n-0.2 ZZ\n0.5 XX\n"

TRACE_RECORDS_SHA256 = "91cf553a5fcc4f69bae8618c8d691d1b0983da72a4090d1cf63a76e6ada108a8"
CLI_TRACE_CSV_SHA256 = "6b1b2062ec199fb4771e94988bf07844843ff3e641d477cf88500ac57bcb2236"
CLI_SUMMARY_JSON_SHA256 = "b9b3c571dad7ce81e0d4b45cca591f9fb391e759e0ba4b49efc74049834e80e0"
GD_TRACE_RECORDS_SHA256 = "7a708e8cd6e3afce33292362d2411674f6f844cfa8d38e0399885fe8bd6fb7ba"
# sha256 over every artifact of one run, config.json included (see _tree_digest).
CLI_MODE_SHA256 = {
    "folded": "8d4a79be987f502823807826b6e4e4818865f31eb4e38a26f57cdc17261e5135",
    "scan": "44f6c303e07e85f295671cbec18084af69918f23431be1e4b0e8376d9b807736",
    "ucc": "62c12e439c8ca9a30b544dd9bffe4b13f153d33805446550e6cfe17ee87ca483",
}

INTEGRALS = {
    "n_modes": 4,
    "one_body": [[1, 1, -1.8], [2, 2, -1.3], [3, 3, -0.4], [4, 4, -0.2], [1, 3, 0.25], [3, 1, 0.25]],
    "two_body": [[1, 2, 2, 1, 0.6], [2, 1, 1, 2, 0.6]],
}


def _record_bytes(record) -> bytes:
    fields = [
        str(record.iteration),
        np.asarray(record.parameters, dtype=float).tobytes().hex(),
        repr(record.energy_estimate),
        repr(record.std_error),
        repr(record.exact_energy),
        repr(record.tangle),
        repr(record.overlap),
        str(int(record.restart)),
    ]
    return (",".join(fields) + "\n").encode()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_run_vqe_trace_records_digest(tmp_path):
    path = tmp_path / "hamiltonian.txt"
    path.write_text(TWO_QUBIT_FILE)
    result = run_vqe(
        load_hamiltonian(path),
        AnsatzSpec(2, 1),
        ShotPolicy.fixed(100),
        NelderMeadConfig(max_evaluations=150, stagnation_window=40),
        seed=17,
    )
    assert len(result.trace.records) == 150
    digest = _sha256(b"".join(_record_bytes(rec) for rec in result.trace.records))
    assert digest == TRACE_RECORDS_SHA256


def test_gradient_descent_trace_records_digest(tmp_path):
    path = tmp_path / "hamiltonian.txt"
    path.write_text(TWO_QUBIT_FILE)
    result = run_vqe(
        load_hamiltonian(path),
        AnsatzSpec(2, 1),
        ShotPolicy.fixed(100),
        GradientDescentConfig(step_size=0.2, max_evaluations=125),
        seed=29,
    )
    assert len(result.trace.records) == 125
    digest = _sha256(b"".join(_record_bytes(rec) for rec in result.trace.records))
    assert digest == GD_TRACE_RECORDS_SHA256


def _tree_digest(root) -> str:
    """sha256 over the relative path and the bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\n")
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "mode,flags",
    [
        ("folded", ["--hamiltonian", "h.txt", "--lambda=-0.5,0.7", "--shots", "100", "--nm-max-evaluations", "80"]),
        ("scan", ["--scan", "scan.json", "--shots", "100", "--nm-max-evaluations", "60", "--mc-samples", "2000"]),
        ("ucc", ["--integrals", "integrals.json", "--reference", "1100", "--shots", "200", "--nm-max-evaluations", "40"]),
    ],
)
def test_cli_mode_artifact_digests(tmp_path, monkeypatch, mode, flags):
    # Relative paths keep config.json free of the temporary directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.txt").write_text(TWO_QUBIT_FILE)
    write_scan(tmp_path / "scan.json", parabola_scan(np.linspace(1.0, 5.0, 5), 3.0, 0.05, -1.0, n_qubits=1))
    (tmp_path / "integrals.json").write_text(json.dumps(INTEGRALS))
    code = main(["run", "--mode", mode, *flags, "--seed", "31", "--out", "out"])
    assert code == 0
    assert _tree_digest(tmp_path / "out") == CLI_MODE_SHA256[mode]


def test_cli_vqe_artifact_digests(tmp_path):
    path = tmp_path / "hamiltonian.txt"
    path.write_text(TWO_QUBIT_FILE)
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--mode", "vqe",
            "--hamiltonian", str(path),
            "--seed", "23",
            "--shots", "100",
            "--nm-max-evaluations", "120",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert _sha256((out / "trace.csv").read_bytes()) == CLI_TRACE_CSV_SHA256
    assert _sha256((out / "summary.json").read_bytes()) == CLI_SUMMARY_JSON_SHA256
