"""Golden digests: same inputs plus same seed give the same bytes.

The pinned sha256 values were recorded before the estimator shared one
prepared state across its terms; a speed-up that keeps the amplitudes
and the RNG stream labels must leave them unchanged. A change that
moves them on purpose (different rounding, different sampling) updates
them here and says why.
"""

import hashlib

import numpy as np

from vqesim import AnsatzSpec, NelderMeadConfig, ShotPolicy, run_vqe
from vqesim.formats import load_hamiltonian
from vqesim.cli import main

TWO_QUBIT_FILE = "0.3 II\n-0.6 ZI\n0.4 IZ\n-0.2 ZZ\n0.5 XX\n"

TRACE_RECORDS_SHA256 = "91cf553a5fcc4f69bae8618c8d691d1b0983da72a4090d1cf63a76e6ada108a8"
CLI_TRACE_CSV_SHA256 = "6b1b2062ec199fb4771e94988bf07844843ff3e641d477cf88500ac57bcb2236"
CLI_SUMMARY_JSON_SHA256 = "b9b3c571dad7ce81e0d4b45cca591f9fb391e759e0ba4b49efc74049834e80e0"


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
