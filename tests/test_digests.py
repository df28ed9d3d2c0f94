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

The six shot-mode digests (the two trace-record digests, the vqe trace
and summary, and the shot-mode folded, scan and ucc trees) were re-pinned
together when each term's estimate became one binomial count of +1
outcomes instead of a shots-long array of sampled basis states. The
stream labels are unchanged, so the draw is the one cause. The --exact
cases, which draw nothing, were pinned before that change and kept
their bytes through it.

The same six were re-pinned together again when sampling moved from one
RNG stream per (term, iteration) to one stream per evaluation: every
term's count now comes from one vectorised binomial draw on the
generator derived from (seed, iteration). The inputs, the arguments and
the count law are unchanged, so the stream is the one cause. Every
exact value is computed as before, and the --exact digests kept their
bytes.

Every digest of a run on the layered ansatz (eight pins: the two
trace-record digests, the vqe trace.csv, the shot-mode folded and scan
trees and the --exact vqe, folded and scan trees) was re-pinned together
when the ansatz began applying each Rz-Ry-Rz triple as one fused 2x2
gate in closed form instead of three gates. That one rounding change
moves amplitudes by about 1e-16. In shot mode the counts, the estimates,
their std errors and the parameters kept their bytes; only the noiseless
diagnostics (exact_energy, tangle, overlap, the folded summaries'
folded_energy and recovered_eigenvalue) moved, by at most 1.6e-15 on the
seed-17 run_vqe inputs. Under --exact the optimizer reads the exact
energy, so a simplex step can take the other branch at a near-tie and
the path diverges. The two ucc digests kept their pins, since the UCC
ansatz does not use AnsatzSpec, and so did the vqe summary.json.

The seven tree digests (CLI_MODE_SHA256 and CLI_EXACT_MODE_SHA256) were
re-pinned together when six run settings became library constants:
bias, the four Nelder-Mead simplex coefficients and the gradient
step. config.json lost those six keys and is the one file that moved;
every trace, summary, curve and fit file kept its bytes, and the four
trace and summary digests kept their pins.

The same seven were re-pinned again when the command line dropped four
settings that every caller left at one value: optimizer (always
nelder-mead), gd_step_size and gd_max_evaluations (read only for
gradient descent) and cluster_cap (always 2, singles and doubles).
config.json lost those four keys and is again the one file that moved:
with the four keys taken out, each old config.json equals the new one
byte for byte, and the other 30 files of the seven trees kept theirs.

No pin moved when the optimizers began handing their independent points
to the objective as one batch, prepared together: every row's amplitudes
equal a batch of one byte for byte, and each row keeps its own step and
RNG stream label.

Every run digest (ten pins: the two trace-record digests, the vqe
trace.csv and the seven trees) was re-pinned together when the loop's
reductions moved off BLAS: all term expectations of an evaluation
became one einsum over the Hamiltonian's action table, the tangle its
closed form 2|a00 a11 - a01 a10|, and the overlap an einsum, in place of
`vdot`, `@` and `norm`. That new rounding is the one cause. In shot mode
the counts, estimates, std errors and parameters kept their bytes, and
so did the vqe summary.json; only the noiseless columns moved:
exact_energy by at most 5.6e-16 on two qubits and 8.9e-16 on the ucc
run, tangle by at most 4.4e-16, overlap by at most 2.2e-16, and the
folded summaries' recovered_eigenvalue by at most 5.6e-17. Under
--exact the optimizer reads the exact energy. The vqe, folded and ucc
runs kept their paths, their energy columns moving as above (1.3e-15 at
most, on ucc) and the vqe best_energy by 1.1e-16. Two of the five scan
points took the other branch at a near-tie and diverged, which moved
their traces, curve.csv and fit.json. No config.json moved.

No pin moved when the loop began handling the optimizer's batch as
arrays: one (B, 2^n) amplitude array per batch, one blocked einsum for
every row's term expectations, and one call each for the overlaps and
tangles. Every row's values keep the bytes of a batch of one.

The six shot-mode digests were then re-pinned together when sampling
moved from one `SeedSequence`-derived generator per (seed, iteration)
to one counter-based Philox stream per run: the run keys it once from
(seed, STREAM_SAMPLING), and each evaluation relabels its counter to
(0, 0, iteration, 0). The Binomial count law, the per-term shots, the
stream labels and every noiseless value are unchanged, so the stream
is the one cause; the code one step before this change reproduced
every old pin. The --exact digests and the operator digests draw
nothing and kept their pins.

The operator digests pin the terms `jordan_wigner` and `shift_and_square`
derive, coefficient bits and term order both, at a size no run maps:
a dense 10-mode integral set and a 6-qubit, 30-term sum at three shifts.
They were recorded before Pauli products moved from a per-character
table to (x, z) bit masks, and that change kept them.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from conftest import all_labels
from vqesim import (
    AnsatzSpec, GradientDescentConfig, NelderMeadConfig, PauliHamiltonian, ShotPolicy, jordan_wigner, run_vqe,
    shift_and_square,
)
from vqesim.formats import load_hamiltonian, parse_integrals, write_scan
from vqesim.cli import main
from vqesim.synthetic import parabola_scan

TWO_QUBIT_FILE = "0.3 II\n-0.6 ZI\n0.4 IZ\n-0.2 ZZ\n0.5 XX\n"

TRACE_RECORDS_SHA256 = "a4590aa95d998a3bbeb947131a2953a7a2f192b8408cdd3599f6bc44caf32a86"
CLI_TRACE_CSV_SHA256 = "46d63d4bbb570253627b85c32900e258d88ece4c738a82b56557d8505bba8c70"
CLI_SUMMARY_JSON_SHA256 = "7c54d4d31409cd5f73b1c08aadebc6f9acf2bb903baa232c5c7a5b6e293600d4"
GD_TRACE_RECORDS_SHA256 = "86e18180a65e6a733e095cc0e6cef61926cb627f676d159c282e214f27f8afe5"
# sha256 over every artifact of one run, config.json included (see _tree_digest).
CLI_MODE_SHA256 = {
    "folded": "295134ba3028735aab9550cc4ca5cce8091f471fa4e75ba642493d33dc8c4bdb",
    "scan": "1f1e9d083dd9235864b7a26d17c1fe71693d340ad32701e27691c89ccda8d31b",
    "ucc": "afe6e36cc29b3a1235d95ec0b79140ff0dced852d56674f1f975365e5079a62a",
}
# The same digest for the noiseless (--exact) runs, which draw no shots.
CLI_EXACT_MODE_SHA256 = {
    "vqe": "2419b56ffc1b3d43f754ad7369fcd67396c15df01f364d00e5daa7efe12e57f3",
    "folded": "e511ef4988021272c356003286486efb8f5124b4c28c9fd90a4a33e323e4ffca",
    "scan": "530eda1724cfc89feabbe2e528960cc2602c18a16c6abaa2cf0eb07b2cad0c95",
    "ucc": "8ac5af6089017f923f7e650480ff58cbc85c4e88e59a59f6aa87a2047467e27d",
}

# sha256 of the derived operators' (repr(coefficient), label) terms, in term order.
JORDAN_WIGNER_SHA256 = "ea7e8962de74c230efc389e259781f225dfbaf6fa5bf11b6d3ec5e9176342edd"
SHIFT_AND_SQUARE_SHA256 = {
    -0.5: "5d3955b7f04ad7249332ed1f1a5353ad98e2ee0a2fd45969dde55fc9f88a5b27",
    0.0: "172df58b0e2b97fe4e6792cbb5384282a4a65e64488d9c2ea92292c2c727900d",
    1.3: "4056dc5e07b12cee9ba04f1307967bfe9e40c65731aecaa6def89693b4985d2e",
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
        ("vqe", ["--hamiltonian", "h.txt", "--exact", "--nm-max-evaluations", "120"]),
        ("folded", ["--hamiltonian", "h.txt", "--lambda=-0.5,0.7", "--exact", "--nm-max-evaluations", "80"]),
        ("scan", ["--scan", "scan.json", "--exact", "--nm-max-evaluations", "60", "--mc-samples", "2000"]),
        ("ucc", ["--integrals", "integrals.json", "--reference", "1100", "--exact", "--nm-max-evaluations", "40"]),
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
    pinned = CLI_EXACT_MODE_SHA256 if "--exact" in flags else CLI_MODE_SHA256
    assert _tree_digest(tmp_path / "out") == pinned[mode]


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


def _operator_digest(h) -> str:
    """sha256 over each term's coefficient repr and label, in term order."""
    return _sha256(repr([(repr(c), p.label) for c, p in h.terms]).encode())


def test_jordan_wigner_operator_digest():
    # A dense Hermitian 10-mode set: every one-body pair and every
    # (p<q, r<s) two-body entry, 2125 fermion terms in all.
    rng = np.random.default_rng(41)
    n = 10
    one = rng.uniform(-1, 1, (n, n))
    one = (one + one.T) / 2
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    two = rng.uniform(-1, 1, (len(pairs), len(pairs)))
    two = (two + two.T) / 2
    integrals = parse_integrals({
        "n_modes": n,
        "one_body": [[p + 1, q + 1, one[p, q]] for p in range(n) for q in range(n)],
        "two_body": [[*pq, *rs, two[i, j]] for i, pq in enumerate(pairs) for j, rs in enumerate(pairs)],
    })
    mapped = jordan_wigner(integrals)
    assert _operator_digest(mapped) == JORDAN_WIGNER_SHA256


@pytest.mark.parametrize("shift", [-0.5, 0.0, 1.3])
def test_shift_and_square_operator_digest(shift):
    rng = np.random.default_rng(43)
    labels = all_labels(6)
    chosen = rng.choice(len(labels), size=30, replace=False)
    h = PauliHamiltonian(6, [(rng.uniform(-1, 1), labels[k]) for k in chosen])
    assert _operator_digest(shift_and_square(h, shift)) == SHIFT_AND_SQUARE_SHA256[shift]
