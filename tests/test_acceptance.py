"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; the
whole module takes a few minutes because several criteria are
statistical (hundreds of seeded optimization runs).
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest

from reference import decompose
from vqesim import (
    AnsatzSpec,
    NelderMeadConfig,
    PauliHamiltonian,
    ShotPolicy,
    StateVector,
    UccAnsatz,
    exact_energy,
    exact_spectrum,
    jordan_wigner,
    run_vqe,
    shift_and_square,
    shot_budget,
)
from vqesim.analysis import tangles
from vqesim.cli import RunConfig, run_config, validate_config
from vqesim.fermion import FermionOperator
from vqesim.formats import parse_integrals, write_scan
from vqesim.synthetic import parabola_scan

from conftest import estimate_state, fermion_matrix, load_script


def _report(name: str, ok: bool, detail: str) -> None:
    # write to the real stdout so the line survives pytest's capture
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})", file=sys.__stdout__)
    assert ok, f"{name}: {detail}"


def _full_random_hamiltonian(seed: int) -> PauliHamiltonian:
    gen = np.random.default_rng(seed)
    labels = ["".join(t) for t in itertools.product("IXYZ", repeat=2)]
    return PauliHamiltonian(2, [(gen.uniform(-1, 1), l) for l in labels])


@pytest.fixture(scope="module")
def exact_benchmark():
    """Twenty seeded exact-mode runs on random two-qubit Hamiltonians."""
    runs = []
    started = time.perf_counter()
    for k in range(20):
        h = _full_random_hamiltonian(1000 + k)
        result = run_vqe(h, AnsatzSpec(2, 1), ShotPolicy.exact(), NelderMeadConfig(), seed=k)
        runs.append((h, exact_spectrum(h).ground_energy(), result))
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def noisy_benchmark():
    """Shot-mode runs (1000 shots/term) used by the bound and tangle checks."""
    runs = []
    config = NelderMeadConfig(
        max_evaluations=300, restart_limit=4, stagnation_window=60, initial_scale=0.6
    )
    for k in range(5):
        h = _full_random_hamiltonian(3000 + k)
        result = run_vqe(h, AnsatzSpec(2, 1), ShotPolicy.fixed(1000), config, seed=50 + k)
        runs.append((h, exact_spectrum(h).ground_energy(), result))
    return runs


def test_oracle_equivalence_noiseless_vqe(exact_benchmark):
    runs, elapsed = exact_benchmark
    hits = sum(result.best_energy - truth <= 1e-6 for _, truth, result in runs)
    ok = hits >= 19 and elapsed < 60.0
    _report(
        "oracle-equivalence (noiseless VQE)",
        ok,
        f"{hits}/20 within 1e-6 of dense minimum, {elapsed:.1f}s",
    )


def test_variational_bound(exact_benchmark, noisy_benchmark):
    exact_runs, _ = exact_benchmark
    exact_violations = sum(
        rec.energy_estimate < truth - 1e-9
        for _, truth, result in exact_runs
        for rec in result.trace.records
    )
    total_noisy = 0
    noisy_violations = 0
    for _, truth, result in noisy_benchmark:
        for rec in result.trace.records:
            total_noisy += 1
            noisy_violations += rec.energy_estimate < truth - 5.0 * rec.std_error
    noisy_fraction = noisy_violations / total_noisy
    ok = exact_violations == 0 and noisy_fraction < 0.01
    _report(
        "variational-bound",
        ok,
        f"exact violations {exact_violations}, shot-mode fraction {noisy_fraction:.4f} "
        f"of {total_noisy} iterates",
    )


def test_shot_noise_scaling():
    plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    z = PauliHamiltonian(1, [(1.0, "Z")])
    shot_grid = (100, 1_000, 10_000, 100_000)
    log_std = []
    for shots in shot_grid:
        estimates = [
            estimate_state(plus, z, shot_budget(z, ShotPolicy.fixed(shots)), seed, iteration=shots).value
            for seed in range(200)
        ]
        log_std.append(math.log(float(np.std(estimates))))
    slope = np.polyfit(np.log(shot_grid), log_std, 1)[0]
    ok = abs(slope + 0.5) <= 0.05
    _report("shot-noise-scaling", ok, f"log-log slope {slope:.4f} vs -0.5 +/- 0.05")


def test_cost_model(tmp_path):
    path = tmp_path / "single.txt"
    path.write_text("1.0 Z\n")
    config = RunConfig(mode="vqe", seed=1, hamiltonian=str(path), policy="precision:0.01")
    shots = sum(validate_config(config).jobs[0].term_shots)
    ok = shots == 10_000
    _report("cost-model", ok, f"validate reports {shots} shots/evaluation")


def test_jordan_wigner_algebra():
    worst = 0.0
    for n_modes in range(1, 5):
        eye = np.eye(1 << n_modes)
        create = {
            j: fermion_matrix(FermionOperator(n_modes, [(1.0, ((j, True),))]))
            for j in range(1, n_modes + 1)
        }
        annihilate = {
            j: fermion_matrix(FermionOperator(n_modes, [(1.0, ((j, False),))]))
            for j in range(1, n_modes + 1)
        }
        for i, j in itertools.product(range(1, n_modes + 1), repeat=2):
            worst = max(
                worst,
                float(
                    np.max(
                        np.abs(
                            create[i] @ annihilate[j]
                            + annihilate[j] @ create[i]
                            - (eye if i == j else 0.0)
                        )
                    )
                ),
                float(np.max(np.abs(annihilate[i] @ annihilate[j] + annihilate[j] @ annihilate[i]))),
                float(np.max(np.abs(create[i] @ create[j] + create[j] @ create[i]))),
            )
    ok = worst < 1e-10
    _report("jordan-wigner-algebra", ok, f"worst anticommutator residue {worst:.2e}")


def _toy_molecule():
    integrals = parse_integrals({
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
    return jordan_wigner(integrals)


def test_ucc_sanity():
    hamiltonian = _toy_molecule()
    ansatz = UccAnsatz.from_reference(4, "1100")
    reference_energy = exact_energy(ansatz.reference_state(), hamiltonian)
    zero_state = ansatz.prepare(np.zeros(ansatz.parameter_count))
    zero_energy = exact_energy(zero_state, hamiltonian)
    result = run_vqe(
        hamiltonian,
        ansatz,
        ShotPolicy.exact(),
        NelderMeadConfig(max_evaluations=2000),
        seed=4,
        x0=np.zeros(ansatz.parameter_count),
    )
    ground = exact_spectrum(hamiltonian).ground_energy()
    ok = (
        zero_energy == reference_energy
        and result.best_energy <= reference_energy
        and result.best_energy >= ground - 1e-9
    )
    _report(
        "ucc-sanity",
        ok,
        f"zero-amplitude energy {zero_energy:.6f} vs reference {reference_energy:.6f}, "
        f"optimized {result.best_energy:.6f} in [ground {ground:.6f}, reference]",
    )


def test_folded_spectrum():
    hamiltonian = decompose(np.diag([-1.0, 0.0, 1.0, 2.0]).astype(complex))
    targets = {-0.9: -1.0, 0.4: 0.0, 1.8: 2.0}
    recovered = {}
    ansatz = AnsatzSpec(2, 1)
    for shift, expected in targets.items():
        result = run_vqe(
            shift_and_square(hamiltonian, shift),
            ansatz,
            ShotPolicy.exact(),
            NelderMeadConfig(),
            seed=17,
        )
        recovered[shift] = exact_energy(ansatz.prepare(result.best_parameters), hamiltonian)
    ok = all(abs(recovered[s] - targets[s]) <= 1e-4 for s in targets)
    _report(
        "folded-spectrum",
        ok,
        ", ".join(f"lambda={s:g} -> {recovered[s]:.6f} (want {targets[s]:g})" for s in targets),
    )


def test_noise_robustness_comparison():
    # 10 Hamiltonians x 10 starts at 100 shots/term and 500 evaluations.
    rows = load_script("run_noise_comparison").compare(10, 10, 100, 500, 500)
    nm_hits = sum(row[2] for row in rows)
    gd_hits = sum(row[3] for row in rows)
    ok = nm_hits >= gd_hits and nm_hits > gd_hits
    _report(
        "noise-robustness (NM vs gradient descent)",
        ok,
        f"NM {nm_hits}/100 cells vs GD {gd_hits}/100 at 100 shots/term",
    )


def test_synthetic_dissociation_pipeline(tmp_path):
    r_star, curvature, offset, cubic = 92.6, 0.02, -2.9, 1e-5
    points = parabola_scan(
        np.linspace(84.0, 100.0, 9), r_star, curvature, offset, cubic, n_qubits=1
    )
    write_scan(tmp_path / "scan.json", points)
    hits = 0
    for rep in range(100):
        fit = run_config(
            RunConfig(
                mode="scan",
                seed=42_000 + rep,
                scan=str(tmp_path / "scan.json"),
                out=str(tmp_path / "out"),
                policy="shots:400",
                nm_max_evaluations=350,
                nm_restart_limit=5,
                nm_stagnation_window=60,
                nm_initial_scale=0.6,
                mc_samples=20_000,
            )
        )
        hits += abs(fit["r_min"] - r_star) <= 3.0 * fit["sigma_r_min"]
    ok = hits >= 95
    _report(
        "synthetic-dissociation-pipeline",
        ok,
        f"{hits}/100 repetitions recover R* within 3 reported sigma",
    )


def test_tangle_diagnostics(exact_benchmark, noisy_benchmark):
    exact_runs, _ = exact_benchmark
    all_records = [
        rec
        for _, _, result in list(exact_runs) + list(noisy_benchmark)
        for rec in result.trace.records
    ]
    in_range = all(
        rec.tangle is not None and 0.0 <= rec.tangle <= 1.0 for rec in all_records
    )
    bell = StateVector(2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
    product = StateVector(2, np.array([0.0, 1.0, 0.0, 0.0], dtype=complex))
    bell_tangle, product_tangle = tangles(np.array([bell.amplitudes, product.amplitudes]))
    spot = abs(bell_tangle - 1.0) < 1e-10 and abs(product_tangle) < 1e-10
    ok = in_range and spot
    _report(
        "tangle-diagnostics",
        ok,
        f"{len(all_records)} trace records in [0,1]; Bell {bell_tangle:.12f}, "
        f"product {product_tangle:.12f}",
    )
