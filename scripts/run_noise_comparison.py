#!/usr/bin/env python3
"""Simplex-with-restarts vs gradient descent under shot noise.

Both optimizers get identical objectives (same Hamiltonians, starts,
seeds and evaluation budgets) at a fixed shot count per term; success
means the final prepared state's true energy lands within 5% of the
spectral range above the ground energy. Gradient descent's central
differences are noise-dominated at realistic shot counts, which is
exactly what this table shows.
"""

import argparse

import numpy as np

from vqesim import (
    AnsatzSpec,
    GradientDescentConfig,
    NelderMeadConfig,
    PauliHamiltonian,
    ShotPolicy,
    exact_energy,
    exact_spectrum,
    random_initial_parameters,
    run_vqe,
)

LABELS = ["II", "ZI", "IZ", "ZZ", "XX", "YY"]


def compare(hamiltonians: int, starts: int, shots: int, budget: int, seed: int) -> list[tuple]:
    """Hit counts per random Hamiltonian: [(H seed, ground energy, NM hits, GD hits), ...].

    Hamiltonian k draws its coefficients from generator seed `seed + k`;
    start s of it begins at the angles of init seed 77000 + 100k + s and
    runs on seed 10k + s under both optimizers.
    """
    policy = ShotPolicy.fixed(shots)
    ansatz = AnsatzSpec(2, 1)
    nm_config = NelderMeadConfig(
        max_evaluations=budget, restart_limit=5, stagnation_window=60, initial_scale=0.6
    )
    gd_config = GradientDescentConfig(step_size=0.1, max_evaluations=budget)
    rows = []
    for h_index in range(hamiltonians):
        gen = np.random.default_rng(seed + h_index)
        h = PauliHamiltonian(2, [(gen.uniform(-1, 1), l) for l in LABELS])
        spectrum = exact_spectrum(h)
        ground = spectrum.ground_energy()
        threshold = ground + 0.05 * (spectrum.eigenvalues[-1] - ground)
        nm_hits = gd_hits = 0
        for start in range(starts):
            x0 = random_initial_parameters(ansatz.parameter_count, 77000 + 100 * h_index + start)
            run_seed = 10 * h_index + start
            nm = run_vqe(h, ansatz, policy, nm_config, seed=run_seed, x0=x0)
            gd = run_vqe(h, ansatz, policy, gd_config, seed=run_seed, x0=x0)
            nm_hits += exact_energy(ansatz.prepare(nm.best_parameters), h) <= threshold
            gd_hits += exact_energy(ansatz.prepare(gd.best_parameters), h) <= threshold
        rows.append((seed + h_index, ground, nm_hits, gd_hits))
    return rows


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hamiltonians", type=int, default=4)
    parser.add_argument("--starts", type=int, default=4)
    parser.add_argument("--shots", type=int, default=100)
    parser.add_argument("--budget", type=int, default=500)
    parser.add_argument("--seed", type=int, default=500)
    args = parser.parse_args(argv)

    print(f"{args.shots} shots/term, budget {args.budget} evaluations, "
          f"success = within 5% of spectral range above ground\n")
    print(f"{'H seed':>8} {'ground':>9} {'NM hits':>8} {'GD hits':>8}")
    rows = compare(args.hamiltonians, args.starts, args.shots, args.budget, args.seed)
    for h_seed, ground, nm_hits, gd_hits in rows:
        print(f"{h_seed:>8} {ground:>9.4f} {nm_hits:>5}/{args.starts} {gd_hits:>5}/{args.starts}")
    cells = args.hamiltonians * args.starts
    print(f"\ntotals: Nelder-Mead {sum(r[2] for r in rows)}/{cells}, "
          f"gradient descent {sum(r[3] for r in rows)}/{cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
