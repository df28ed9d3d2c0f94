"""The benchmark's workloads: inputs from a seed, operations, output checks.

Each workload builds its inputs in `setup()` from the benchmark seed only,
then exposes a fixed list of operations. One operation is one
`vqesim.run_vqe` call or one in-process `vqesim.cli.main` invocation. The
runner repeats the list in rounds; every workload method that looks at an
operation's output (`evaluations`, `digest`, `check`, `expected_shots`,
`bytes_written`) runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# Per-workload salt so the workloads draw unrelated inputs from one seed.
SALT = {"noisy-2q": 1, "wide-8q": 2, "cli-modes": 3}


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    # Gathers what run() left behind, outside the timed region.
    collect: Callable[[object], object] | None = None


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, SALT[workload]])


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


# --- in-process run_vqe workloads -----------------------------------------


class VqeWorkload:
    """A fixed set of run_vqe calls on layered-ansatz problems under shot noise."""

    n_qubits: int
    layers: int

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.problems: list[dict] = []

    def operations(self) -> list[Operation]:
        import vqesim

        ansatz = vqesim.AnsatzSpec(self.n_qubits, self.layers)
        ops = []
        for p in self.problems:
            hamiltonian = vqesim.PauliHamiltonian(self.n_qubits, p["terms"])
            policy = vqesim.ShotPolicy.fixed(p["shots"])

            def run(h=hamiltonian, policy=policy, config=p["config"], seed=p["run_seed"]):
                return vqesim.run_vqe(h, ansatz, policy, config, seed)

            ops.append(Operation(p["label"], run))
        return ops

    def _problem(self, label: str):
        return next(p for p in self.problems if p["label"] == label)

    def evaluations(self, label: str, result) -> int:
        return result.trace.evaluations

    def expected_shots(self, label: str, result) -> int:
        p = self._problem(label)
        per_eval = sum(p["shots"] for c, lbl in p["terms"] if set(lbl) != {"I"})
        return result.trace.evaluations * per_eval

    def bytes_written(self, label: str, result) -> int:
        return 0

    def digest(self, label: str, result) -> str:
        h = hashlib.sha256()
        for r in result.trace.records:
            h.update(r.parameters.tobytes())
            h.update(repr((r.iteration, r.energy_estimate, r.std_error, r.exact_energy,
                           r.tangle, r.overlap, r.restart)).encode())
        h.update(np.asarray(result.best_parameters).tobytes())
        h.update(repr((result.best_energy, result.trace.evaluations, result.trace.restarts,
                       result.converged, result.reason)).encode())
        return h.hexdigest()

    def check(self, label: str, result) -> list[str]:
        p = self._problem(label)
        h = oracle.hamiltonian_matrix(p["terms"])
        ground = float(oracle.eigenvalues(h)[0])
        best = np.asarray(result.best_parameters)
        energy = oracle.expectation(oracle.layered_state(self.n_qubits, self.layers, best), h)
        errors = []
        if energy < ground - 1e-9:
            errors.append(f"energy at best parameters {energy!r} below ground {ground!r}")
        records = result.trace.records
        step = next(
            (r for r in records
             if r.energy_estimate == result.best_energy and np.array_equal(r.parameters, best)),
            None,
        )
        if step is None:
            errors.append("no trace record holds the best parameters and energy")
        elif abs(step.exact_energy - energy) > 1e-9:
            errors.append(f"trace exact_energy {step.exact_energy!r} != oracle {energy!r}")
        outliers = sum(
            abs(r.energy_estimate - r.exact_energy) > 5 * r.std_error for r in records
        )
        if outliers >= 0.01 * len(records):
            errors.append(f"{outliers} of {len(records)} estimates are beyond 5 std_error")
        return errors


class Noisy2q(VqeWorkload):
    """Random 2-qubit Hamiltonians over II ZI IZ ZZ XX YY; NM and GD at 100 and 1000 shots."""

    n_qubits, layers = 2, 1
    LABELS = ("II", "ZI", "IZ", "ZZ", "XX", "YY")
    HAMILTONIANS = 2
    BUDGET = 300

    def setup(self) -> None:
        import vqesim

        rng = _rng(self.seed, self.name)
        nm = vqesim.NelderMeadConfig(stagnation_window=60, restart_limit=10**6, max_evaluations=self.BUDGET)
        gd = vqesim.GradientDescentConfig(max_evaluations=self.BUDGET)
        self.problems = []
        for k in range(self.HAMILTONIANS):
            terms = [(float(rng.uniform(-1.0, 1.0)), lbl) for lbl in self.LABELS]
            run_seed = int(rng.integers(2**63))
            for shots in (100, 1000):
                for opt, config in (("nm", nm), ("gd", gd)):
                    self.problems.append(dict(
                        label=f"h{k}-shots{shots}-{opt}", terms=terms, shots=shots,
                        config=config, run_seed=run_seed,
                    ))


class Wide8q(VqeWorkload):
    """One random 8-qubit Hamiltonian of 40 distinct terms; NM at 1000 shots."""

    n_qubits, layers = 8, 1
    TERMS = 40
    BUDGET = 60

    def setup(self) -> None:
        import vqesim

        rng = _rng(self.seed, self.name)
        codes = rng.choice(np.arange(1, 4**self.n_qubits), size=self.TERMS, replace=False)
        labels = ["".join("IXYZ"[(int(c) >> (2 * q)) & 3] for q in range(self.n_qubits)) for c in codes]
        terms = [(float(rng.uniform(-1.0, 1.0)), lbl) for lbl in labels]
        self.problems = [dict(
            label="h0-shots1000-nm", terms=terms, shots=1000,
            config=vqesim.NelderMeadConfig(restart_limit=10**6, max_evaluations=self.BUDGET),
            run_seed=int(rng.integers(2**63)),
        )]


# --- the command line, in process -----------------------------------------


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes]


class CliModes:
    """validate then run for each CLI mode, on input files generated from the seed."""

    VQE_QUBITS = 10
    REFERENCE = "111000"
    SCAN_SHOTS = 800
    BUDGETS = {"ucc": 60, "folded": 1000, "scan": 700, "vqe": 40}

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.inputs = workdir / "inputs"
        self.out = workdir / "out"

    # inputs

    def setup(self) -> None:
        import vqesim.synthetic

        rng = _rng(self.seed, self.name)
        self.run_seed = int(rng.integers(2**63))
        self.inputs.mkdir(parents=True, exist_ok=True)
        self._ucc_inputs(rng)
        self._folded_inputs(rng)
        self._scan_inputs(rng, vqesim.synthetic)
        self._vqe_inputs(rng)

    def _ucc_inputs(self, rng) -> None:
        occupied, virtual = (1, 2, 3), (4, 5, 6)
        one = [[p, p, float(rng.uniform(-2.0, -1.0))] for p in occupied]
        one += [[p, p, float(rng.uniform(-0.6, 0.2))] for p in virtual]
        for p, q in zip(occupied, virtual):
            v = float(rng.uniform(-0.3, 0.3))
            one += [[p, q, v], [q, p, v]]
        two = []
        for p in range(1, 7):
            for q in range(p + 1, 7):
                v = float(rng.uniform(0.1, 0.6))
                two += [[p, q, q, p, v], [q, p, p, q, v]]
        for (p, q), (r, s) in (((4, 5), (1, 2)), ((5, 6), (2, 3)), ((4, 6), (1, 3))):
            v = float(rng.uniform(-0.2, 0.2))
            two += [[p, q, r, s, v], [s, r, q, p, v]]
        self.integrals = {"n_modes": 6, "one_body": one, "two_body": two}
        (self.inputs / "integrals.json").write_text(json.dumps(self.integrals))

    def _folded_inputs(self, rng) -> None:
        gaps = rng.uniform(0.6, 1.2, size=3)
        self.folded_spectrum = float(rng.uniform(-2.0, -1.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(z)
        m = u @ np.diag(self.folded_spectrum) @ u.conj().T
        self.folded_terms = [
            (float(np.real(np.trace(oracle.kron_all([oracle.PAULI[a], oracle.PAULI[b]]) @ m))) / 4, a + b)
            for a in "IXYZ" for b in "IXYZ"
        ]
        targets = rng.choice(4, size=3, replace=False)
        self.shifts = [
            float(self.folded_spectrum[k] + rng.uniform(-0.2, 0.2) * min(gaps)) for k in targets
        ]
        (self.inputs / "folded.txt").write_text("".join(f"{c!r} {lbl}\n" for c, lbl in self.folded_terms))

    def _scan_inputs(self, rng, synthetic) -> None:
        self.r_star = float(rng.uniform(0.7, 1.0))
        r_values = [self.r_star + 0.2 * k for k in range(-4, 5)]
        points = synthetic.parabola_scan(
            r_values, self.r_star, float(rng.uniform(0.8, 1.5)), float(rng.uniform(-1.2, -0.8)),
        )
        self.scan_points = [
            {"R": pt.label, "terms": [[c, p.label] for c, p in pt.hamiltonian.terms]} for pt in points
        ]
        self.fit_window = (r_values[1] - 0.05, r_values[7] + 0.05)
        (self.inputs / "scan.json").write_text(json.dumps(self.scan_points))

    def _vqe_inputs(self, rng) -> None:
        # A random-field Ising chain: the same term structure for every seed and
        # no symmetry left, so the dense eigensolver never meets a degenerate
        # spectrum that would make it faster on some seeds than on others.
        n = self.VQE_QUBITS
        labels = ["I" * q + ch + "I" * (n - q - 1) for q in range(n) for ch in "XZ"]
        labels += ["I" * q + "ZZ" + "I" * (n - q - 2) for q in range(n - 1)]
        self.vqe_terms = [(float(rng.uniform(-1.0, 1.0)), lbl) for lbl in labels]
        (self.inputs / "wide10.txt").write_text("".join(f"{c!r} {lbl}\n" for c, lbl in self.vqe_terms))

    # operations

    def _args(self, mode: str) -> list[str]:
        common = ["--seed", str(self.run_seed), "--out", str(self.out / mode),
                  "--nm-max-evaluations", str(self.BUDGETS[mode])]
        if mode == "ucc":
            return ["--mode", "ucc", "--integrals", str(self.inputs / "integrals.json"),
                    "--reference", self.REFERENCE, "--exact", "--nm-tolerance", "0", *common]
        if mode == "folded":
            return ["--mode", "folded", "--hamiltonian", str(self.inputs / "folded.txt"),
                    "--lambda=" + ",".join(repr(s) for s in self.shifts), "--exact",
                    "--nm-tolerance", "0", "--nm-restart-limit", "1000000", *common]
        if mode == "scan":
            lo, hi = self.fit_window
            return ["--mode", "scan", "--scan", str(self.inputs / "scan.json"), "--shots", str(self.SCAN_SHOTS),
                    f"--fit-window={lo!r},{hi!r}", "--mc-samples", "20000",
                    # Restarts from a wide simplex. With the default simplex and no
                    # restarts about a third of the points ended more than 5 sigma
                    # above the ground curve; with these at 600 evaluations, none
                    # of 378 did.
                    "--nm-stagnation-window", "60", "--nm-initial-scale", "1.0",
                    "--nm-restart-limit", "1000000", *common]
        return ["--mode", "vqe", "--hamiltonian", str(self.inputs / "wide10.txt"), "--exact",
                "--nm-tolerance", "0", *common]

    def operations(self) -> list[Operation]:
        import vqesim.cli

        def invoke(command: str, mode: str) -> CliOutput:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = vqesim.cli.main([command, *self._args(mode)])
                except SystemExit as exc:  # argparse rejects bad arguments this way
                    code = exc.code
            return CliOutput(code, stdout.getvalue(), stderr.getvalue(), {})

        def read_artifacts(out: CliOutput, mode: str) -> CliOutput:
            out_dir = self.out / mode
            out.files = {
                str(f.relative_to(out_dir)): f.read_bytes() for f in sorted(out_dir.rglob("*")) if f.is_file()
            }
            return out

        ops = []
        for mode in ("ucc", "folded", "scan", "vqe"):
            ops.append(Operation(f"validate-{mode}", lambda m=mode: invoke("validate", m)))
            ops.append(Operation(f"run-{mode}", lambda m=mode: invoke("run", m),
                                 lambda out, m=mode: read_artifacts(out, m)))
        return ops

    def before(self, label: str) -> None:
        """Start each run from an empty output directory (untimed)."""
        if label.startswith("run-"):
            shutil.rmtree(self.out / label[4:], ignore_errors=True)

    def evaluations(self, label: str, out: CliOutput) -> int:
        mode = label.split("-", 1)[1]
        if label.startswith("validate-") or out.code != 0:
            return 0
        if mode == "scan":
            return sum(
                len(data.decode().splitlines()) - 1
                for name, data in out.files.items() if name.startswith("traces/")
            )
        # Folded mode writes one summary per shift and a collective one without counts.
        names = [n for n in out.files if n.endswith("/summary.json")] if mode == "folded" else ["summary.json"]
        return sum(json.loads(out.files[n])["evaluations"] for n in names)

    def expected_shots(self, label: str, out: CliOutput) -> int:
        if label != "run-scan":
            return 0  # the other modes run --exact
        total = 0
        for index, point in enumerate(self.scan_points):
            rows = len(out.files[f"traces/point_{index:02d}.csv"].decode().splitlines()) - 1
            measured = sum(set(lbl) != {"I"} for _, lbl in point["terms"])
            # Every objective evaluation plus one fresh curve estimate per point.
            total += (rows + 1) * measured * self.SCAN_SHOTS
        return total

    def bytes_written(self, label: str, out: CliOutput) -> int:
        return sum(len(data) for data in out.files.values())

    def digest(self, label: str, out: CliOutput) -> str:
        return _sha(out.code, out.stdout, out.stderr, sorted(out.files.items()))

    # checks

    def check(self, label: str, out: CliOutput) -> list[str]:
        if out.code != 0:
            return [f"exit code {out.code}: {out.stderr.strip()}"]
        command, mode = label.split("-", 1)
        if command == "validate":
            return [] if f"mode: {mode}" in out.stdout else [f"validate printed {out.stdout!r}"]
        errors = []
        parsed = {}
        for name, data in out.files.items():
            if name.endswith(".json"):
                try:
                    parsed[name] = _strict_json(data.decode())
                except ValueError as exc:
                    errors.append(f"{name}: {exc}")
        if errors:
            return errors
        return getattr(self, f"_check_{mode}")(out, parsed)

    def _check_ucc(self, out: CliOutput, parsed: dict) -> list[str]:
        s = parsed["summary.json"]
        i = self.integrals
        h = oracle.integrals_matrix(i["n_modes"], i["one_body"], i["two_body"])
        ground = float(oracle.eigenvalues(h)[0])
        ref = oracle.ucc_state(6, self.REFERENCE, [], [])
        reference_energy = oracle.expectation(ref, h)
        best = oracle.expectation(
            oracle.ucc_state(6, self.REFERENCE, s["excitations"], s["best_parameters"]), h)
        errors = []
        if abs(s["reference_energy"] - reference_energy) > 1e-9:
            errors.append(f"reference_energy {s['reference_energy']!r} != oracle {reference_energy!r}")
        if not ground - 1e-9 <= s["best_energy"] <= s["reference_energy"]:
            errors.append(f"best_energy {s['best_energy']!r} outside [{ground!r}, reference]")
        if abs(s["best_energy"] - best) > 1e-9:
            errors.append(f"best_energy {s['best_energy']!r} != oracle UCC energy {best!r}")
        if abs(s["exact_ground_energy"] - ground) > 1e-8:
            errors.append(f"exact_ground_energy {s['exact_ground_energy']!r} != oracle {ground!r}")
        return errors

    def _check_folded(self, out: CliOutput, parsed: dict) -> list[str]:
        shifts = parsed["summary.json"]["shifts"]
        errors = [] if len(shifts) == len(self.shifts) else ["wrong number of shifts"]
        for entry in shifts:
            nearest = min(self.folded_spectrum, key=lambda e: abs(e - entry["lambda"]))
            if abs(entry["recovered_eigenvalue"] - nearest) > 1e-4:
                errors.append(
                    f"lambda {entry['lambda']!r}: recovered {entry['recovered_eigenvalue']!r}, "
                    f"nearest eigenvalue {nearest!r}")
        return errors

    def _check_scan(self, out: CliOutput, parsed: dict) -> list[str]:
        # Under shot noise Nelder-Mead can stay pinned to a lucky low estimate,
        # so on some seeds a point ends well above the ground curve and drags
        # r_min away from r_star (see CHANGES.md). Checked here is what holds
        # whatever the optimizer reached: the curve's exact values, the fresh
        # estimates against the states they measured, and the fit arithmetic.
        closed = {}
        for pt in self.scan_points:
            c = {lbl: coeff for coeff, lbl in pt["terms"]}
            closed[pt["R"]] = c["II"] - math.hypot(c["XI"], c["ZI"]) - c["IZ"]
        errors = []
        rows = list(csv.DictReader(io.StringIO(out.files["curve.csv"].decode())))
        if len(rows) != len(self.scan_points):
            errors.append(f"curve has {len(rows)} rows")
        for index, row in enumerate(rows):
            r, e_est, e_exact, sigma = (float(row[k]) for k in ("R", "E_est", "E_exact", "std_error"))
            expected = closed[r]
            if abs(e_exact - expected) > 1e-9:
                errors.append(f"R={r!r}: E_exact {e_exact!r} != closed form {expected!r}")
            if e_est < expected - 5 * sigma:
                errors.append(f"R={r!r}: E_est {e_est!r} more than 5 sigma ({sigma!r}) below {expected!r}")
            trace = csv.DictReader(io.StringIO(out.files[f"traces/point_{index:02d}.csv"].decode()))
            # The optimizer keeps the first evaluation with the lowest estimate.
            best = min(trace, key=lambda t: float(t["energy_estimate"]))
            if abs(e_est - float(best["exact_energy"])) > 5 * sigma:
                errors.append(f"R={r!r}: E_est {e_est!r} beyond 5 sigma ({sigma!r}) of the "
                              f"measured state's energy {best['exact_energy']}")
        fit = parsed["fit.json"]
        lo, hi = fit["fit_window"]
        used = [(float(row["R"]), float(row["E_est"]), float(row["std_error"])) for row in rows
                if lo <= float(row["R"]) <= hi]
        a, b, c = oracle.weighted_parabola(*np.array(used).T)
        for name, value in (("a", a), ("b", b), ("c", c)):
            if abs(fit["coefficients"][name] - value) > 1e-8 * max(1.0, abs(value)):
                errors.append(f"fit coefficient {name} {fit['coefficients'][name]!r} != {value!r}")
        if abs(fit["r_min"] + b / (2 * a)) > 1e-8 * max(1.0, abs(b / (2 * a))):
            errors.append(f"r_min {fit['r_min']!r} != {-b / (2 * a)!r}")
        return errors

    def _check_vqe(self, out: CliOutput, parsed: dict) -> list[str]:
        s = parsed["summary.json"]
        ground = float(oracle.eigenvalues(oracle.hamiltonian_matrix(self.vqe_terms))[0])
        errors = []
        if abs(s["exact_ground_energy"] - ground) > 1e-8:
            errors.append(f"exact_ground_energy {s['exact_ground_energy']!r} != oracle {ground!r}")
        if s["best_energy"] < ground - 1e-9:
            errors.append(f"best_energy {s['best_energy']!r} below ground {ground!r}")
        return errors


WORKLOADS = {"noisy-2q": Noisy2q, "wide-8q": Wide8q, "cli-modes": CliModes}
