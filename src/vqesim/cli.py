"""Command-line front end: validate inputs, run experiments, emit artifacts.

Configuration is a single flat JSON document; command-line flags
override individual keys (flags win). The fields of `RunConfig` are the
one list of settings: each is a config key and a `--kebab-case` flag,
read and checked by the `_VALUE_TYPES` row of its annotation (a list
flag is comma-separated), and the `nm_*` keys fill the Nelder-Mead
config, whose defaults they share. The policy key alone has its own
flags, `--shots | --precision | --exact`. Every run requires an explicit
seed and writes byte-reproducible artifacts: the effective config, a
per-iteration trace CSV, and a JSON summary (plus curve/fit files in
scan mode). Artifacts are strict JSON: a non-finite value is an error,
never `NaN` or `Infinity` in a file.

Every run is one checked plan, built by `validate_config`: the loaded
inputs, the ansatz, the shot policy, the optimizer config and the jobs
of `plan_jobs`, one minimization each (vqe and ucc one, scan one per
point, folded one per shift on (H - lambda)^2) with its label,
operator, seed, trace file and per-term shots from `shot_budget`, which
every estimate of the job draws. `validate` prints the plan and `run`
executes it in one loop, so the printed budget is what each evaluation
spends.

`RunConfig` checks the type of every key (an integer, a finite number,
a string or a list of finite numbers, as its field is annotated) and
every range. The plan then loads and checks every input through
`load_inputs` before anything else happens, so `run` writes no file
unless `validate` would pass. That includes the scan rule (the fit
window, by default the whole scan, must select at least 4 scan points,
the minimum of the quadratic fit with a covariance) and the width rule
(no Hamiltonian, scan point or Jordan-Wigner image over 10 qubits, the
limit of the dense spectrum every run computes) and the parameter cap
(no ansatz over `MAX_PARAMETERS` parameters). An operator with no
terms is an input error in every format: a Hamiltonian file, a scan
point, or integrals whose Jordan-Wigner image is empty once pruned.

Exit codes: 0 success, 2 configuration errors, 3 malformed or missing
input files, 4 execution/output failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    MAX_MC_SAMPLES,
    MAX_SPECTRUM_QUBITS,
    MIN_FIT_POINTS,
    MIN_MC_SAMPLES,
    fit_quadratic_minimum,
    monte_carlo_minimum_uncertainty,
)
from .driver import VqeResult, run_jobs
from .estimation import (
    MAX_SEED,
    STREAM_MC,
    STREAM_SCAN,
    Measurement,
    ShotPolicy,
    derive_seed,
    derived_generator,
    estimate_energy,
    shot_budget,
)
from .fermion import UccAnsatz, jordan_wigner
from .formats import FormatError, ScanPoint, load_hamiltonian, load_integrals, load_scan
from .optimize import NelderMeadConfig
from .pauli import PauliHamiltonian, _is_int, _is_real, shift_and_square
from .statevector import AnsatzSpec, _weighted_sum, batch_term_expectations, exact_energy


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


# The values of mode; its flag offers the same choices.
_MODES = ("vqe", "folded", "scan", "ucc")


def number_list(text: str) -> tuple[float, ...]:
    """Read a list flag: comma-separated numbers, "0.5,-1" -> (0.5, -1.0)."""
    return tuple(float(part) for part in text.split(",") if part.strip())


# Per annotated field type: what a config value must be, its description,
# and how a flag's text is read. `| None` fields also take None.
_VALUE_TYPES = {
    "int": (_is_int, "an integer", int),
    "float": (_is_real, "a finite number", float),
    "str": (lambda value: isinstance(value, str), "a string", str),
    "tuple": (
        lambda value: isinstance(value, (list, tuple)) and all(_is_real(v) for v in value),
        "a list of finite numbers",
        number_list,
    ),
}


def _value_type(field: dataclasses.Field) -> tuple:
    # The leading name of the annotation: "int | None" -> "int".
    return _VALUE_TYPES[field.type.split("[")[0].split()[0]]


@dataclass
class RunConfig:
    mode: str = ""
    seed: int | None = None
    out: str | None = None
    hamiltonian: str | None = None
    scan: str | None = None
    integrals: str | None = None
    layers: int = 1
    policy: str = "exact"
    lambdas: tuple[float, ...] = ()
    fit_window: tuple[float, float] | None = None
    reference: str | None = None
    mc_samples: int = 20000
    nm_initial_scale: float = NelderMeadConfig.initial_scale
    nm_tolerance: float = NelderMeadConfig.tolerance
    nm_stagnation_window: int = NelderMeadConfig.stagnation_window
    nm_restart_limit: int = NelderMeadConfig.restart_limit
    nm_max_evaluations: int = NelderMeadConfig.max_evaluations

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.seed is None:
            raise ConfigError("seed is mandatory; there is no wall-clock default")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.type.endswith("| None"):
                continue
            accepts, kind, _ = _value_type(f)
            if not accepts(value):
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
            if isinstance(value, np.generic):  # a numpy scalar: config.json stays strict JSON
                setattr(self, f.name, value.item())
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must be an integer in [0, 2**64 - 1], got {self.seed!r}")
        if self.layers < 1:
            raise ConfigError(f"layers must be an integer >= 1, got {self.layers!r}")
        # The fit's Monte-Carlo uncertainties need MIN_MC_SAMPLES draws, and MAX_MC_SAMPLES bounds their memory.
        if not MIN_MC_SAMPLES <= self.mc_samples <= MAX_MC_SAMPLES:
            raise ConfigError(
                f"mc_samples must be an integer from {MIN_MC_SAMPLES} to {MAX_MC_SAMPLES}, got {self.mc_samples!r}"
            )
        if self.mode in ("vqe", "folded") and not self.hamiltonian:
            raise ConfigError(f"mode {self.mode!r} requires a hamiltonian file")
        if self.mode == "folded" and not self.lambdas:
            raise ConfigError("folded mode requires at least one lambda shift")
        if self.mode == "scan" and not self.scan:
            raise ConfigError("scan mode requires a scan file")
        if self.mode == "ucc":
            if not self.integrals:
                raise ConfigError("ucc mode requires an integrals file")
            if not self.reference:
                raise ConfigError("ucc mode requires a reference occupation bitstring")
        self.lambdas = tuple(float(v) for v in self.lambdas)
        if self.fit_window is not None:
            if len(self.fit_window) != 2 or not self.fit_window[0] < self.fit_window[1]:
                raise ConfigError(f"fit window must be [lo, hi] with lo < hi, got {self.fit_window!r}")
            self.fit_window = (float(self.fit_window[0]), float(self.fit_window[1]))
        try:
            self.shot_policy()
            self.optimizer_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def shot_policy(self) -> ShotPolicy:
        return ShotPolicy.parse(self.policy)

    def optimizer_config(self) -> NelderMeadConfig:
        """The Nelder-Mead config from the `nm_*` keys."""
        return NelderMeadConfig(**{f.name: getattr(self, "nm_" + f.name) for f in dataclasses.fields(NelderMeadConfig)})


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def config_from_mapping(mapping: dict) -> RunConfig:
    unknown = set(mapping) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**mapping)


def merge_config(args: argparse.Namespace) -> RunConfig:
    mapping: dict = {}
    if args.config:
        path = Path(args.config)
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        except (OSError, ValueError) as exc:  # missing, a directory, undecodable bytes
            raise ConfigError(f"config file {path} cannot be read ({exc})") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: config must be a flat JSON object")
        mapping.update(loaded)
    # Each flag given overrides its key; `--shots S` and `--precision p`
    # spell the policy key.
    mapping.update(
        (name, value) for name, value in vars(args).items() if name in _CONFIG_FIELDS and value is not None
    )
    for kind in ("shots", "precision"):
        if getattr(args, kind) is not None:
            mapping["policy"] = f"{kind}:{getattr(args, kind)}"
    return config_from_mapping(mapping)


def _fit_selection(labels: list[float], fit_window: tuple[float, float] | None):
    """The fit window (default: the whole scan) and the indices of the labels inside it."""
    window = fit_window or (labels[0], labels[-1])
    return window, [i for i, label in enumerate(labels) if window[0] <= label <= window[1]]


# A 2-qubit exact run at 2046 parameters peaks at 300-400 MB (2100-6000 evaluations), and
# the simplex and its prepared batch grow as the square of the count. UCC needs at most 125.
MAX_PARAMETERS = 2048


def _check_width(n_qubits: int, source: str) -> None:
    if n_qubits > MAX_SPECTRUM_QUBITS:
        raise ConfigError(
            f"{source}: {n_qubits} qubits exceeds the {MAX_SPECTRUM_QUBITS}-qubit limit "
            "of the dense spectrum every run computes"
        )


def load_inputs(
    config: RunConfig,
) -> tuple[PauliHamiltonian | list[ScanPoint], AnsatzSpec | UccAnsatz]:
    """Read and check every input file of a run; writes nothing.

    Returns the Hamiltonian (the scan points in scan mode) and the
    ansatz. Both `validate` and `run` go through here, so a run fails
    on its inputs before it writes any file.
    """
    if config.mode == "scan":
        loaded = load_scan(config.scan)
        _check_width(loaded[0].hamiltonian.n_qubits, config.scan)
        window, selected = _fit_selection([point.label for point in loaded], config.fit_window)
        if len(selected) < MIN_FIT_POINTS:
            raise ConfigError(
                f"fit window [{window[0]:g}, {window[1]:g}] selects {len(selected)} scan "
                f"points; the quadratic fit needs at least {MIN_FIT_POINTS}"
            )
        ansatz = AnsatzSpec(loaded[0].hamiltonian.n_qubits, config.layers)
    elif config.mode == "ucc":
        operator = load_integrals(config.integrals)
        # The Jordan-Wigner image has one qubit per mode.
        _check_width(operator.n_modes, config.integrals)
        try:
            loaded = jordan_wigner(operator)
        except ValueError:  # an imaginary residue: the integrals are not symmetric
            raise FormatError(f"{config.integrals}: integrals produce a non-Hermitian Hamiltonian") from None
        # Checked after mapping, so that terms which all prune away are caught too.
        if not loaded.terms:
            raise FormatError(f"{config.integrals}: integrals produce no Hamiltonian terms")
        try:
            ansatz = UccAnsatz.from_reference(operator.n_modes, config.reference)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        loaded = load_hamiltonian(config.hamiltonian)
        _check_width(loaded.n_qubits, config.hamiltonian)
        ansatz = AnsatzSpec(loaded.n_qubits, config.layers)
    if ansatz.parameter_count > MAX_PARAMETERS:
        raise ConfigError(
            f"{ansatz.parameter_count} ansatz parameters exceed the {MAX_PARAMETERS}-parameter limit; "
            "the optimizer's memory grows as their square"
        )
    return loaded, ansatz


@dataclass(frozen=True)
class Job:
    """One minimization of a run, with the shots each of its evaluations spends per term."""

    label: str
    operator: PauliHamiltonian
    seed: int
    trace: Path  # the trace CSV, relative to the output directory
    term_shots: tuple[int, ...]


def plan_jobs(config: RunConfig, loaded: PauliHamiltonian | list[ScanPoint], policy: ShotPolicy) -> list[Job]:
    """Every minimization of the run, in the order `run` executes them, priced by `shot_budget`.

    A scan runs one job per point and a folded run one per shift, each
    on its own derived seed; vqe and ucc run one job on the run seed.
    A shift so large that (H - lambda)^2 overflows, a precision so fine
    that a term's shots do, an operator whose squared coefficients sum
    past the largest float, or one with no terms (as (H - lambda)^2 is
    when H = lambda) is a config error. A finite sum bounds every energy
    and every estimate's variance.
    """
    try:
        if config.mode == "scan":
            minimizations = [
                (f"R={point.label:g}", point.hamiltonian, derive_seed(config.seed, STREAM_SCAN, index),
                 Path("traces", f"point_{index:02d}.csv"))
                for index, point in enumerate(loaded)
            ]
        elif config.mode == "folded":
            minimizations = [
                (f"lambda={shift:g}", shift_and_square(loaded, shift), derive_seed(config.seed, STREAM_SCAN, index),
                 Path(f"lambda_{index:02d}", "trace.csv"))
                for index, shift in enumerate(config.lambdas)
            ]
        else:
            label = "hamiltonian" if config.mode == "vqe" else "jw-hamiltonian"
            minimizations = [(label, loaded, config.seed, Path("trace.csv"))]
        jobs = []
        for label, operator, seed, trace in minimizations:
            if not operator.terms:
                raise ValueError(f"{label}: the operator has no terms")
            if not math.isfinite(sum(c * c for c, _ in operator.terms)):
                raise ValueError(f"{label}: the squared coefficients sum past the largest float")
            jobs.append(Job(label, operator, seed, trace, shot_budget(operator, policy)))
        return jobs
    except ValueError as exc:
        raise ConfigError(f"the {config.mode} run has no finite operator or shot budget: {exc}") from None


@dataclass(frozen=True)
class RunPlan:
    """One checked run: its inputs, ansatz, policy, optimizer and priced jobs.

    `validate` prints it and `run` executes it, so the budget printed is
    what each evaluation spends.
    """

    config: RunConfig
    loaded: PauliHamiltonian | list[ScanPoint]  # the scan points in scan mode
    ansatz: AnsatzSpec | UccAnsatz
    policy: ShotPolicy
    optimizer: NelderMeadConfig
    jobs: list[Job]

    def lines(self) -> list[str]:
        out = [
            f"mode: {self.config.mode}",
            f"n_qubits: {self.jobs[0].operator.n_qubits}",
            f"parameters: {self.ansatz.parameter_count}",
            f"policy: {self.policy.describe()}",
        ]
        for job in self.jobs:
            out.append(f"{job.label}: {job.operator.term_count} terms, {sum(job.term_shots)} shots/evaluation")
            if job.term_shots and self.policy.mode != "exact":
                out.append("  per-term shots: " + " ".join(str(s) for s in job.term_shots))
        return out


def validate_config(config: RunConfig) -> RunPlan:
    """Dry-run: load and check every input and price every job; the plan `run` executes."""
    loaded, ansatz = load_inputs(config)
    policy = config.shot_policy()
    return RunPlan(config, loaded, ansatz, policy, config.optimizer_config(), plan_jobs(config, loaded, policy))


def _write_trace_csv(path: Path, result: VqeResult) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["j", "energy_estimate", "std_error", "exact_energy", "tangle", "overlap", "restart"]
        )
        for rec in result.trace.records:
            writer.writerow(
                [
                    rec.iteration,
                    repr(rec.energy_estimate),
                    repr(rec.std_error),
                    repr(rec.exact_energy),
                    "" if rec.tangle is None else repr(rec.tangle),
                    repr(rec.overlap),
                    int(rec.restart),
                ]
            )


def _summary_payload(result: VqeResult, config: RunConfig, **extra) -> dict:
    payload = {
        "best_parameters": [float(v) for v in result.best_parameters],
        "best_energy": result.best_energy,
        "evaluations": result.trace.evaluations,
        "restarts": result.trace.restarts,
        "converged": result.converged,
        "reason": result.reason,
        "seed": config.seed,
        "policy": config.policy,
        "mode": config.mode,
    }
    payload.update(extra)
    return payload


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _single_summary(plan: RunPlan, results: list[VqeResult], out: Path) -> dict:
    """vqe and ucc: one summary.json for their one job."""
    config, ansatz, result = plan.config, plan.ansatz, results[0]
    extra = {"exact_ground_energy": result.exact_ground_energy}
    if config.mode == "ucc":
        extra.update(
            reference=config.reference,
            reference_energy=exact_energy(ansatz.reference_state(), plan.loaded),
            excitations=[list(exc) for exc in ansatz.excitations],
        )
    payload = _summary_payload(result, config, **extra)
    _write_json(out / "summary.json", payload)
    return payload


def _best_states(plan: RunPlan, results: list[VqeResult]) -> np.ndarray:
    """The amplitudes of every job's best parameters, prepared as one batch."""
    return plan.ansatz.prepare_batch(np.array([result.best_parameters for result in results]))


def _folded_summary(plan: RunPlan, results: list[VqeResult], out: Path) -> dict:
    """Per shift: the folded objective and the plain <H> of the best state."""
    config = plan.config
    amplitudes = _best_states(plan, results)
    recovered = batch_term_expectations(amplitudes, plan.loaded)
    shifts = []
    for i, (shift, job, result) in enumerate(zip(config.lambdas, plan.jobs, results)):
        folded = batch_term_expectations(amplitudes[i:i + 1], job.operator)[0]
        energies = {
            "folded_energy": _weighted_sum(job.operator, folded),
            "recovered_eigenvalue": _weighted_sum(plan.loaded, recovered[i]),
        }
        sub = out / job.trace.parent
        _write_json(sub / "summary.json", _summary_payload(result, config, shift=shift, **energies))
        shifts.append({"lambda": shift, "directory": sub.name, **energies})
    collective = {"mode": config.mode, "seed": config.seed, "shifts": shifts}
    _write_json(out / "summary.json", collective)
    return collective


def _scan_summary(plan: RunPlan, results: list[VqeResult], out: Path) -> dict:
    """The curve, and a weighted quadratic fit over its window with Monte-Carlo uncertainties.

    Each curve value is re-measured at the point's best parameters with
    the job's own shots and a fresh stream label: the running best of
    noisy evaluations is selection-biased low, a fresh estimate is not.
    """
    config = plan.config
    amplitudes = _best_states(plan, results)
    rows = []  # (R, E_est, E_exact, std_error) per point
    for i, (point, job, result) in enumerate(zip(plan.loaded, plan.jobs, results)):
        measurement = Measurement(job.operator, job.term_shots, job.seed)
        expectations = batch_term_expectations(amplitudes[i:i + 1], job.operator)[0]
        estimate = estimate_energy(expectations, measurement, iteration=result.trace.evaluations)
        rows.append((point.label, estimate.value, result.exact_ground_energy, estimate.std_error))

    with (out / "curve.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["R", "E_est", "E_exact", "std_error"])
        writer.writerows([repr(v) for v in row] for row in rows)

    window, indices = _fit_selection([row[0] for row in rows], config.fit_window)
    selected = [rows[i] for i in indices]
    # Exact-mode scans have zero measurement variance; fall back to
    # equal unit weights so the fit stays defined.
    weighted = all(err > 0 for *_, err in selected)
    fit = fit_quadratic_minimum([(r, e, err * err if weighted else 1.0) for r, e, _, err in selected])
    uncertainty = monte_carlo_minimum_uncertainty(
        fit, config.mc_samples, derived_generator(config.seed, STREAM_MC)
    )
    fit_payload = {
        "coefficients": {"a": fit.a, "b": fit.b, "c": fit.c},
        "covariance": [[float(v) for v in row] for row in fit.covariance],
        "r_min": fit.r_min,
        "e_min": fit.e_min,
        "sigma_r_min": uncertainty.sigma_r_min,
        "sigma_e_min": uncertainty.sigma_e_min,
        "discarded_fraction": uncertainty.discarded_fraction,
        "warning_high_discard": uncertainty.warning,
        "fit_window": list(window),
        "points_used": len(selected),
        "mc_samples": config.mc_samples,
    }
    _write_json(out / "fit.json", fit_payload)
    return fit_payload


def run_config(config: RunConfig) -> dict:
    """Run the plan `validate_config` checks and prices, then write the mode's summary.

    Returns the summary payload (the fit in scan mode). Nothing is
    written until every input has loaded and passed the checks
    `validate` makes.
    """
    if not config.out:
        raise ConfigError("run mode requires an output directory (--out)")
    plan = validate_config(config)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", dataclasses.asdict(config))
    # UCC starts at zero amplitudes: its first evaluation is the reference state.
    x0 = np.zeros(plan.ansatz.parameter_count) if config.mode == "ucc" else None
    jobs = [(job.operator, job.term_shots, job.seed) for job in plan.jobs]
    results, error = run_jobs(plan.ansatz, jobs, plan.optimizer, x0)
    # The jobs before the first that failed leave their traces, as if run one after another.
    for job, result in zip(plan.jobs, results):
        _write_trace_csv(out / job.trace, result)
    if error is not None:
        raise error
    summary = {"folded": _folded_summary, "scan": _scan_summary}.get(config.mode, _single_summary)
    return summary(plan, results, out)


def build_parser() -> argparse.ArgumentParser:
    """`run` and `validate`, each with one `--kebab-case` flag per config key."""
    parser = argparse.ArgumentParser(
        prog="vqesim",
        description="Variational eigensolver experiments on a simulated QPU",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run an experiment and write artifacts"),
        ("validate", "dry-run: parse inputs and report sizes and shot budget"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat JSON config file; flags override its keys")
        policy = p.add_mutually_exclusive_group()
        policy.add_argument("--shots", type=int, help="fixed shots per term")
        policy.add_argument("--precision", type=float, help="target precision p")
        policy.add_argument(
            "--exact", dest="policy", action="store_const", const="exact", help="noiseless estimation (default)"
        )
        for f in dataclasses.fields(RunConfig):
            if f.name == "policy":
                continue
            _, kind, flag_type = _value_type(f)
            if flag_type is number_list:
                kind = "comma-separated finite numbers"
            if f.default not in (None, "", ()):
                kind += f"; default {f.default}"
            flags = ["--" + f.name.replace("_", "-")] + (["--lambda"] if f.name == "lambdas" else [])
            choices = _MODES if f.name == "mode" else None
            p.add_argument(*flags, dest=f.name, type=flag_type, choices=choices, help=kind)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = merge_config(args)
        if args.command == "validate":
            for line in validate_config(config).lines():
                print(line)
        else:
            summary = run_config(config)
            print(json.dumps(summary, indent=2, sort_keys=True))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
