import dataclasses
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqesim import exact_spectrum
from vqesim.cli import (
    MAX_PARAMETERS,
    ConfigError,
    RunConfig,
    build_parser,
    config_from_mapping,
    main,
    merge_config,
    run_config,
    validate_config,
)
from vqesim.formats import load_hamiltonian, write_scan
from vqesim.synthetic import parabola_scan

TWO_QUBIT_FILE = "0.3 II\n-0.6 ZI\n0.4 IZ\n-0.2 ZZ\n0.5 XX\n"


@pytest.fixture
def hamiltonian_file(tmp_path):
    path = tmp_path / "hamiltonian.txt"
    path.write_text(TWO_QUBIT_FILE)
    return path


@pytest.fixture
def scan_file(tmp_path):
    points = parabola_scan(np.linspace(1.0, 5.0, 5), 3.0, 0.05, -1.0, n_qubits=1)
    path = tmp_path / "scan.json"
    write_scan(path, points)
    return path


@pytest.fixture
def integrals_file(tmp_path):
    payload = {
        "n_modes": 4,
        "one_body": [
            [1, 1, -1.8], [2, 2, -1.3], [3, 3, -0.4], [4, 4, -0.2],
            [1, 3, 0.25], [3, 1, 0.25],
        ],
        "two_body": [[1, 2, 2, 1, 0.6], [2, 1, 1, 2, 0.6]],
    }
    path = tmp_path / "integrals.json"
    path.write_text(json.dumps(payload))
    return path


class TestRunConfig:
    def test_seed_mandatory(self, hamiltonian_file):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(mode="vqe", hamiltonian=str(hamiltonian_file))

    def test_mode_required_fields(self):
        with pytest.raises(ConfigError, match="hamiltonian"):
            RunConfig(mode="vqe", seed=1)
        with pytest.raises(ConfigError, match="lambda"):
            RunConfig(mode="folded", seed=1, hamiltonian="h.txt")
        with pytest.raises(ConfigError, match="scan"):
            RunConfig(mode="scan", seed=1)
        with pytest.raises(ConfigError, match="integrals"):
            RunConfig(mode="ucc", seed=1)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_mapping({"mode": "vqe", "seed": 1, "hamiltoniann": "x"})

    def test_bad_policy_rejected(self, hamiltonian_file):
        with pytest.raises(ConfigError):
            RunConfig(mode="vqe", seed=1, hamiltonian=str(hamiltonian_file), policy="shots:0")

    @pytest.mark.parametrize(
        "field,value",
        [("layers", "2"), ("nm_tolerance", "x"), ("seed", 1.7), ("seed", "abc"), ("seed", True)],
    )
    def test_wrong_value_types_rejected(self, hamiltonian_file, field, value):
        with pytest.raises(ConfigError, match=field):
            config_from_mapping(
                {"mode": "vqe", "seed": 1, "hamiltonian": str(hamiltonian_file), field: value}
            )

    def test_numpy_scalars_stored_as_json_numbers(self, hamiltonian_file):
        config = RunConfig(
            mode="vqe", seed=np.uint64(2**64 - 1), hamiltonian=str(hamiltonian_file),
            layers=np.int64(2), nm_tolerance=np.float32(0.5),
        )
        assert (config.seed, config.layers, config.nm_tolerance) == (2**64 - 1, 2, 0.5)
        assert [type(v) for v in (config.seed, config.layers, config.nm_tolerance)] == [int, int, float]
        json.dumps(dataclasses.asdict(config), allow_nan=False)

    def test_fit_window_ordering(self, scan_file):
        with pytest.raises(ConfigError, match="lo < hi"):
            RunConfig(mode="scan", seed=1, scan=str(scan_file), fit_window=(5.0, 1.0))


class TestValidate:
    def test_precision_budget_report(self, hamiltonian_file):
        config = RunConfig(
            mode="vqe", seed=1, hamiltonian=str(hamiltonian_file), policy="precision:0.1"
        )
        plan = validate_config(config)
        assert plan.jobs[0].operator.n_qubits == 2
        assert plan.ansatz.parameter_count == 12
        # ceil(h^2/p^2) per measured term: ZI 36, IZ 16, ZZ 4, XX 25; II is never measured
        assert plan.jobs[0].term_shots == (0, 36, 16, 4, 25)
        assert sum(plan.jobs[0].term_shots) == 81

    def test_unit_coefficient_cost_model(self, tmp_path):
        path = tmp_path / "single.txt"
        path.write_text("1.0 Z\n")
        config = RunConfig(mode="vqe", seed=1, hamiltonian=str(path), policy="precision:0.01")
        assert sum(validate_config(config).jobs[0].term_shots) == 10_000

    def test_budget_bounded_by_max_term(self, hamiltonian_file):
        config = RunConfig(
            mode="vqe", seed=1, hamiltonian=str(hamiltonian_file), policy="precision:0.05"
        )
        plan = validate_config(config)
        h = load_hamiltonian(hamiltonian_file)
        h_max = max(abs(c) for c, _ in h.terms)
        bound = h.term_count * int(np.ceil(h_max * h_max / 0.05**2))
        assert sum(plan.jobs[0].term_shots) <= bound

    def test_scan_reports_per_point(self, scan_file):
        config = RunConfig(mode="scan", seed=1, scan=str(scan_file), policy="shots:100")
        plan = validate_config(config)
        assert len(plan.jobs) == 5
        # I, X and Z per point; the identity term takes no shots.
        assert all(sum(job.term_shots) == 200 for job in plan.jobs)

    def test_ucc_reports_parameters(self, integrals_file):
        config = RunConfig(
            mode="ucc", seed=1, integrals=str(integrals_file), reference="1100"
        )
        plan = validate_config(config)
        assert plan.ansatz.parameter_count == 5
        assert plan.jobs[0].operator.n_qubits == 4


class TestRunModes:
    def test_vqe_artifacts(self, hamiltonian_file, tmp_path):
        out = tmp_path / "out"
        config = RunConfig(
            mode="vqe",
            seed=11,
            hamiltonian=str(hamiltonian_file),
            out=str(out),
            policy="shots:50",
            nm_max_evaluations=120,
        )
        summary = run_config(config)
        assert (out / "trace.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "config.json").exists()
        stored = json.loads((out / "summary.json").read_text())
        assert stored["best_energy"] == summary["best_energy"]
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "j,energy_estimate,std_error,exact_energy,tangle,overlap,restart"

    def test_vqe_exact_reaches_ground(self, hamiltonian_file, tmp_path):
        config = RunConfig(
            mode="vqe",
            seed=12,
            hamiltonian=str(hamiltonian_file),
            out=str(tmp_path / "out"),
            policy="exact",
            nm_max_evaluations=4000,
        )
        summary = run_config(config)
        truth = exact_spectrum(load_hamiltonian(hamiltonian_file)).ground_energy()
        assert summary["best_energy"] == pytest.approx(truth, abs=1e-6)

    def test_byte_identical_reruns(self, hamiltonian_file, tmp_path):
        artifacts = []
        for name in ("a", "b"):
            out = tmp_path / name
            config = RunConfig(
                mode="vqe",
                seed=21,
                hamiltonian=str(hamiltonian_file),
                out=str(out),
                policy="shots:60",
                nm_max_evaluations=90,
            )
            run_config(config)
            artifacts.append((out / "trace.csv").read_bytes())
        assert artifacts[0] == artifacts[1]

    def test_folded_outputs_per_lambda(self, tmp_path):
        path = tmp_path / "diag.txt"
        # diag(-1, 0, 1, 2) as a Pauli sum
        path.write_text("0.5 II\n-1.0 IZ\n-0.5 ZI\n")
        out = tmp_path / "out"
        config = RunConfig(
            mode="folded",
            seed=5,
            hamiltonian=str(path),
            lambdas=(0.1, 1.9),
            out=str(out),
            policy="exact",
            nm_max_evaluations=5000,
        )
        summary = run_config(config)
        assert (out / "lambda_00" / "trace.csv").exists()
        assert (out / "lambda_01" / "summary.json").exists()
        recovered = [entry["recovered_eigenvalue"] for entry in summary["shifts"]]
        assert recovered[0] == pytest.approx(0.0, abs=1e-4)
        assert recovered[1] == pytest.approx(2.0, abs=1e-4)

    def test_scan_curve_and_fit(self, scan_file, tmp_path):
        out = tmp_path / "out"
        config = RunConfig(
            mode="scan",
            seed=9,
            scan=str(scan_file),
            out=str(out),
            policy="shots:200",
            nm_max_evaluations=200,
            nm_stagnation_window=60,
            nm_initial_scale=0.6,
            mc_samples=2000,
        )
        run_config(config)
        lines = (out / "curve.csv").read_text().splitlines()
        assert len(lines) == 6  # header + 5 points
        rows = [line.split(",") for line in lines[1:]]
        labels = [float(r[0]) for r in rows]
        assert labels == sorted(labels)
        for row in rows:
            point_h = [p for p in parabola_scan(np.linspace(1.0, 5.0, 5), 3.0, 0.05, -1.0, n_qubits=1) if p.label == float(row[0])]
            truth = exact_spectrum(point_h[0].hamiltonian).ground_energy()
            assert float(row[2]) == pytest.approx(truth, abs=1e-9)
        fit = json.loads((out / "fit.json").read_text())
        assert "r_min" in fit and "sigma_r_min" in fit
        assert (out / "traces" / "point_00.csv").exists()

    def test_exact_scan_uses_unit_weights(self, scan_file, tmp_path):
        config = RunConfig(
            mode="scan",
            seed=10,
            scan=str(scan_file),
            out=str(tmp_path / "out"),
            policy="exact",
            nm_max_evaluations=1500,
            mc_samples=2000,
        )
        fit = run_config(config)
        assert fit["r_min"] == pytest.approx(3.0, abs=0.2)

    def test_ucc_run(self, integrals_file, tmp_path):
        out = tmp_path / "out"
        config = RunConfig(
            mode="ucc",
            seed=2,
            integrals=str(integrals_file),
            reference="1100",
            out=str(out),
            policy="exact",
            nm_max_evaluations=600,
        )
        summary = run_config(config)
        trace = (out / "trace.csv").read_text().splitlines()
        first_energy = float(trace[1].split(",")[1])
        assert first_energy == pytest.approx(summary["reference_energy"])
        assert summary["best_energy"] <= summary["reference_energy"] + 1e-12


class TestMainEntry:
    def test_validate_exit_zero(self, hamiltonian_file, capsys):
        code = main(
            ["validate", "--mode", "vqe", "--hamiltonian", str(hamiltonian_file), "--seed", "1", "--precision", "0.1"]
        )
        assert code == 0
        assert "shots/evaluation" in capsys.readouterr().out

    def test_missing_seed_is_config_error(self, hamiltonian_file, capsys):
        code = main(["validate", "--mode", "vqe", "--hamiltonian", str(hamiltonian_file)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5 ZI\n0.5 Z\n")
        code = main(["validate", "--mode", "vqe", "--hamiltonian", str(bad), "--seed", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "input error" in err and ":2:" in err

    @pytest.mark.parametrize(
        "seed,code,stream,line",
        [("1", 0, "stdout", "mode: vqe"), ("-1", 2, "stderr", "config error: seed must be an integer")],
    )
    def test_python_dash_m_runs_main(self, hamiltonian_file, seed, code, stream, line):
        """`python -m vqesim` is the same entry point as the installed `vqesim` script."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        args = ["validate", "--mode", "vqe", "--hamiltonian", str(hamiltonian_file), "--seed", seed]
        done = subprocess.run(
            [sys.executable, "-m", "vqesim", *args], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == code, done.stderr
        assert getattr(done, stream).splitlines()[0].startswith(line)

    def test_missing_file_is_input_error(self, tmp_path):
        code = main(
            ["validate", "--mode", "vqe", "--hamiltonian", str(tmp_path / "nope.txt"), "--seed", "1"]
        )
        assert code == 3

    def test_flags_override_config(self, hamiltonian_file, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "mode": "vqe",
                    "hamiltonian": str(hamiltonian_file),
                    "seed": 1,
                    "policy": "shots:5",
                }
            )
        )
        code = main(["validate", "--config", str(config_path), "--precision", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "precision:0.1" in out

    def test_run_writes_artifacts(self, hamiltonian_file, tmp_path, capsys):
        out = tmp_path / "run_out"
        code = main(
            [
                "run",
                "--mode", "vqe",
                "--hamiltonian", str(hamiltonian_file),
                "--seed", "3",
                "--shots", "40",
                "--nm-max-evaluations", "60",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "trace.csv").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seed", "-1", "--exact"],
            ["--seed", "1", "--layers", "0", "--exact"],
            ["--seed", "1", "--exact", "--nm-tolerance", "nan"],
            ["--seed", "1", "--exact", "--nm-max-evaluations", "0"],
            ["--seed", "1", "--exact", "--mc-samples", "500"],
            # Far past MAX_MC_SAMPLES: the draws would need hundreds of TiB.
            ["--seed", "1", "--exact", "--mc-samples", "10000000000000"],
        ],
        ids=["seed", "layers", "nm_tolerance", "nm_max_evaluations", "mc_samples", "mc_samples_above_cap"],
    )
    def test_bad_value_rejected_before_any_write(self, hamiltonian_file, tmp_path, capsys, flags):
        out = tmp_path / "run_out"
        code = main(["run", "--mode", "vqe", "--hamiltonian", str(hamiltonian_file), *flags, "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("seed", [1.7, "abc", True])
    def test_non_integer_seed_in_config_file(self, hamiltonian_file, tmp_path, capsys, seed):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"mode": "vqe", "hamiltonian": str(hamiltonian_file), "seed": seed}))
        out = tmp_path / "run_out"
        code = main(["run", "--config", str(config_path), "--exact", "--out", str(out)])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    # Settings the command line no longer takes, with the values an older config.json holds.
    FIXED_SETTINGS = {
        "bias": 0.0, "nm_reflection": 1.0, "nm_expansion": 2.0, "nm_contraction": 0.5, "nm_shrink": 0.5,
        "gd_fd_step": 0.001, "optimizer": "nelder-mead", "gd_step_size": 0.1, "gd_max_evaluations": 2000,
        "cluster_cap": 2,
    }

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("keys", [[key] for key in FIXED_SETTINGS] + [list(FIXED_SETTINGS)],
                             ids=[*FIXED_SETTINGS, "all"])
    def test_older_config_with_a_fixed_setting_rejected(self, hamiltonian_file, tmp_path, capsys, command, keys):
        config = {"mode": "vqe", "hamiltonian": str(hamiltonian_file), "seed": 1, "policy": "exact"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**config, **{key: self.FIXED_SETTINGS[key] for key in keys}}))
        out = tmp_path / "run_out"
        code = main([command, "--config", str(config_path), "--out", str(out)])
        assert code == 2
        assert f"config error: unknown config keys: {sorted(keys)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, "0.5 ZI\n0.5 Z\n"], ids=["missing", "malformed"])
    def test_bad_input_file_rejected_before_any_write(self, tmp_path, capsys, content):
        path = tmp_path / "h.txt"
        if content is not None:
            path.write_text(content)
        out = tmp_path / "run_out"
        code = main(["run", "--mode", "vqe", "--hamiltonian", str(path), "--seed", "1", "--exact", "--out", str(out)])
        assert code == 3
        assert "input error" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_fit_window_with_too_few_points(self, scan_file, tmp_path, capsys, command):
        out = tmp_path / "run_out"
        # The scan has R = 1, 2, 3, 4, 5; this window holds only 2, 3 and 4.
        code = main(
            [command, "--mode", "scan", "--scan", str(scan_file), "--seed", "1", "--shots", "50", "--fit-window", "1.5,4.5", "--out", str(out)]
        )
        assert code == 2
        assert "fit window" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--reference", "110"], ["--reference", "11x0"]],
        ids=["length", "character"],
    )
    def test_bad_ucc_ansatz_is_config_error(self, integrals_file, tmp_path, capsys, flags):
        out = tmp_path / "run_out"
        code = main(["run", "--mode", "ucc", "--integrals", str(integrals_file), "--seed", "1", *flags, "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("reference", ["00", "11"])
    def test_ucc_reference_with_no_excitation_is_config_error(self, tmp_path, capsys, command, reference):
        path = tmp_path / "integrals.json"
        path.write_text(json.dumps({"n_modes": 2, "one_body": [[1, 1, -1.0], [2, 2, -0.5]]}))
        out = tmp_path / "run_out"
        code = main(
            [command, "--mode", "ucc", "--integrals", str(path), "--reference", reference, "--shots", "100",
             "--nm-tolerance", "0", "--seed", "1", "--out", str(out)]
        )
        assert code == 2
        assert f"config error: no excitation out of reference '{reference}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("mode", ["vqe", "scan", "ucc"])
    def test_input_wider_than_spectrum_limit(self, tmp_path, capsys, mode, command):
        # One qubit (mode) past MAX_SPECTRUM_QUBITS.
        wide = tmp_path / "wide"
        if mode == "vqe":
            wide.write_text("0.5 ZIIIIIIIIII\n0.25 XXIIIIIIIII\n")
            flags = ["--hamiltonian", str(wide)]
        elif mode == "scan":
            wide.write_text(json.dumps([{"R": r, "terms": [[0.5, "Z" + "I" * 10]]} for r in range(1, 6)]))
            flags = ["--scan", str(wide)]
        else:
            wide.write_text(json.dumps({"n_modes": 11, "one_body": [[1, 1, -1.0], [2, 2, -0.5]]}))
            flags = ["--integrals", str(wide), "--reference", "1" + "0" * 10]
        out = tmp_path / "run_out"
        code = main([command, "--mode", mode, *flags, "--seed", "1", "--exact", "--out", str(out)])
        assert code == 2
        assert "10-qubit limit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "key,value", [("nm_tolerance", "abc"), ("policy", 5), ("lambdas", "abc")]
    )
    def test_wrong_value_type_in_config_file(self, hamiltonian_file, tmp_path, capsys, command, key, value):
        config_path = tmp_path / "config.json"
        base = {"mode": "folded", "hamiltonian": str(hamiltonian_file), "seed": 1, "lambdas": [0.5]}
        config_path.write_text(json.dumps({**base, key: value}))
        out = tmp_path / "run_out"
        code = main([command, "--config", str(config_path), "--out", str(out)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--mode", "folded", "--lambda", "1e200", "--exact"], "no finite operator or shot budget"),
            (["--mode", "vqe", "--precision", "1e-300"], "no finite operator or shot budget"),
            # Past the 64-bit shot count numpy can draw: fixed, and from h^2/p^2 (3.6e19 for the -0.6 term).
            (["--mode", "vqe", "--shots", "99999999999999999999"], "2**63 - 1"),
            (["--mode", "vqe", "--precision", "1e-10"], "2**63 - 1"),
        ],
        ids=["lambda", "precision", "shots-int64", "precision-int64"],
    )
    def test_non_finite_budget_is_config_error(self, hamiltonian_file, tmp_path, capsys, command, flags, message):
        out = tmp_path / "run_out"
        code = main([command, *flags, "--hamiltonian", str(hamiltonian_file), "--seed", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("policy", ["shots:1e3", "precision:abc"])
    def test_unreadable_policy_names_the_forms(self, hamiltonian_file, tmp_path, capsys, command, policy):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"mode": "vqe", "hamiltonian": str(hamiltonian_file), "seed": 1, "policy": policy}))
        out = tmp_path / "run_out"
        code = main([command, "--config", str(config_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and repr(policy) in err
        assert all(form in err for form in ("exact", "shots:<integer>", "precision:<number>"))
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "undecodable":
            path.write_bytes(b"\xff\xfe")
        code = main(["validate", "--config", str(path)])
        assert code == 2
        assert "cannot be read" in capsys.readouterr().err

    def test_unreadable_input_is_input_error(self, tmp_path, capsys):
        # A directory where a file belongs: an input error, not an execution failure.
        out = tmp_path / "run_out"
        code = main(["run", "--mode", "vqe", "--hamiltonian", str(tmp_path), "--seed", "1", "--exact", "--out", str(out)])
        assert code == 3
        assert "input error" in capsys.readouterr().err
        assert not out.exists()

    def test_run_without_out_is_config_error(self, hamiltonian_file, capsys):
        code = main(["run", "--mode", "vqe", "--hamiltonian", str(hamiltonian_file), "--seed", "1", "--exact"])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_unwritable_output_is_reported(self, hamiltonian_file, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = main(
            [
                "run",
                "--mode", "vqe",
                "--hamiltonian", str(hamiltonian_file),
                "--seed", "3",
                "--exact",
                "--nm-max-evaluations", "40",
                "--out", str(blocker / "sub"),
            ]
        )
        assert code == 4
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "text,policy",
        [
            # Each coefficient is finite, but 1.7e308 * (1 + <ZI>) overflows the energy.
            ("1.7e308 II\n1.7e308 ZI\n", ["--exact"]),
            # (1e200)^2 overflows the estimate's variance.
            ("1e200 ZI\n0.5 XX\n", ["--shots", "100"]),
        ],
        ids=["energy", "variance"],
    )
    def test_overflowing_coefficients_are_config_error(self, tmp_path, capsys, command, text, policy):
        path = tmp_path / "h.txt"
        path.write_text(text)
        out = tmp_path / "run_out"
        code = main([command, "--mode", "vqe", "--hamiltonian", str(path), *policy, "--seed", "1",
                     "--nm-max-evaluations", "5", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "squared coefficients sum past the largest float" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_folded_operator_with_no_terms_is_config_error(self, tmp_path, capsys, command):
        # (I - 1)^2 is zero, so the folded job would minimize an operator with no terms.
        path = tmp_path / "h.txt"
        path.write_text("1.0 II\n")
        out = tmp_path / "run_out"
        code = main([command, "--mode", "folded", "--hamiltonian", str(path), "--lambda=1.0", "--seed", "1",
                     "--nm-max-evaluations", "5", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "lambda=1: the operator has no terms" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("coefficient", ["nan", "inf", "1e400"])
    def test_non_finite_coefficient_is_input_error(self, tmp_path, capsys, command, coefficient):
        path = tmp_path / "h.txt"
        path.write_text(f"0.3 II\n{coefficient} ZI\n")
        out = tmp_path / "run_out"
        code = main([command, "--mode", "vqe", "--hamiltonian", str(path), "--seed", "1", "--exact", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "input error" in err and f"{path}:2: bad coefficient" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("r_value", [math.inf, math.nan], ids=["Infinity", "NaN"])
    def test_non_finite_scan_r_is_input_error(self, tmp_path, capsys, command, r_value):
        path = tmp_path / "scan.json"
        # json.dumps spells these Infinity and NaN, which json.loads accepts.
        path.write_text(json.dumps([{"R": r, "terms": [[0.5, "Z"]]} for r in (1, 2, 3, 4, r_value)]))
        out = tmp_path / "run_out"
        code = main([command, "--mode", "scan", "--scan", str(path), "--seed", "1", "--exact", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "input error" in err and f"{path}[4]: bad R value" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "point,value,message",
        [
            ("R", True, "[0]: bad R value True"),
            ("R", "2.5", "[0]: bad R value '2.5'"),
            ("coefficient", True, "[0]: bad coefficient True"),
            ("coefficient", "2.5", "[0]: bad coefficient '2.5'"),
        ],
        ids=["R-true", "R-string", "coefficient-true", "coefficient-string"],
    )
    def test_scan_value_must_be_a_json_number(self, tmp_path, capsys, command, point, value, message):
        points = [{"R": r, "terms": [[0.5, "Z"]]} for r in (0.5, 2, 3, 4, 5)]
        if point == "R":
            points[0]["R"] = value
        else:
            points[0]["terms"] = [[value, "Z"]]
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(points))
        out = tmp_path / "run_out"
        code = main([command, "--mode", "scan", "--scan", str(path), "--seed", "1", "--exact", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "input error" in err and f"{path}{message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("n_modes", 4.9, "n_modes is 4.9"),
            ("n_modes", True, "n_modes is True"),
            ("one_body", [[1.7, True, "0.5"]], "one_body[0] is [1.7, True, '0.5']"),
            ("one_body", [[1, 1, True]], "one_body[0] is [1, 1, True]"),
            ("two_body", [[2, 1, 1, 2.9, False]], "two_body[0] is [2, 1, 1, 2.9, False]"),
        ],
        ids=["n_modes-float", "n_modes-true", "one_body-mixed", "one_body-value-true", "two_body-float-index"],
    )
    def test_integrals_must_be_json_numbers(self, tmp_path, capsys, command, key, value, message):
        payload = {"n_modes": 4, "one_body": [[1, 1, -1.8], [2, 2, -1.3]], "two_body": [[1, 2, 2, 1, 0.6]]}
        payload[key] = value
        path = tmp_path / "integrals.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "run_out"
        code = main(
            [command, "--mode", "ucc", "--integrals", str(path), "--reference", "1100", "--seed", "1", "--exact",
             "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "input error" in err and f"{path}: {message}" in err
        assert not out.exists()


    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "terms,message",
        [
            ([[]] * 5, "[0]: no Hamiltonian terms found"),
            # An empty point among 2-qubit ones used to be read as one qubit wide.
            ([[[0.5, "ZZ"]], [], [[0.5, "ZZ"]], [[0.5, "ZZ"]], [[0.5, "ZZ"]]], "[1]: no Hamiltonian terms found"),
        ],
        ids=["every-point", "one-point"],
    )
    def test_scan_point_without_terms_is_input_error(self, tmp_path, capsys, command, terms, message):
        path = tmp_path / "scan.json"
        path.write_text(json.dumps([{"R": r, "terms": t} for r, t in zip((1, 2, 3, 4, 5), terms)]))
        out = tmp_path / "run_out"
        code = main([command, "--mode", "scan", "--scan", str(path), "--seed", "1", "--exact", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "input error" in err and f"{path}{message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "payload,reference,message",
        [
            ({"n_modes": 4}, "1100", "integrals produce no Hamiltonian terms"),
            # Every coefficient of the image falls below pauli.PRUNE.
            ({"n_modes": 4, "one_body": [[1, 1, 1e-13]]}, "1100", "integrals produce no Hamiltonian terms"),
            # h_12 without h_21: the image keeps an imaginary weight.
            ({"n_modes": 2, "one_body": [[1, 1, -1.0], [1, 2, 0.3]]}, "10", "integrals produce a non-Hermitian Hamiltonian"),
        ],
        ids=["no-entries", "pruned-away", "asymmetric"],
    )
    def test_integrals_without_a_hermitian_image_are_input_error(
        self, tmp_path, capsys, command, payload, reference, message
    ):
        path = tmp_path / "integrals.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "run_out"
        code = main(
            [command, "--mode", "ucc", "--integrals", str(path), "--reference", reference, "--seed", "1", "--exact",
             "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "input error" in err and f"{path}: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "mode,layers,count",
        [("vqe", 341, 2052), ("vqe", 10**9, 6000000006), ("folded", 341, 2052), ("scan", 682, 2049)],
        ids=["vqe", "vqe-huge", "folded", "scan"],
    )
    def test_parameters_past_the_cap_are_config_error(
        self, hamiltonian_file, scan_file, tmp_path, capsys, command, mode, layers, count
    ):
        # 3 * qubits * (layers + 1) parameters: 2 qubits in the Hamiltonian file, 1 per scan point.
        inputs = {
            "vqe": ["--hamiltonian", str(hamiltonian_file)],
            "folded": ["--hamiltonian", str(hamiltonian_file), "--lambda=0.5"],
            "scan": ["--scan", str(scan_file)],
        }[mode]
        out = tmp_path / "run_out"
        code = main([command, "--mode", mode, *inputs, "--layers", str(layers), "--exact", "--seed", "1", "--out", str(out)])
        assert code == 2
        message = f"config error: {count} ansatz parameters exceed the {MAX_PARAMETERS}-parameter limit"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_parameters_at_the_cap_validate(self, hamiltonian_file, capsys):
        # 2046 = 3 * 2 * (340 + 1), the largest 2-qubit count within the cap.
        assert MAX_PARAMETERS == 2048
        code = main(["validate", "--mode", "vqe", "--hamiltonian", str(hamiltonian_file), "--layers", "340",
                     "--exact", "--seed", "1"])
        assert code == 0
        assert "parameters: 2046" in capsys.readouterr().out


class TestJobList:
    """`validate` budgets the minimizations that `run` executes, one by one."""

    @pytest.mark.parametrize("mode", ["vqe", "ucc", "folded", "scan"])
    def test_one_budget_entry_per_trace_file(self, hamiltonian_file, scan_file, integrals_file, tmp_path, mode):
        out = tmp_path / "out"
        # A 5-point shots:50 scan fits a non-convex parabola on about a
        # quarter of seeds (exit 4, no minimum); the noiseless scan always
        # fits, so this case does not hang on the shot draw.
        policy = "exact" if mode == "scan" else "shots:50"
        config = RunConfig(
            mode=mode, seed=3, out=str(out), policy=policy, nm_max_evaluations=30, mc_samples=2000,
            hamiltonian=str(hamiltonian_file), scan=str(scan_file), integrals=str(integrals_file),
            reference="1100", lambdas=(-0.5, 0.7),
        )
        labels = [job.label for job in validate_config(config).jobs]
        summary = run_config(config)
        traces = sorted(path for path in out.rglob("*.csv") if path.name != "curve.csv")
        # Each trace names its minimization the way the budget does.
        if mode == "scan":
            rows = [line.split(",") for line in (out / "curve.csv").read_text().splitlines()[1:]]
            expected = [f"R={float(row[0]):g}" for row in rows]
            assert [path.relative_to(out).as_posix() for path in traces] == [
                f"traces/point_{i:02d}.csv" for i in range(len(rows))
            ]
        elif mode == "folded":
            expected = [f"lambda={entry['lambda']:g}" for entry in summary["shifts"]]
            assert [path.relative_to(out).as_posix() for path in traces] == [
                f"{entry['directory']}/trace.csv" for entry in summary["shifts"]
            ]
        else:
            expected = ["hamiltonian" if mode == "vqe" else "jw-hamiltonian"]
            assert traces == [out / "trace.csv"]
        assert labels == expected

    @pytest.mark.parametrize("policy", ["shots:50", "precision:0.1"])
    @pytest.mark.parametrize("mode", ["vqe", "ucc", "folded", "scan"])
    def test_budget_is_what_the_run_spends(
        self, hamiltonian_file, scan_file, integrals_file, tmp_path, monkeypatch, mode, policy
    ):
        import vqesim.cli
        import vqesim.driver

        original = vqesim.driver.estimate_energy
        calls = []

        def recording(state, hamiltonian, *args, **kwargs):
            estimate = original(state, hamiltonian, *args, **kwargs)
            calls.append((hamiltonian, estimate))
            return estimate

        # The optimizer's evaluations, and the scan curve's fresh estimates.
        monkeypatch.setattr(vqesim.driver, "estimate_energy", recording)
        monkeypatch.setattr(vqesim.cli, "estimate_energy", recording)
        out = tmp_path / "out"
        config = RunConfig(
            mode=mode, seed=3, out=str(out), policy=policy, nm_max_evaluations=30, mc_samples=2000,
            hamiltonian=str(hamiltonian_file), scan=str(scan_file), integrals=str(integrals_file),
            reference="1100", lambdas=(-0.5, 0.7),
        )
        plan = validate_config(config)
        # Every input holds an identity term, which is never measured.
        assert all(any(p.is_identity for _, p in job.operator.terms) for job in plan.jobs)
        try:
            run_config(config)
        except ValueError as exc:
            # A noisy 5-point scan may fit a non-convex parabola and exit with
            # no minimum; every estimate was recorded before the fit ran.
            assert mode == "scan" and "not convex" in str(exc)
        traces = [path for path in out.rglob("*.csv") if path.name != "curve.csv"]
        evaluations = sum(len(path.read_text().splitlines()) - 1 for path in traces)
        assert len(calls) == evaluations + (len(plan.jobs) if mode == "scan" else 0)
        # The operators measured, in first-use order, are the plan's jobs in order.
        operators = list({id(h): h for h, _ in calls}.values())
        assert [h.terms for h in operators] == [job.operator.terms for job in plan.jobs]
        job_of = {id(h): job for h, job in zip(operators, plan.jobs)}
        for hamiltonian, estimate in calls:
            job = job_of[id(hamiltonian)]
            assert estimate.term_shots == job.term_shots
            assert estimate.total_shots == sum(job.term_shots) > 0

    def test_folded_run_squares_each_shift_once(self, hamiltonian_file, tmp_path, monkeypatch):
        import vqesim.pauli

        original = vqesim.pauli.shift_and_square
        shifts = []

        def counting(hamiltonian, shift):
            shifts.append(shift)
            return original(hamiltonian, shift)

        # Every module that holds the function, under any name.
        for name, module in list(sys.modules.items()):
            if name == "vqesim" or name.startswith("vqesim."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        config = RunConfig(
            mode="folded", seed=4, out=str(tmp_path / "out"), hamiltonian=str(hamiltonian_file),
            lambdas=(-0.5, 0.7), policy="exact", nm_max_evaluations=20,
        )
        run_config(config)
        assert shifts == [-0.5, 0.7]


# Strings a config plausibly holds, next to arbitrary short text.
_WORDS = ["", "exact", "shots:100", "shots:0", "precision:0.1", "precision:nan", "precision:1e-300", "vqe", "folded",
          "scan", "ucc", "1100", "11x0", "h.txt", "scan.json", "integrals.json", "."]
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(_WORDS) | st.text(max_size=6)
_VALUES = _SCALARS | st.lists(_SCALARS, max_size=3)
_KEYS = sorted(f.name for f in dataclasses.fields(RunConfig))
# Every flag the parser derives from a config key, plus the policy flags and the
# `--lambda` alias; `--out` is set by the test, so that `run` writes only there.
_FLAG_NAMES = sorted(
    ["--" + f.name.replace("_", "-") for f in dataclasses.fields(RunConfig) if f.name not in ("policy", "out")]
    + ["--lambda", "--shots", "--precision"]
)
_FLAG_TEXT = (
    st.sampled_from(_WORDS)
    | st.text(max_size=6)
    | st.integers().map(str)
    | st.floats().map(repr)
    | st.lists(st.floats(), min_size=1, max_size=3).map(lambda vs: ",".join(map(repr, vs)))
)
# The `=` form, so a value that starts with "-" stays a value.
_FLAGS = st.just("--exact") | st.builds(lambda name, text: f"{name}={text}", st.sampled_from(_FLAG_NAMES), _FLAG_TEXT)


class TestConfigFuzz:
    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        (root / "h.txt").write_text(TWO_QUBIT_FILE)
        write_scan(root / "scan.json", parabola_scan(np.linspace(1.0, 5.0, 5), 3.0, 0.05, -1.0, n_qubits=1))
        (root / "integrals.json").write_text(
            json.dumps({"n_modes": 4, "one_body": [[1, 1, -1.8], [2, 2, -1.3], [3, 3, -0.4]]})
        )
        return root

    @staticmethod
    def _config_file(inputs, overrides):
        """A valid config for every mode, with some keys replaced."""
        base = {
            "mode": "vqe", "seed": 1, "policy": "shots:100", "lambdas": [0.5, -0.5],
            "hamiltonian": str(inputs / "h.txt"), "scan": str(inputs / "scan.json"),
            "integrals": str(inputs / "integrals.json"), "reference": "1100",
        }
        config_path = inputs / "config.json"
        config_path.write_text(json.dumps({**base, **overrides}))
        return config_path

    @given(st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_validate_reports_config_mistakes_as_exit_2(self, inputs, overrides):
        config_path = self._config_file(inputs, overrides)
        code = main(["validate", "--config", str(config_path)])
        assert code in (0, 2, 3)

    @given(
        st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=2),
        st.lists(_FLAGS, max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_flags_fail_alike_under_both_verbs(self, inputs, overrides, flags):
        out = inputs / "out"
        shutil.rmtree(out, ignore_errors=True)  # left by an earlier failing example
        argv = ["--config", str(self._config_file(inputs, overrides)), f"--out={out}", *flags]
        try:
            code = main(["validate", *argv])
        except SystemExit as exc:  # argparse refused a flag
            assert exc.code == 2
            return
        assert code in (0, 2, 3)
        if code:
            # A config that fails validation fails the run the same way, before any write.
            assert main(["run", *argv]) == code
            assert not out.exists()


# A valid value for every config key but the policy, which has its own flags.
_KEY_VALUES = {
    "mode": "scan", "seed": 12345, "out": "out/dir", "hamiltonian": "other.txt", "scan": "other.json",
    "integrals": "other-integrals.json", "layers": 3, "lambdas": [-0.9, 0.4, 1.8],
    "fit_window": [84.0, 100.0], "reference": "0011", "mc_samples": 5000, "nm_initial_scale": 0.6,
    "nm_tolerance": 1e-8, "nm_stagnation_window": 60, "nm_restart_limit": 3, "nm_max_evaluations": 500,
}


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig) if f.name != "policy"])
def test_flag_and_config_key_give_the_same_config(tmp_path, key):
    base = {
        "mode": "vqe", "seed": 1, "hamiltonian": "h.txt", "scan": "s.json",
        "integrals": "i.json", "reference": "1100", "lambdas": [0.5],
    }
    value = _KEY_VALUES[key]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base))
    text = ",".join(map(repr, value)) if isinstance(value, list) else str(value)
    from_flag = merge_config(
        build_parser().parse_args(["validate", "--config", str(config_path), f"--{key.replace('_', '-')}={text}"])
    )
    from_key = config_from_mapping({**base, key: value})
    assert from_flag == from_key
    assert from_key != config_from_mapping(base)


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    joined = block.replace("\\\n", " ")  # continuation lines
    commands = [shlex.split(line)[1:] for line in joined.splitlines() if line.startswith("vqesim ")]
    assert len(commands) >= 5
    for argv in commands:
        merge_config(build_parser().parse_args(argv))
