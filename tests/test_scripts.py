"""Smoke tests: each script in scripts/ runs end to end on tiny settings."""

from conftest import load_script


def test_dissociation_demo(tmp_path, capsys):
    code = load_script("run_dissociation_demo").run(["--out", str(tmp_path), "--points", "5", "--shots", "100"])
    assert code == 0
    assert "fitted R_min" in capsys.readouterr().out
    assert (tmp_path / "results" / "curve.csv").exists()


def test_ucc_demo(tmp_path, capsys):
    code = load_script("run_ucc_demo").run(["--out", str(tmp_path)])
    assert code == 0
    assert "optimized UCCSD energy" in capsys.readouterr().out


def test_noise_comparison(capsys):
    code = load_script("run_noise_comparison").run(["--hamiltonians", "1", "--starts", "1", "--budget", "60"])
    assert code == 0
    assert "totals: Nelder-Mead" in capsys.readouterr().out
