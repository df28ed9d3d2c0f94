"""Bytes that hold across CPU kernels, checked in fresh interpreters.

OpenBLAS reads OPENBLAS_CORETYPE and numpy reads NPY_DISABLE_CPU_FEATURES
once, when they load, so each setting runs in its own child process. The
child hashes two things, and every setting must give the native hashes:

* `prepare` amplitudes for fixed seeded angles, as a batch of one and as
  a batch one row longer than a 10-qubit chunk;
* the energy_estimate, std_error, exact_energy and tangle columns of
  seeded shots:100 and exact `run_vqe` traces at 2 and 8 qubits. Under
  exact, the optimizer reads the exact energy, so a term expectation
  that moved would move the whole path.

The overlap column is left out: it projects onto eigenvectors from a
LAPACK `eigh`, which move under Haswell and Prescott even at 2 qubits.

numpy ignores feature names it does not know (AVX512F and AVX512_SKX
among them), so the child reports which of the named features are still
enabled and the test requires none.
"""

import functools
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
KERNEL_VARIABLES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")

CHILD = """
import hashlib, json, os
import numpy as np
from vqesim import AnsatzSpec, NelderMeadConfig, PauliHamiltonian, ShotPolicy, prepare, run_vqe
from vqesim.statevector import _BATCH_AMPLITUDES

features = np._core._multiarray_umath.__cpu_features__
named = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split(",")
amplitudes = hashlib.sha256()
for n in (1, 2, 8, 10):
    spec = AnsatzSpec(n, 2)
    params = np.random.default_rng(n).uniform(-np.pi, np.pi, spec.parameter_count)
    amplitudes.update(spec.prepare(params).amplitudes.tobytes())
    rows = (_BATCH_AMPLITUDES >> 10) + 1
    batch = np.random.default_rng([n, rows]).uniform(-np.pi, np.pi, (rows, spec.parameter_count))
    amplitudes.update(prepare(spec, batch).tobytes())
columns = hashlib.sha256()
for n, term_count in ((2, 16), (8, 40)):
    rng = np.random.default_rng([n, term_count])
    labels = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(term_count)]
    h = PauliHamiltonian(n, [(float(rng.uniform(-1, 1)), label) for label in labels])
    for policy in ("shots:100", "exact"):
        result = run_vqe(h, AnsatzSpec(n, 1), ShotPolicy.parse(policy), NelderMeadConfig(max_evaluations=80), seed=5)
        for r in result.trace.records:
            columns.update(repr((r.energy_estimate, r.std_error, r.exact_energy, r.tangle)).encode())
print(json.dumps({
    "still_enabled": [f for f in named if features.get(f)],
    "prepare": amplitudes.hexdigest(),
    "run_vqe": columns.hexdigest(),
}))
"""

HOST_FEATURES = np._core._multiarray_umath.__cpu_features__

# (variable, value, the host feature it needs to mean anything)
SETTINGS = [
    ("OPENBLAS_CORETYPE", "Haswell", "AVX2"),
    ("OPENBLAS_CORETYPE", "Prescott", "SSE3"),
    ("NPY_DISABLE_CPU_FEATURES", "X86_V4,AVX512_ICL,AVX512_SPR", "X86_V4"),
    ("NPY_DISABLE_CPU_FEATURES", "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR", "X86_V3"),
]
X86_ONLY = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 kernels")
EACH_SETTING = pytest.mark.parametrize("variable,value,needs", SETTINGS, ids=[value for _, value, _ in SETTINGS])


@functools.cache
def _child_result(variable: str | None = None, value: str | None = None) -> dict:
    """The child's hashes under one kernel setting (none: the native kernel), run once per pytest run."""
    env = {k: v for k, v in os.environ.items() if k not in KERNEL_VARIABLES}
    if variable is not None:
        env[variable] = value
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _changed(variable: str, value: str, needs: str) -> dict:
    if not HOST_FEATURES.get(needs):
        pytest.skip(f"host lacks {needs}")
    changed = _child_result(variable, value)
    assert changed["still_enabled"] == []
    return changed


@X86_ONLY
@EACH_SETTING
def test_prepare_bytes_match_the_native_kernel(variable, value, needs):
    assert _changed(variable, value, needs)["prepare"] == _child_result()["prepare"]


@X86_ONLY
@EACH_SETTING
def test_run_vqe_columns_match_the_native_kernel(variable, value, needs):
    assert _changed(variable, value, needs)["run_vqe"] == _child_result()["run_vqe"]
