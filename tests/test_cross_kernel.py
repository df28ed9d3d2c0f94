"""Bytes that hold across CPU kernels, checked in fresh interpreters.

OpenBLAS reads OPENBLAS_CORETYPE and numpy reads NPY_DISABLE_CPU_FEATURES
once, when they load, so each setting runs in its own child process. The
child hashes `prepare` amplitudes for fixed seeded angles, as a batch of
one and as a batch one row longer than a 10-qubit chunk; every setting
must give the same hash. numpy ignores feature names it does not know
(AVX512F and AVX512_SKX among them), so the child reports which of the
named features are still enabled and the test requires none.
"""

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
from vqesim import AnsatzSpec, prepare
from vqesim.statevector import _BATCH_AMPLITUDES

features = np._core._multiarray_umath.__cpu_features__
named = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split(",")
digest = hashlib.sha256()
for n in (1, 2, 8, 10):
    spec = AnsatzSpec(n, 2)
    params = np.random.default_rng(n).uniform(-np.pi, np.pi, spec.parameter_count)
    digest.update(spec.prepare(params).amplitudes.tobytes())
    rows = (_BATCH_AMPLITUDES >> 10) + 1
    batch = np.random.default_rng([n, rows]).uniform(-np.pi, np.pi, (rows, spec.parameter_count))
    for state in prepare(spec, batch):
        digest.update(state.amplitudes.tobytes())
print(json.dumps({"still_enabled": [f for f in named if features.get(f)], "sha256": digest.hexdigest()}))
"""

HOST_FEATURES = np._core._multiarray_umath.__cpu_features__

# (setting, the host feature it needs to mean anything)
SETTINGS = [
    ({"OPENBLAS_CORETYPE": "Haswell"}, "AVX2"),
    ({"OPENBLAS_CORETYPE": "Prescott"}, "SSE3"),
    ({"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}, "X86_V4"),
    ({"NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"}, "X86_V3"),
]


def _child_result(setting: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in KERNEL_VARIABLES}
    env.update(setting)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def native_sha256() -> str:
    return _child_result({})["sha256"]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 kernels")
@pytest.mark.parametrize("setting,needs", SETTINGS, ids=[next(iter(s.values())) for s, _ in SETTINGS])
def test_prepare_bytes_match_the_native_kernel(setting, needs, native_sha256):
    if not HOST_FEATURES.get(needs):
        pytest.skip(f"host lacks {needs}")
    changed = _child_result(setting)
    assert changed["still_enabled"] == []
    assert changed["sha256"] == native_sha256
