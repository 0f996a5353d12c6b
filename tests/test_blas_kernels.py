"""The shipped outputs are the code's own bits, the same on every BLAS kernel.

A ``DYNAMIC_ARCH`` OpenBLAS picks its CPU kernel at load time, and
``OPENBLAS_CORETYPE`` forces one.  Each kernel orders and fuses the sums
of a matrix product its own way; no value ``gni`` writes may depend on it.
"""
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gni

_CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Each kernel with the CPU flag it needs (``pni`` is SSE3).
_KERNELS = {"Prescott": "pni", "Sandybridge": "avx", "Haswell": "avx2", "SkylakeX": "avx512f"}

# Runs every shipped config (a sweep where it has an h_list) into a
# directory and prints the SHA-256 of each CSV, with a probe of NumPy's
# own products (gemv, transposed gemv and a dot) whose bits show which
# kernel its BLAS used: fused multiply-adds or not, and their order.
_CHILD = r"""
import hashlib, json, os, re, sys
import numpy as np
from gni import cli
configs, out = sys.argv[1:]
digests = {}
for name in sorted(os.listdir(configs)):
    path = os.path.join(configs, name)
    with open(path) as f:
        verb = "sweep" if re.search(r"^h_list\s*=", f.read(), re.M) else "simulate"
    csv = os.path.join(out, name + ".csv")
    assert cli.main([verb, "--config", path, "--out", csv, "--quiet"]) == 0, name
    with open(csv, "rb") as f:
        digests[name] = hashlib.sha256(f.read()).hexdigest()
rng = np.random.default_rng(0)
a, x = rng.standard_normal((200, 200)), rng.standard_normal(200)
probe = hashlib.sha256(np.hstack([a @ x, a.T @ x, x @ x]).tobytes()).hexdigest()
print(json.dumps({"digests": digests, "probe": probe}))
"""


def _dynamic_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    config = blas.get("openblas configuration", "")
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in config


def _runnable_kernels() -> list:
    """The kernels this CPU can run: forcing one it cannot would stop the
    child on an illegal instruction."""
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        flags = set(re.search(r"^flags\s*:(.*)$", cpuinfo, re.M).group(1).split())
    except (OSError, AttributeError):
        return list(_KERNELS)
    return [kernel for kernel, flag in _KERNELS.items() if flag in flags]


@pytest.mark.skipif(not _dynamic_openblas(), reason="NumPy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
def test_shipped_outputs_are_the_same_on_every_openblas_kernel(tmp_path):
    kernels = _runnable_kernels()
    if len(kernels) < 2:
        pytest.skip(f"this CPU runs only the kernels {kernels}")
    env = dict(os.environ, PYTHONPATH=str(Path(gni.__file__).resolve().parents[1]))
    start = time.perf_counter()
    children = {}
    for kernel in kernels:
        out = tmp_path / kernel
        out.mkdir()
        children[kernel] = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(_CONFIGS), str(out)],
            env=dict(env, OPENBLAS_CORETYPE=kernel),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    reports = {}
    for kernel, child in children.items():
        stdout, stderr = child.communicate(timeout=600)
        assert child.returncode == 0, (kernel, stderr)
        reports[kernel] = json.loads(stdout)
    print(f"{len(kernels)} kernels in {time.perf_counter() - start:.1f} s")
    # The variable took effect: NumPy's own products differ on each kernel.
    probes = {kernel: report["probe"] for kernel, report in reports.items()}
    assert len(set(probes.values())) == len(kernels), probes
    first = reports[kernels[0]]["digests"]
    assert len(first) == 8
    for kernel in kernels[1:]:
        assert reports[kernel]["digests"] == first, kernel
