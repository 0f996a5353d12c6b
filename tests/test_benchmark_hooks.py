"""The names the benchmark's tracer wraps still exist in ``gni``.

``perfbench/tracer.py`` wraps each function named in its ``SPANS`` and
silently skips a name that no longer resolves, so a renamed or removed
function would drop its per-layer metrics from a traced run's result line.
The tracer is loaded by path, as the benchmark loads it, and not changed.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gni.gni_reduced import ChaplyginParams, chaplygin_init, chaplygin_step_stats

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves_to_a_callable(tracer):
    missing = []
    for label in tracer.SPANS:
        module, _, attr = label.partition(".")
        assert module in tracer.MODULES, label
        obj = importlib.import_module(f"gni.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(label)
    assert missing == []


def test_traced_chaplygin_step_stats_counts_its_newton_iterations(tracer):
    params = ChaplyginParams(m=3.0, r=1.0, omega=0.2, i1=1.0, i2=1.1, i3=1.2)
    q0, w0, h = np.array([1.0, 0.0]), np.array([-0.2, 0.0, 0.4]), 0.05
    args = (params, q0, chaplygin_init(params, q0, w0, h), w0, h)
    result = chaplygin_step_stats(*args)
    assert type(result[2]) is int and result[2] > 0
    probe = tracer.Tracer()
    wrapped = probe._chaplygin(chaplygin_step_stats)
    assert wrapped(*args)[2] == result[2]
    assert probe.counts["gni_reduced.chaplygin_step_stats.iters"] == result[2]
