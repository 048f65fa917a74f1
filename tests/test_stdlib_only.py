"""The library runs on the standard library alone.

``pyproject.toml`` declares no dependencies, so the package must import
and simulate with site-packages switched off (``python -S``): no numpy,
no SciPy, nothing installed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

# Imports every module (repro.experiments, repro.service, repro.snapshot
# included), then runs a small exp7 replay and a fit.
CODE = """
import importlib, pkgutil
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith(".__main__"):
        importlib.import_module(module.name)
from repro.analysis import linear_fit
from repro.snapshot import run_experiment
point = run_experiment("exp7", max_jobs=20)
fit = linear_fit([1, 2, 3, 4], [2, 3, 5, 6])
print(repr(point.makespan), repr(fit.slope))
"""


def test_library_runs_without_site_packages():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-S", "-c", CODE], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    makespan, slope = (float(value) for value in out.stdout.split())
    assert makespan > 0
    assert slope == pytest.approx(1.4, rel=1e-12)
