"""Import budget: which modules each entry point loads at import time.

Every check runs in a fresh interpreter and inspects ``sys.modules``
afterwards, never wall time, so the budget is deterministic.  It pins
the cold-start layering described in docs/architecture.md ("Import
cost"): the package surfaces are lazy, the stdlib-only ``obs`` layer
and the linter load no numpy, profiling a saved capture never loads
``scipy.signal``, and the campaign executor does load it before it
forks its workers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Set

import numpy as np
import pytest

from repro import io as repro_io
from repro.emsignal.capture import Capture

SRC = Path(__file__).resolve().parents[1] / "src"

# The capture chain: loaded by recording a capture, never by profiling one.
CAPTURE_CHAIN = ("scipy.signal", "scipy.stats", "repro.emsignal.dsp", "repro.sim.machine")


def loaded_after(code: str, cwd: Path) -> Set[str]:
    """Names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def third_party_numeric(modules: Set[str]) -> Set[str]:
    return {m for m in modules if m.split(".")[0] in ("numpy", "scipy")}


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.emsignal",
        "repro.sim",
        "repro.obs.metrics",
        "repro.obs.cli",
        "repro.devtools.lint",
    ],
)
def test_stdlib_only_surfaces_load_no_numpy(module, tmp_path):
    assert third_party_numeric(loaded_after(f"import {module}", tmp_path)) == set()


@pytest.mark.parametrize("module", ["repro.cli", "repro.core"])
def test_profiling_surfaces_skip_the_capture_chain(module, tmp_path):
    loaded = loaded_after(f"import {module}", tmp_path)
    assert loaded.isdisjoint(CAPTURE_CHAIN), sorted(loaded & set(CAPTURE_CHAIN))


def test_profile_command_runs_without_scipy_signal(tmp_path):
    magnitude = np.ones(4000)
    for start in range(500, 3500, 300):
        magnitude[start : start + 40] = 0.2
    capture_path = tmp_path / "capture.npz"
    repro_io.save_capture(
        capture_path,
        Capture(
            magnitude=magnitude,
            sample_rate_hz=40e6,
            clock_hz=1e9,
            bandwidth_hz=40e6,
        ),
    )
    report_path = tmp_path / "report.json"
    loaded = loaded_after(
        "from repro.cli import main\n"
        f"assert main(['profile', {str(capture_path)!r}, '-o', {str(report_path)!r}]) == 0",
        tmp_path,
    )
    assert repro_io.load_report(report_path).miss_count == 10
    assert "scipy.signal" not in loaded
    assert "repro.core.profiler" in loaded


def test_campaign_loads_scipy_signal_before_forking(tmp_path):
    # Forked campaign workers inherit the parent's modules; a worker
    # that had to import scipy.signal itself would pay for it per pass.
    loaded = loaded_after("import repro.experiments.campaign", tmp_path)
    assert "scipy.signal" in loaded
