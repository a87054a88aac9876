"""The fast demo scripts run to completion, each in its own interpreter;
spatial_resolution.py's CSV reads the paper's resolution claim.

convergence_table.py (about 7 s) and wavepacket_expanding_domain.py (about
a minute) are left out for their run time."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dirac1d

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = str(Path(dirac1d.__file__).resolve().parent.parent)


def run_demo(script, tmp_path):
    # in a scratch directory, so that a demo's output file lands there
    done = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("script", ["conservation.py", "error_growth_over_time.py",
                                    "spectral_vs_stencil.py", "stability_boundaries.py",
                                    "tsfp_resonance.py"])
def test_demo_exits_0(script, tmp_path):
    run_demo(script, tmp_path)


def test_spatial_resolution_csv(tmp_path):
    run_demo("spatial_resolution.py", tmp_path)
    with open(tmp_path / "spatial_resolution.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))

    def n_min(space, tol):
        return [row["N_min"] for row in rows if row["space"] == space and row["tol"] == tol]

    assert n_min("FD", "0.1") == ["64", "64", "128", "256"]
    assert n_min("FD", "0.0001") == [""] * 4
    assert n_min("FP", "0.0001") == ["32"] * 6
    assert all(float(row["e_phi"]) <= float(row["tol"]) for row in rows if row["N_min"])
