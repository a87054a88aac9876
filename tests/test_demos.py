"""The fast demo scripts run to completion, each in its own interpreter.

convergence_table.py (about 7 s) and wavepacket_expanding_domain.py (about
a minute) are left out for their run time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dirac1d

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = str(Path(dirac1d.__file__).resolve().parent.parent)


@pytest.mark.parametrize("script", ["conservation.py", "error_growth_over_time.py",
                                    "spectral_vs_stencil.py", "stability_boundaries.py",
                                    "tsfp_resonance.py"])
def test_demo_exits_0(script, tmp_path):
    # in a scratch directory, so that a demo's output file lands there
    done = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
