"""perfbench's tracer patches dirac1d functions by name (`perfbench/run.py
--trace 1`).  Installing it here makes a renamed target fail the suite.
perfbench/ is only read: it goes on sys.path for this test alone."""

import importlib
import sys
from pathlib import Path

import numpy as np

from dirac1d import SchemeConfig, harness, linalg, make_stepper, preset, reference, stepping

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TARGETS = [
    (harness, "_run_row"),
    (harness, "_run_row_star"),
    (harness, "reference_solution"),
    (harness, "run_simulation"),
    (reference.TSFPStepper, "propagate"),
    (stepping.Stepper, "advance"),
    (linalg.CyclicBlockTridiagSolver, "__init__"),
    (linalg.CyclicBlockTridiagSolver, "solve"),
]


def test_tracer_installs_counts_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    # uninstall puts inherited methods into the subclass dict; undo that too
    inherited = [(owner, attr) for owner, attr in TARGETS if attr not in vars(owner)]
    originals = {(owner, attr): getattr(owner, attr) for owner, attr in TARGETS}
    try:
        tracer.install()
        patched = {(owner, attr) for owner, attr, _ in tracer._patches}
        assert set(TARGETS) <= patched
        problem = preset("periodic-s51", 1.0).discretize(N=16)
        harness.run_simulation(problem, SchemeConfig("cnfd", 0.05, t_final=0.5,
                                                     record="mass"))
        make_stepper("tsfp", problem, 0.05).propagate(3)
        counters = tracer.counters
        assert counters[("steps", "cnfd", 16)] == 10
        assert counters[("factors",)] == 1
        assert counters[("solves", 16)] == 10
        assert counters[("tsfp_steps", "tsfp", 16)] == 3
        assert {span["name"] for span in tracer.spans} == {
            "model.discretize", "model.check_bounds", "harness.run_simulation"}
    finally:
        tracer.uninstall()
        for owner, attr in inherited:
            if attr in vars(owner):
                delattr(owner, attr)
        sys.modules.pop("tracing", None)
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original
    assert np.fft.fft.__module__ == "numpy.fft"
