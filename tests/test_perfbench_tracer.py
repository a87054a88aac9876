"""perfbench's tracer patches dirac1d functions by name (`perfbench/run.py
--trace 1`).  Installing it here makes a renamed target fail the suite.
perfbench/ is only read: it goes on sys.path for this test alone."""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np

import dirac1d
from dirac1d import (SchemeConfig, harness, linalg, make_stepper, preset, reference, schemes,
                     stepping)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCE = Path(dirac1d.__file__).resolve().parent

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


def _imported_names(path):
    """Every dotted name a source file imports (relative ones without their dots)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


def test_every_scheme_is_defined_outside_the_reference_module():
    # schemes imports nothing from reference; the tracer's
    # reference.TSFPStepper is the scheme class itself, imported by reference
    for module in ("schemes",):
        names = _imported_names(SOURCE / f"{module}.py")
        assert not any("reference" in name.split(".") for name in names), module
    assert reference.TSFPStepper is schemes.TSFPStepper
    assert {cls.__module__ for cls, _ in schemes.SCHEMES.values()} == {"dirac1d.schemes"}
