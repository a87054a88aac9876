"""Show that every correctness check accepts right output and rejects wrong.

    python3 perfbench/selftest.py

Run from the repository root.  It runs each workload's job once (about a
minute on 2 cores), checks its real output, then feeds each check a wrong
answer made from that output and requires a rejection.  It also checks the
eigh solver itself against dirac1d's exact free flow.  Exit code 0 when
every check behaves; src/ is not touched.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from dirac1d import (DiracProblem, SchemeConfig, free_dirac_exact, harness,  # noqa: E402
                     load_reference, preset, save_reference)
from oracle import SemiDiscreteFlow, l2_distance  # noqa: E402
from workloads import EPS_ROWS, WORKLOADS, space_of  # noqa: E402

warnings.filterwarnings("ignore", message="grid has only")
OUTCOMES = []


def expect(check, accept: bool, what: str):
    good = check.ok == accept
    OUTCOMES.append(good)
    verdict = "accepts" if check.ok else "rejects"
    print(f"{'PASS' if good else 'FAIL'} {check.name} {verdict} {what}: {check.detail}")


def oracle_vs_free_flow():
    problem = preset("periodic-s51", 1.0).discretize(N=64)
    free = DiracProblem(problem.grid, 0.0, problem.potentials, problem.phi0)
    d = l2_distance(SemiDiscreteFlow(free, "fp").at(3.0),
                    free_dirac_exact(problem.phi0, 3.0).values, problem.grid.h)
    ok = d <= 1e-12
    OUTCOMES.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} eigh solver matches the exact free flow at eps = 0: {d:.2e}")


def sweep():
    w = WORKLOADS["sweep-fd-vs-fp"]
    tables = w.run(w.prepare(None))
    fd, fp = tables["lffd"].errors("e_phi"), tables["lffp"].errors("e_phi")
    expect(checks.superalgebraic_drop(fp, EPS_ROWS), True, "the lffp table")
    expect(checks.superalgebraic_drop(fd, EPS_ROWS), False, "the lffd table in its place")
    expect(checks.stencil_error_grows(fd, EPS_ROWS), True, "the lffd table")
    expect(checks.stencil_error_grows(fd[::-1], EPS_ROWS), False,
           "the lffd rows in reverse eps order")
    expect(checks.spectral_beats_stencil(fd, fp), True, "lffd vs lffp")
    expect(checks.spectral_beats_stencil(fd, fd), False, "lffd against itself")


def converge(workdir):
    w = WORKLOADS["converge-cnfd"]
    inputs = w.prepare(workdir)
    output = w.run(inputs)
    e = w.matrix(output["rows"], "e_phi")
    orders = w.matrix(output["rows"], "order_phi")
    expect(checks.refinement_orders(orders, EPS_ROWS), True, "the CSV orders")
    first_order = e[:, :1] / 2.0 ** np.arange(w.levels)  # the same table made first order
    with np.errstate(divide="ignore", invalid="ignore"):
        wrong = np.log2(first_order[:, :-1] / first_order[:, 1:])
    expect(checks.refinement_orders(np.hstack([orders[:, :1], wrong]), EPS_ROWS), False,
           "the table made first order")

    expect(checks.reference_matches_oracle(w.reference_distances(inputs["cache"])), True,
           "the cached references")
    bad = os.path.join(workdir, "perturbed")
    os.makedirs(bad)
    for name in sorted(os.listdir(inputs["cache"])):
        if name.endswith(".dref"):
            ref = load_reference(os.path.join(inputs["cache"], name))
            t = ref.times[-1]
            ref.fields[t].values[0, 0] += 1e-5  # one node of one snapshot
            save_reference(os.path.join(bad, name), ref)
            break
    expect(checks.reference_matches_oracle(w.reference_distances(bad)), False,
           "a reference with one node perturbed by 1e-5")


def run_all():
    w = WORKLOADS["run-all-schemes"]
    inputs = w.prepare(None)
    results = w.run(inputs)
    for c in w.check(inputs, results):
        expect(c, True, "the run")
    small = inputs["problems"]["small"]
    tau = w.small_taus[0]
    for scheme in ("cnfd", "lffp"):
        flow = SemiDiscreteFlow(small, space_of(scheme))
        errs = []
        for step in (tau, 2 * tau):  # the second run is at 2 tau, not tau/2
            r = harness.run_simulation(small, SchemeConfig(scheme, tau=step))
            errs.append(l2_distance(r.final.values, flow.at(r.n_steps * step), small.grid.h))
        expect(checks.time_order(scheme, *errs), False, "a run at 2 tau given as the tau/2 run")
    lffd = next(r for (size, s, _), r in zip(inputs["runs"], results)
                if s == "lffd" and size == "small")
    expect(checks.conserved("lffd mass as cnfd", lffd.mass_series), False,
           "the leap-frog mass series")
    expect(checks.conserved("lffd energy as cnfd", lffd.energy_series), False,
           "the leap-frog energy series")


def main():
    oracle_vs_free_flow()
    run_all()
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        converge(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sweep()
    print(f"{sum(OUTCOMES)}/{len(OUTCOMES)} behave as required")
    return 0 if all(OUTCOMES) else 1


if __name__ == "__main__":
    sys.exit(main())
