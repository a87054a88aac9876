"""The benchmark's three workloads.

Each workload has `prepare(workdir)` (set-up: build setups, configs and
problems; counted in setup_s), `run(inputs)` (the timed job, through
dirac1d's public functions only), `failed(inputs, output)` (operations that
did not produce a result) and `check(inputs, output)` (correctness of the
output).  The inputs are fixed presets: no random seed enters.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os
from types import SimpleNamespace

import numpy as np

import checks
from dirac1d import (Dirac1DError, ReferenceConfig, SchemeConfig, cli, harness,
                     load_reference, preset)
from oracle import SemiDiscreteFlow, l2_distance

PI = math.pi
EPS_ROWS = [1.0, 0.25, 0.0625]
SCHEMES = ["cnfd", "sifd1", "sifd2", "lffd", "cnfp", "sifp1", "sifp2", "lffp"]
NAN = float("nan")
# Stands in for a run that raised, so that every check on it fails.
FAILED_RUN = SimpleNamespace(n_steps=0, tau=NAN, final=SimpleNamespace(values=NAN),
                             mass_series=[NAN], energy_series=[NAN])


def space_of(scheme: str) -> str:
    return "fd" if "fd" in scheme else "fp"


class SweepFdVsFp:
    """epsilon_sweep_spatial for LFFD, then LFFP, on periodic-s51."""

    name = "sweep-fd-vs-fp"
    schemes = ("lffd", "lffp")
    h0, levels, tau = PI / 4, 3, 1e-3
    operations = len(schemes) * len(EPS_ROWS) * levels  # table cells

    def prepare(self, workdir):
        return {"setup": preset("periodic-s51", 1.0), "reference": ReferenceConfig()}

    def run(self, inputs):
        return {scheme: harness.epsilon_sweep_spatial(
                    inputs["setup"], scheme, EPS_ROWS, self.h0, self.levels, self.tau,
                    reference=inputs["reference"], workers=2)
                for scheme in self.schemes}

    def failed(self, inputs, tables):
        return sum(int(np.count_nonzero(~np.isfinite(t.errors("e_phi"))))
                   for t in tables.values())

    def check(self, inputs, tables):
        fd, fp = tables["lffd"].errors("e_phi"), tables["lffp"].errors("e_phi")
        return [checks.superalgebraic_drop(fp, EPS_ROWS),
                checks.stencil_error_grows(fd, EPS_ROWS),
                checks.spectral_beats_stencil(fd, fp)]


class ConvergeCnfd:
    """`dirac1d converge` on the acceptance suite's CNFD refinement table."""

    name = "converge-cnfd"
    levels = 4
    operations = len(EPS_ROWS) * levels  # table cells
    oracle_nodes = 128  # the semi-discrete spectral solution is resolved here

    def prepare(self, workdir):
        config = {
            "problem": "periodic-s51", "scheme": "cnfd", "eps_list": EPS_ROWS,
            "h0": PI / 64, "tau0": 0.05, "levels": self.levels,
            "reference": {"h_e": PI / 512, "tau_e": 5e-4, "min_space_ratio": 1.0},
        }
        path = os.path.join(workdir, "converge.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        cache = os.path.join(workdir, "refcache")
        out = os.path.join(workdir, "table.csv")
        argv = ["converge", path, "--workers", "2", "--cache-dir", cache, "--out", out]
        return {"argv": argv, "cache": cache, "csv": out}

    def run(self, inputs):
        code = cli.main(inputs["argv"])
        rows = []
        if code == 0:
            with open(inputs["csv"], newline="") as fh:
                rows = list(csv.DictReader(fh))
        return {"code": code, "rows": rows}

    def matrix(self, rows, column):
        """One CSV column as an (eps row, level) array; NaN where missing."""
        out = np.full((len(EPS_ROWS), self.levels), np.nan)
        for row in rows:
            i = EPS_ROWS.index(float(row["epsilon"]))
            value = row[column]
            out[i, int(row["level"])] = float(value) if value else np.nan
        return out

    def failed(self, inputs, output):
        return int(np.count_nonzero(~np.isfinite(self.matrix(output["rows"], "e_phi"))))

    def check(self, inputs, output):
        orders = self.matrix(output["rows"], "order_phi")
        return [checks.refinement_orders(orders, EPS_ROWS),
                checks.reference_matches_oracle(self.reference_distances(inputs["cache"]))]

    def reference_distances(self, cache_dir):
        """l2 distance of each cached reference snapshot from the eigh solution."""
        out = {}
        for path in sorted(glob.glob(os.path.join(cache_dir, "*.dref"))):
            ref = load_reference(path)
            eps = float(ref.manifest["epsilon"])
            problem = preset("periodic-s51", eps).discretize(N=self.oracle_nodes)
            flow = SemiDiscreteFlow(problem, "fp")
            stride = ref.grid.N // self.oracle_nodes
            for t in ref.times:
                d = l2_distance(ref.snapshot(t).values[:, ::stride], flow.at(t), problem.grid.h)
                out[eps] = max(out.get(eps, 0.0), d)
        return out


class RunAllSchemes:
    """run_simulation with mass+energy recording for every scheme, N = 64 and 4096."""

    name = "run-all-schemes"
    small_n, small_taus = 64, (4e-3, 2e-3)  # to the horizon t = 2
    large_n, large_tau, large_steps = 4096, 4e-4, 200
    operations = len(SCHEMES) * (len(small_taus) + 1)  # runs

    def prepare(self, workdir):
        setup = preset("periodic-s51", 1.0)
        runs = []
        for scheme in SCHEMES:
            for tau in self.small_taus:
                runs.append(("small", scheme, SchemeConfig(scheme, tau=tau,
                                                           record="mass+energy")))
            runs.append(("large", scheme, SchemeConfig(
                scheme, tau=self.large_tau, t_final=self.large_steps * self.large_tau,
                record="mass+energy")))
        return {"problems": {"small": setup.discretize(N=self.small_n),
                             "large": setup.discretize(N=self.large_n)},
                "runs": runs}

    def run(self, inputs):
        results = []
        for size, _, config in inputs["runs"]:
            try:
                results.append(harness.run_simulation(inputs["problems"][size], config))
            except Dirac1DError:  # counted as failed; its checks then fail too
                results.append(None)
        return results

    def failed(self, inputs, results):
        return sum(int(r is None or r.blew_up) for r in results)

    def check(self, inputs, results):
        small = inputs["problems"]["small"]
        flows = {space: SemiDiscreteFlow(small, space) for space in ("fd", "fp")}
        errors, out = {}, []
        for (size, scheme, config), result in zip(inputs["runs"], results):
            if result is None:
                result = FAILED_RUN
            if size == "small":
                exact = flows[space_of(scheme)].at(result.n_steps * result.tau)
                errors.setdefault(scheme, []).append(
                    l2_distance(result.final.values, exact, small.grid.h))
            if scheme in ("cnfd", "cnfp"):
                n = inputs["problems"][size].grid.N
                out.append(checks.conserved(f"{scheme} n{n} mass", result.mass_series))
                out.append(checks.conserved(f"{scheme} n{n} energy", result.energy_series))
        for scheme in SCHEMES:
            out.append(checks.time_order(scheme, *errors[scheme]))
        return out


WORKLOADS = {w.name: w for w in (SweepFdVsFp(), ConvergeCnfd(), RunAllSchemes())}
