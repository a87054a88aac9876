"""Per-module metrics from a traced job, plus the bare stepper loop.

`layer_metrics` returns what the job exercised; run.py reports every
per-layer metric of BENCHMARK.json and gives 0 to a layer the workload
does not exercise.  README.md maps each metric to the end-to-end metric
and workload it should move.
"""

from __future__ import annotations

import time
from collections import defaultdict

from dirac1d import make_stepper, preset
from workloads import SCHEMES

BARE_SIZES = {64: (1e-3, 400), 512: (1e-3, 200), 4096: (4e-4, 40)}  # N: (tau, steps)
RUN_SIZES = (64, 4096)  # the N of run-all-schemes
POOL_WORKERS = 2


def bare_advance_us() -> dict:
    """us per step of make_stepper(...).advance() alone, per scheme and N."""
    out = {}
    setup = preset("periodic-s51", 1.0)
    for n, (tau, steps) in BARE_SIZES.items():
        problem = setup.discretize(N=n)
        for scheme in SCHEMES:
            stepper = make_stepper(scheme, problem, tau)
            for _ in range(3):  # launch step and first-touch costs
                stepper.advance()
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                for _ in range(steps):
                    stepper.advance()
                best = min(best, (time.perf_counter() - t0) / steps)
            out[(scheme, n)] = best * 1e6
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer) -> dict:
    c = tracer.counters
    busy = defaultdict(float)
    by_name = defaultdict(list)
    for rec in tracer.spans:
        busy[rec["name"]] += rec["end"] - rec["start"]
        by_name[rec["name"]].append(rec)

    def total(kind, scheme=None):
        return sum(v for k, v in c.items() if k[0] == kind and (scheme is None or k[1] == scheme))

    m = {}
    bare = bare_advance_us()
    for (scheme, n), us in bare.items():
        m[f"stepping.advance_us.{scheme}.n{n}"] = us

    steps, loop_s = defaultdict(int), defaultdict(float)
    m["harness.run_simulation.setup_s"] = 0.0
    for rec in by_name["harness.run_simulation"]:
        a = rec["attrs"]
        steps[(a["scheme"], a["N"])] += a["n_steps"]
        loop_s[(a["scheme"], a["N"])] += a["wall_time"]
        m["harness.run_simulation.setup_s"] += rec["end"] - rec["start"] - a["wall_time"]
    for n in RUN_SIZES:
        overheads = []
        for scheme in SCHEMES:
            if steps[(scheme, n)]:
                us = 1e6 * loop_s[(scheme, n)] / steps[(scheme, n)]
                m[f"harness.run_simulation.us_per_step.{scheme}.n{n}"] = us
                overheads.append(us - bare[(scheme, n)])
        if overheads:
            m[f"harness.run_simulation.overhead_us.n{n}"] = sum(overheads) / len(overheads)

    m["fdfp.cnfp.sweeps_per_step"] = _ratio(total("sweeps", "cnfp"), total("steps", "cnfp"))
    for scheme in {k[1] for k in c if k[0] == "fft"}:
        n_steps = total("tsfp_steps") if scheme == "tsfp" else total("steps", scheme)
        m[f"fft_per_step.{scheme}"] = _ratio(total("fft", scheme), n_steps)

    m["linalg.solve.calls"] = total("solves")
    m["linalg.factor.calls"] = total("factors")
    for key, count in list(c.items()):
        if key[0] == "solves":
            m[f"linalg.solve.us.n{key[1]}"] = 1e6 * c[("solve_s", key[1])] / count
        if key[:2] == ("steps", "cnfd"):
            n = key[2]
            non_solve = c[("advance_s", "cnfd", n)] - c.get(("solve_s", n), 0.0)
            m[f"fdtd.cnfd.non_solve_us.n{n}"] = 1e6 * non_solve / count

    m["reference.reference_solution.busy_s"] = busy["reference.reference_solution"]
    m["reference.tsfp.steps"] = total("tsfp_steps")
    m["reference.tsfp.us_per_step"] = 1e6 * _ratio(total("tsfp_s"), total("tsfp_steps"))

    requests = [rec["attrs"]["key"] for rec in by_name["harness.build_reference"]]
    m["harness.build_reference.calls"] = len(requests)
    m["harness.build_reference.unique_ratio"] = _ratio(len(set(requests)), len(requests))

    m["reference.cache.hits"] = total("cache_hits")
    m["reference.cache.misses"] = total("cache_misses")
    for io in ("save", "load"):
        m[f"reference.{io}.busy_s"] = busy[f"reference.{io}"]
        m[f"reference.{io}.bytes"] = sum(r["attrs"]["bytes"] for r in by_name[f"reference.{io}"])
    m["reference.restricted.busy_s"] = busy["reference.restricted"]
    m["harness.measure_errors.busy_s"] = busy["harness.measure_errors"]

    rows = [r["end"] - r["start"] for r in by_name["harness._run_row"]]
    m["harness.pool.busy_share"] = _ratio(sum(rows), POOL_WORKERS * busy["harness.table"])
    m["harness.pool.critical_row_s"] = max(rows, default=0.0)
    if by_name["cli.main"]:
        m["cli.overhead_s"] = busy["cli.main"] - busy["harness.table"]
    m["harness.emit_csv.busy_s"] = busy["harness.emit_csv"]
    m["model.discretize.busy_s"] = busy["model.discretize"]
    m["model.check_bounds.busy_s"] = busy["model.check_bounds"]
    return m
