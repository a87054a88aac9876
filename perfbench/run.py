"""Benchmark runner for dirac1d.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With --trace 0 it runs whole jobs of the
workload, each in a fresh process (job.py), until S seconds have passed
(at least one job), and reports the median of each end-to-end metric.
With --trace 1 it runs one untraced and one traced job and reports the
per-module metrics of the traced one; trace.overhead_s is the difference
of their wall times.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

The inputs are fixed presets; --seed is accepted and recorded but no random
input exists, so every seed runs the same operations.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")  # run records, traces, scratch caches
WORKLOADS = ("sweep-fd-vs-fp", "converge-cnfd", "run-all-schemes")
JOB_TIMEOUT_S = 150  # one job; the whole run must stay within 180 s
RUN_LIMIT_S = 165
SETUP_SAMPLES = 7  # jobs plus set-up-only processes per untraced run


def run_job(workload, workdir, *extra):
    os.makedirs(workdir)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "job.py"), workload, workdir,
           repr(spawned_at), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S)
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"job {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "dirac1d", "__init__.py")):
        raise SystemExit(f"no dirac1d sources under {ROOT}/src; run from a checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)  # metric names and units

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    scratch = os.path.join(STATE, "tmp", tag)
    os.makedirs(os.path.join(STATE, "runs"), exist_ok=True)
    os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
    started = time.monotonic()
    jobs = []
    try:
        if args.trace:
            plain = run_job(args.workload, os.path.join(scratch, "plain"))
            trace_file = os.path.join(STATE, "traces", tag + ".jsonl")
            traced = run_job(args.workload, os.path.join(scratch, "traced"), "--trace", trace_file)
            traced["layers"]["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            jobs = [plain, traced]
            metrics = {m["name"]: {"value": traced["layers"].get(m["name"], 0.0), "unit": m["unit"]}
                       for m in bench["per_layer"]}
        else:
            while True:
                jobs.append(run_job(args.workload, os.path.join(scratch, str(len(jobs)))))
                elapsed = time.monotonic() - started
                longest = max(job["setup_s"] + job["wall_s"] for job in jobs)
                if elapsed >= args.seconds or elapsed + 1.5 * longest > RUN_LIMIT_S:
                    break
            setups = [job["setup_s"] for job in jobs]
            while len(setups) < SETUP_SAMPLES:
                probe = os.path.join(scratch, f"setup{len(setups)}")
                setups.append(run_job(args.workload, probe, "--setup-only")["setup_s"])
            metrics = {m["name"]: {"value": statistics.median(job[m["name"]] for job in jobs),
                                   "unit": m["unit"]}
                       for m in bench["end_to_end"]}
            metrics["setup_s"]["value"] = statistics.median(setups)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    checks = [c for job in jobs for c in job["checks"]]
    result = {
        "correct": all(c["ok"] for c in checks),
        "attempted": sum(job["attempted"] for job in jobs),
        "failed": sum(job["failed"] for job in jobs),
        "metrics": metrics,
    }
    with open(os.path.join(STATE, "runs", tag + ".json"), "w") as fh:
        json.dump({"args": vars(args), "jobs": jobs, "result": result}, fh, indent=1)

    for c in checks[-len(jobs[-1]["checks"]):]:
        print(f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    print(f"{args.workload}: {len(jobs)} job(s), attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
