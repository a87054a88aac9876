"""One job of one workload in a fresh process; prints one JSON line.

    python3 perfbench/job.py WORKLOAD WORKDIR SPAWNED_AT [--trace TRACE_FILE | --setup-only]

SPAWNED_AT is time.monotonic() in the launching process just before this
process started (the clock is shared between processes), so setup_s counts
interpreter start, importing dirac1d and building the workload's inputs.
With --setup-only the process stops there and reports setup_s alone.
run.py launches this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports dirac1d: part of set-up)

# The spatial sweep starts at N = 8 and every such cell warns that the grid
# is small; the warning is expected there and would only flood stderr.
warnings.filterwarnings("ignore", message="grid has only")


def _usage():
    self_, kids = (resource.getrusage(w) for w in (resource.RUSAGE_SELF,
                                                   resource.RUSAGE_CHILDREN))
    cpu = self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(self_.ru_maxrss, kids.ru_maxrss) / 1024.0  # kB -> MB


def main(argv):
    name, workdir, spawned_at = argv[0], argv[1], float(argv[2])
    trace_file = argv[4] if argv[3:4] == ["--trace"] else None
    workload = workloads.WORKLOADS[name]

    tracer = None
    if trace_file:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    inputs = workload.prepare(workdir)
    setup_s = time.monotonic() - spawned_at
    if argv[3:4] == ["--setup-only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cpu0, _ = _usage()
    t0 = time.perf_counter()
    output = workload.run(inputs)
    wall_s = time.perf_counter() - t0
    cpu1, peak_mb = _usage()

    record = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu1 - cpu0,
              "peak_rss_mb": peak_mb, "attempted": workload.operations,
              "failed": workload.failed(inputs, output)}
    if tracer is not None:
        import layers

        tracer.uninstall()
        tracer.write(trace_file)
        record["layers"] = layers.layer_metrics(tracer)
    record["checks"] = [c._asdict() for c in workload.check(inputs, output)]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
