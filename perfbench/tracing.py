"""Spans and counters recorded around dirac1d's public functions.

The tracer replaces each traced name where its caller looks it up (a module
global or a class attribute) and restores the originals on `uninstall`.
Coarse calls (tables, rows, references, cache I/O, error measurement) become
spans with a name, start, end and parent; per-step calls (Stepper.advance,
the banded solve, numpy.fft.fft/ifft, the TSFP propagation) only add to
counters, so tracing keeps no per-step records.

Pool workers are forked from the traced process and inherit the wrappers.
multiprocessing ends them with os._exit, so each worker hands its spans and
counters back with the row it returns: the row list is pickled with a
reduce hook that merges the payload into the parent's tracer on arrival.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from dirac1d import cli, harness, linalg, model, reference, stepping

# The tracer of this process.  Pool workers reach it through the forked
# module state, which is why it lives at module level.
ACTIVE = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.step_key = None  # (scheme, N) of the step being taken, if any
        self._stack = []
        self._patches = []
        self._next_id = 0
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------
    @contextmanager
    def span(self, name, **attrs):
        self._next_id += 1
        rec = {"id": f"{os.getpid()}.{self._next_id}", "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "attrs": attrs}
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def drain(self):
        """Hand over and forget everything recorded so far."""
        payload = (self.spans, dict(self.counters))
        self.spans = []
        self.counters.clear()  # in place: the wrappers hold this dict
        return payload

    def merge(self, payload):
        spans, counters = payload
        with self._lock:
            self.spans.extend(spans)
            for key, value in counters.items():
                self.counters[key] += value

    def write(self, path):
        with open(path, "w") as fh:
            for rec in sorted(self.spans, key=lambda r: r["start"]):
                fh.write(json.dumps(rec) + "\n")

    # -- patching ------------------------------------------------------------
    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def _spanned(self, owner, attr, name, attrs=None):
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name) as extra:
                    out = fn(*args, **kwargs)
                    if attrs is not None:
                        extra.update(attrs(args, out))
                    return out
            return traced
        self._patch(owner, attr, wrap)

    def install(self):
        global ACTIVE
        ACTIVE = self
        s = self._spanned
        s(cli, "main", "cli.main")
        s(harness, "emit_csv", "harness.emit_csv")
        s(harness, "convergence_table", "harness.table")
        s(harness, "epsilon_sweep_spatial", "harness.table")
        s(harness, "_run_row", "harness._run_row")
        s(harness, "build_reference", "harness.build_reference",
          lambda a, out: {"key": _reference_request(*a)})
        s(harness, "reference_solution", "reference.reference_solution")
        s(reference, "reference_solution", "reference.reference_solution")
        s(reference.ReferenceCache, "fetch", "reference.cache.fetch")
        s(reference, "save_reference", "reference.save",
          lambda a, out: {"bytes": _file_bytes(a[0]) + _file_bytes(a[0] + ".json")})
        s(reference, "load_reference", "reference.load",
          lambda a, out: {"bytes": _file_bytes(a[0])})
        s(reference.ReferenceSolution, "restricted", "reference.restricted")
        s(harness, "measure_errors", "harness.measure_errors")
        s(harness, "run_simulation", "harness.run_simulation",
          lambda a, out: {"scheme": out.scheme, "N": a[0].grid.N,
                          "n_steps": out.n_steps, "wall_time": out.wall_time})
        s(model.ProblemSetup, "discretize", "model.discretize")
        s(harness, "check_bounds", "model.check_bounds")
        self._patch(reference.ReferenceCache, "fetch", self._count_cache)
        self._patch(harness, "_run_row_star", lambda fn: _traced_row_star)
        self._patch(stepping.Stepper, "advance", self._time_advance)
        self._patch(reference.TSFPStepper, "propagate", self._time_propagate)
        self._patch(linalg.CyclicBlockTridiagSolver, "solve", self._time_solve)
        self._patch(linalg.CyclicBlockTridiagSolver, "__init__", self._count_factor)
        self._patch(np.fft, "fft", self._count_fft)
        self._patch(np.fft, "ifft", self._count_fft)

    def uninstall(self):
        global ACTIVE
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        ACTIVE = None

    # -- counting wrappers -----------------------------------------------------
    def _time_advance(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def advance(stepper):
            key = (stepper.scheme, stepper.grid.N)
            outer, self.step_key = self.step_key, key
            t0 = time.perf_counter()
            try:
                fn(stepper)
            finally:
                counters[("advance_s",) + key] += time.perf_counter() - t0
                self.step_key = outer
            counters[("steps",) + key] += 1
            if stepper.scheme == "cnfp":
                counters[("sweeps",) + key] += stepper.diagnostics.iterations
        return advance

    def _time_propagate(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def propagate(stepper, n_steps):
            key = ("tsfp", stepper.grid.N)
            outer, self.step_key = self.step_key, key
            t0 = time.perf_counter()
            try:
                fn(stepper, n_steps)
            finally:
                counters[("tsfp_s",) + key] += time.perf_counter() - t0
                self.step_key = outer
            counters[("tsfp_steps",) + key] += max(n_steps, 0)
        return propagate

    def _time_solve(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def solve(solver, rhs):
            t0 = time.perf_counter()
            out = fn(solver, rhs)
            n_nodes = solver.n // 2
            counters[("solve_s", n_nodes)] += time.perf_counter() - t0
            counters[("solves", n_nodes)] += 1
            return out
        return solve

    def _count_factor(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def init(solver, *args, **kwargs):
            fn(solver, *args, **kwargs)
            counters[("factors",)] += 1
        return init

    def _count_fft(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def transform(*args, **kwargs):
            if self.step_key is not None:
                counters[("fft",) + self.step_key] += 1
            return fn(*args, **kwargs)
        return transform

    def _count_cache(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def fetch(cache, setup, h_e, tau_e, t_targets):
            key = reference.reference_cache_key(setup, h_e, tau_e, t_targets)
            hit = os.path.exists(cache.path_for(key))
            counters[("cache_hits",) if hit else ("cache_misses",)] += 1
            return fn(cache, setup, h_e, tau_e, t_targets)
        return fetch


def _reference_request(setup, ref_cfg, h_finest, tau_finest, t_targets):
    """What determines the reference a table row builds, as one string."""
    return json.dumps([setup.key, ref_cfg.kind, ref_cfg.h_e, ref_cfg.tau_e,
                       ref_cfg.space_factor, ref_cfg.time_factor, h_finest,
                       tau_finest, [float(t) for t in t_targets]], sort_keys=True)


def _file_bytes(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


# -- pool hand-back -------------------------------------------------------------

class _RowWithTrace(list):
    """A table row that carries the worker's spans and counters home."""

    def __init__(self, row, payload):
        super().__init__(row)
        self.payload = payload

    def __reduce__(self):
        return _receive_row, (list(self), self.payload)


def _receive_row(row, payload):
    if ACTIVE is not None:
        ACTIVE.merge(payload)
    return row


def _traced_row_star(args):
    """Pool entry point in place of harness._run_row_star (runs in a worker)."""
    ACTIVE.drain()  # drop what the fork copied from the parent
    row = harness._run_row(*args)
    return _RowWithTrace(row, ACTIVE.drain())
