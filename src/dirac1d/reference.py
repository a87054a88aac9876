"""References: runs of "tsfp", "exfp" or "exfd" (:mod:`dirac1d.schemes`)
to each snapshot time, restricted to coarser grids and cached on disk;
`ReferenceConfig` decides the reference of a table or `compare_over_time`.

A TSFP reference steps by tau_e and records under "propagation" whether it
powered the one-step matrix (:mod:`dirac1d.stepping`) or stepped; an exact
flow is evaluated at each snapshot time itself, so its times need share no
step.  The cache holds one .npz file per reference (complex128 snapshots
and a JSON string with the grid, the times and the manifest); the round
trip is bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .grid import SpinorField, TorusGrid, subsample
from .model import ProblemSetup
from .schemes import TSFPStepper, lookup, make_stepper

__all__ = [
    "ReferenceConfig", "ReferenceSolution", "reference_solution",
    "reference_cache_key", "save_reference", "load_reference", "ReferenceCache",
]

FORMAT = "npz1"  # in the cache key, so files of another format are never found
# exact flow -> its kind in the cache key; exfp keeps the former "exact" digest
EXACT_FLOWS = {"exfp": "exact", "exfd": "exfd"}


class ReferenceSolution:
    """Fine-grid snapshots at fixed times, restrictable to coarser grids."""

    def __init__(self, grid: TorusGrid, fields: dict, manifest: Optional[dict] = None):
        self.grid = grid
        self.fields = fields  # time -> SpinorField on self.grid
        self.times = sorted(fields)
        self.manifest = manifest or {}

    def snapshot(self, t: float) -> SpinorField:
        for stored in self.times:
            if abs(stored - t) <= 1e-9 * max(1.0, abs(t)):
                return self.fields[stored]
        raise ConfigurationError(f"no reference snapshot at t={t}; stored {self.times}")

    def restricted(self, t: float, grid: TorusGrid,
                   min_space_ratio: float = 4.0) -> SpinorField:
        """Snapshot at t on the given coarse grid, by exact node subsampling.

        The grids must nest, and min_space_ratio guards how much finer the
        reference must be (`check_restriction`).
        """
        fine = self.snapshot(t)
        check_restriction(self.grid.N, grid.N, min_space_ratio)
        return fine if grid == self.grid else subsample(fine, grid)


def check_restriction(n_e: int, n: int, min_space_ratio: float) -> None:
    """Raise unless a reference on N_e nodes can serve a test grid of N nodes:
    N_e must be min_space_ratio x N and a multiple of N."""
    if n_e < min_space_ratio * n:
        raise ConfigurationError(
            f"reference grid N={n_e} is not {min_space_ratio:g}x finer "
            f"than the test grid N={n}"
        )
    if n_e % n:
        raise ConfigurationError(
            f"grids do not nest (N_e={n_e}, N={n}); references are restricted "
            "by subsampling only, never by interpolation"
        )


def reference_solution(setup: ProblemSetup, h_e: float, tau_e,
                       t_targets: Sequence[float]) -> ReferenceSolution:
    """Snapshots at the target times of one reference run at h_e: of TSFP at
    the step tau_e, or of the exact flow that tau_e names ("exfp", "exfd")."""
    exact = tau_e in EXACT_FLOWS
    if not (exact or isinstance(tau_e, (int, float)) and tau_e > 0):
        raise ConfigurationError(f"tau_e must be positive, or exfp or exfd; got {tau_e!r}")
    scheme, tau = (tau_e, 1.0) if exact else ("tsfp", tau_e)  # a flow takes any time
    problem = setup.discretize(h=h_e)
    stepper = make_stepper(scheme, problem, tau)
    fields = stepper.snapshots(t_targets, "snapshot time", "tau_e")
    manifest = {
        "kind": scheme,
        **({"substep_order": TSFPStepper.substep_order} if scheme == "tsfp" else {}),
        "propagation": stepper.propagation_label,
        "h_e": problem.grid.h,
        "tau_e": None if exact else tau,
        "N": problem.grid.N,
        "epsilon": setup.epsilon,
        "problem": setup.key,
        "times": sorted(fields),
    }
    return ReferenceSolution(problem.grid, fields, manifest)


@dataclass(frozen=True)
class ReferenceConfig:
    """How table cells and `compare_over_time` obtain their reference solution.

    kind is the reference scheme.  "tsfp" runs at (h_e, tau_e); unset values
    default to (finest test h)/space_factor and (finest test tau)/time_factor,
    and tau_e must be min_time_ratio x finer than the finest test tau.
    "exfp", "exfd": that flow at h_e, exact in time (no tau_e; time-
    independent potentials and N_e <= 1024 only).  Every kind must be
    min_space_ratio x finer in space than each test grid, and nest with it:
    cells are compared with the reference subsampled onto their nodes,
    never interpolated.  `request` applies these rules before any build.

    It keeps each reference its tables and `compare_over_time` obtained
    (built, or read from the disk cache) by `reference_cache_key` for later
    calls with the same object; a setup without a key (key=None) is rebuilt
    every call.  Kept references are never pickled, so pool tasks carrying
    the config stay small; copies start empty.  Frozen, like `SchemeConfig`.
    """

    space_factor: ClassVar[float] = 4.0
    time_factor: ClassVar[float] = 8.0
    min_time_ratio: ClassVar[float] = 4.0

    kind: str = "tsfp"
    h_e: Optional[float] = None
    tau_e: Optional[float] = None
    min_space_ratio: float = 4.0
    cache: Optional[ReferenceCache] = None
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("tsfp", *EXACT_FLOWS):
            raise ConfigurationError(f"unknown reference kind {self.kind!r}")
        if self.kind != "tsfp" and self.tau_e is not None:
            raise ConfigurationError(f"the {self.kind} reference takes no tau_e")

    def __getstate__(self):
        return {**self.__dict__, "_kept": {}}

    def mesh(self, h_finest: float, tau_finest: float) -> tuple:
        """(h_e, tau_e) of the reference for test meshes down to (h_finest,
        tau_finest); an exact flow's tau_e is its name."""
        if not (h_finest > 0 and tau_finest > 0):
            raise ConfigurationError(
                f"mesh size and time step must be positive, got h={h_finest}, tau={tau_finest}")
        h_e = self.h_e if self.h_e is not None else h_finest / self.space_factor
        if not h_e > 0:
            raise ConfigurationError(f"reference h_e must be positive, got {h_e}")
        if self.kind in EXACT_FLOWS:
            return h_e, self.kind
        tau_e = self.tau_e if self.tau_e is not None else tau_finest / self.time_factor
        if not tau_e > 0:
            raise ConfigurationError(f"reference tau_e must be positive, got {tau_e}")
        if tau_e > tau_finest / self.min_time_ratio * (1 + 1e-12):
            raise ConfigurationError(
                f"reference tau_e={tau_e} is not {self.min_time_ratio:g}x finer than "
                f"the finest test tau={tau_finest}"
            )
        return h_e, tau_e

    def request(self, setup: ProblemSetup, h_finest: float, tau_finest: float,
                t_targets: Sequence[float], test_hs: Sequence[float]) -> tuple:
        """(key, reference, cost) of the reference to t_targets for tests of
        mesh sizes test_hs.  Before any build, it refuses a problem the
        reference scheme refuses (`Stepper.refuse`) and each test grid it
        cannot serve (`check_restriction`).  reference is the one kept under
        key (None for a setup without one), else None; cost its `task_cost`."""
        h_e, tau_e = self.mesh(h_finest, tau_finest)
        key = None if setup.key is None else reference_cache_key(setup, h_e, tau_e, t_targets)
        reference, scheme = self._kept.get(key), lookup(self.kind)[0]
        if reference is None:
            scheme.refuse(setup.discretize(h=h_e))
        n_e = setup.grid_for_mesh(h_e).N
        for h in test_hs:
            check_restriction(n_e, setup.grid_for_mesh(h).N, self.min_space_ratio)
        return key, reference, scheme.task_cost(n_e, max(t_targets), tau_e)

    def keep(self, key: Optional[str], ref: ReferenceSolution) -> None:
        if key is not None:
            self._kept[key] = ref


# ---------------------------------------------------------------------------
# disk cache
# ---------------------------------------------------------------------------

def reference_cache_key(setup: ProblemSetup, h_e: float, tau_e,
                        t_targets: Sequence[float]) -> str:
    """Content hash identifying a reference run (`reference_solution`); needs
    a describable setup."""
    if setup.key is None:
        raise ConfigurationError(
            "this problem setup has no stable description (key=None); caching "
            "is only available for presets and expression-built problems"
        )
    payload = {
        "problem": setup.key,
        "domain": list(setup.domain()),
        "epsilon": setup.epsilon,
        "T0": setup.T0,
        "h_e": h_e,
        "tau_e": None if tau_e in EXACT_FLOWS else tau_e,
        "times": [float(t) for t in t_targets],
        "substep_order": TSFPStepper.substep_order,
        "kind": EXACT_FLOWS.get(tau_e, "tsfp-sigma1"),  # new with the sigma1-basis loop
        "format": FORMAT,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_reference(path: str, ref: ReferenceSolution, config_hash: str = "") -> None:
    """Write the snapshots and their manifest as one .npz file at path.

    It is written under a per-process name and renamed onto path, so a
    reader that finds path (the cache's hit test) finds it whole.
    """
    grid = ref.grid
    meta = {"a": grid.a, "b": grid.b, "times": ref.times,
            "manifest": dict(ref.manifest, config_hash=config_hash)}
    snapshots = np.array([ref.fields[t].values for t in ref.times],
                         dtype=np.complex128).reshape(-1, 2, grid.N)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:  # a file object, so savez adds no suffix; umask mode
            np.savez(fh, snapshots=snapshots, meta=np.array(json.dumps(meta)))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_reference(path: str) -> ReferenceSolution:
    """Read a file written by `save_reference` (complex128, bit-exact, writable
    arrays).  A file it cannot read (another format, junk, truncated) raises
    `ConfigurationError` naming the path; a file it cannot open, `OSError`."""
    try:
        with np.load(path) as data:  # no pickle: numpy's default
            snapshots = data["snapshots"]
            meta = json.loads(str(data["meta"]))
        grid = TorusGrid(meta["a"], meta["b"], snapshots.shape[-1])
        fields = {float(t): SpinorField(grid, s) for t, s in zip(meta["times"], snapshots)}
        return ReferenceSolution(grid, fields, meta["manifest"])
    except (ValueError, KeyError, IndexError, TypeError, EOFError, zipfile.BadZipFile,
            ConfigurationError) as exc:
        raise ConfigurationError(
            f"{path} is not a reference cache file of format {FORMAT} ({exc}); "
            "delete it to rebuild the reference") from exc


class ReferenceCache:
    """Directory of cached references keyed by the config hash."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def path_for(self, key: str) -> str:
        return os.path.join(self.directory, key + ".dref")

    def fetch(self, setup: ProblemSetup, h_e: float, tau_e,
              t_targets: Sequence[float]) -> ReferenceSolution:
        """Load a matching cached reference or compute and store one."""
        key = reference_cache_key(setup, h_e, tau_e, t_targets)
        path = self.path_for(key)
        if not os.path.exists(path):
            ref = reference_solution(setup, h_e, tau_e, t_targets)
            save_reference(path, ref, config_hash=key)
        # always read back from disk so the manifest (config_hash) is the
        # same whether the snapshot was just computed or found cached
        return load_reference(path)
