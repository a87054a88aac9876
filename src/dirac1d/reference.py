"""Ground-truth generators: exact free evolution and the TSFP integrator.

The free flow is applied exactly per mode through the symbol
Gamma_l = mu_l*sigma1 + sigma3, whose exponential is

    exp(-i t Gamma_l) = cos(t*delta_l) I2 - i sin(t*delta_l)/delta_l * Gamma_l,
    delta_l = sqrt(1 + mu_l^2),

so each mode evolves unitarily.  The TSFP reference integrator Strang-splits
between this free flow and the pointwise potential flow

    exp(-i s eps (V I2 - A1 sigma1))
        = exp(-i s eps V) [cos(s eps A1) I2 + i sin(s eps A1) sigma1],

applied potential-first (half, free, half); both sub-flows preserve the mass
exactly.

For time-independent potentials one TSFP step is a fixed 2N x 2N matrix M,
so n steps are Phi^n = M^n Phi^0.  `TSFPStepper.propagate` then forms M by
applying the Strang step to blocks of identity columns and applies M^n by
binary powering: bit_length(n) - 1 squarings (kept on the stepper for later
calls) and one mat-vec per set bit of n.  The result is the same discrete
solution as the step loop up to rounding.  It takes this path when

    N <= DENSE_MAX_NODES  and
    2 * bit_length(n) * (2N)^3 / MATMUL_MAC_PER_S < n * (STEP_S + STEP_S_PER_NODE * N),

i.e. when the complex multiply-adds of the squarings (twice, as a margin
for the build and the mat-vecs) at the measured single-thread matmul rate
cost less than the measured per-step time of the FFT loop.  The node cap
bounds the memory of the kept squares, bit_length(n) * (2N)^2 * 16 bytes
(18 MB at N = 128, n = 256000).  Time-dependent potentials, larger grids
and short runs keep the loop.  The reference manifest records the path
taken under "propagation".

Reference snapshots can be cached to disk in a simple binary format (magic
"DREF2", header, complex128 node pairs) with a JSON manifest; the round
trip is bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .grid import SpinorField, TorusGrid, make_grid, subsample, trig_resample
from .model import ProblemSetup
from .stepping import Stepper

__all__ = [
    "free_dirac_exact", "TSFPStepper",
    "ReferenceSolution", "exact_free_reference", "reference_solution",
    "reference_cache_key", "save_reference", "load_reference", "ReferenceCache",
]

MAGIC = b"DREF2"
SUBSTEP_ORDER = "potential-first"

# Dense-power rule (see the module docstring).  The rates are measured with
# one BLAS thread on a 2-core x86-64 VM (OpenBLAS 0.3, numpy 2.4): complex
# matmul at 2N = 128 .. 512 runs 6.3e9 .. 6.6e9 multiply-adds per second,
# the merged TSFP loop 35 us + 0.05 us * N per step (N = 8 .. 512).
DENSE_MAX_NODES = 256
MATMUL_MAC_PER_S = 6e9
STEP_S = 35e-6
STEP_S_PER_NODE = 0.05e-6
BUILD_BLOCK = 64  # identity columns per Strang step while forming M


def dense_power_pays(n_nodes: int, n_steps: int) -> bool:
    """True when M^n by binary powering beats n FFT steps (module docstring)."""
    if n_nodes > DENSE_MAX_NODES:
        return False
    dense = 2 * n_steps.bit_length() * (2 * n_nodes) ** 3 / MATMUL_MAC_PER_S
    return dense < n_steps * (STEP_S + STEP_S_PER_NODE * n_nodes)


def _free_multipliers(grid: TorusGrid, t: float):
    mu = grid.mu_fft
    delta = np.sqrt(1.0 + mu * mu)
    c = np.cos(t * delta)
    s = np.sin(t * delta) / delta
    return c - 1j * s, -1j * s * mu, c + 1j * s  # f11, f12, f22


def _apply_free(values: np.ndarray, multipliers) -> np.ndarray:
    f11, f12, f22 = multipliers
    hat = np.fft.fft(values, axis=-1)
    out = np.stack((f11 * hat[0] + f12 * hat[1], f12 * hat[0] + f22 * hat[1]))
    return np.fft.ifft(out, axis=-1)


def free_dirac_exact(phi0: SpinorField, t: float) -> SpinorField:
    """Evolve the trigonometric interpolant of phi0 under the free equation."""
    return SpinorField(phi0.grid, _apply_free(phi0.values, _free_multipliers(phi0.grid, t)))


class TSFPStepper(Stepper):
    """Strang-split reference integrator (reference use only).

    potential half step (t + tau/4), full free step, potential half step
    (t + 3*tau/4); potentials at the half-interval midpoints matter only in
    the time-dependent case.  `propagation` names the paths `propagate`
    has taken ("dense-power", "stepwise").
    """

    scheme = "tsfp"
    needs_history = False

    def _prepare(self):
        self._free_mult = _free_multipliers(self.grid, self.tau)
        self._time_indep = (self.problem.potentials.time_independent
                            or self.problem.epsilon == 0.0)
        if self._time_indep:
            self._half = self._potential_multipliers(0.5 * self.tau, 0.0)
            self._full = self._potential_multipliers(self.tau, 0.0)
        else:
            self._half = self._full = None
        self._squares = []  # M^(2^k) for k = 0, 1, ...
        self.propagation = set()

    def _potential_multipliers(self, s: float, t: float):
        ev, ea = self._eps_potentials(t)
        phase = np.exp(-1j * s * ev)
        return phase * np.cos(s * ea), 1j * phase * np.sin(s * ea)

    @staticmethod
    def _apply_pointwise(values: np.ndarray, mult) -> np.ndarray:
        u, w = mult
        return np.stack((u * values[0] + w * values[1],
                         w * values[0] + u * values[1]))

    def _strang(self, values: np.ndarray) -> np.ndarray:
        """One time-independent step of values shaped (2, ..., N)."""
        x = self._apply_pointwise(values, self._half)
        x = _apply_free(x, self._free_mult)
        return self._apply_pointwise(x, self._half)

    def _step(self) -> np.ndarray:
        if self._time_indep:
            return self._strang(self._curr)
        x = self._apply_pointwise(
            self._curr, self._potential_multipliers(0.5 * self.tau, self.t + 0.25 * self.tau))
        x = _apply_free(x, self._free_mult)
        return self._apply_pointwise(
            x, self._potential_multipliers(0.5 * self.tau, self.t + 0.75 * self.tau))

    def _one_step_matrix(self) -> np.ndarray:
        """M with Phi^{n+1}.ravel() = M @ Phi^n.ravel(), built column block by
        column block so that no full identity is ever held."""
        n = 2 * self.grid.N
        m = np.empty((n, n), dtype=np.complex128)
        for j in range(0, n, BUILD_BLOCK):
            cols = min(BUILD_BLOCK, n - j)
            unit = np.zeros((cols, n), dtype=np.complex128)
            unit[np.arange(cols), j + np.arange(cols)] = 1.0
            out = self._strang(unit.reshape(cols, 2, self.grid.N).transpose(1, 0, 2))
            m[:, j:j + cols] = out.transpose(0, 2, 1).reshape(n, cols)
        return m

    def _dense_power(self, n_steps: int) -> np.ndarray:
        """M^n_steps applied to the current field by binary powering."""
        squares = self._squares
        if not squares:
            squares.append(self._one_step_matrix())
        v = self._curr.reshape(-1)
        for k in range(n_steps.bit_length()):
            if k == len(squares):
                squares.append(squares[-1] @ squares[-1])
            if n_steps >> k & 1:
                v = squares[k] @ v
        return v.reshape(2, self.grid.N)

    def propagate(self, n_steps: int) -> None:
        """Advance n_steps: by M^n when time-independent and `dense_power_pays`,
        else by the step loop with interior potential half steps merged."""
        if n_steps <= 0:
            return
        if not self._time_indep or n_steps == 1:
            self.propagation.add("stepwise")
            for _ in range(n_steps):
                self.advance()
            return
        if dense_power_pays(self.grid.N, n_steps):
            self.propagation.add("dense-power")
            x = self._dense_power(n_steps)
        else:
            self.propagation.add("stepwise")
            x = self._apply_pointwise(self._curr, self._half)
            for _ in range(n_steps - 1):
                x = self._apply_pointwise(_apply_free(x, self._free_mult), self._full)
            x = self._apply_pointwise(_apply_free(x, self._free_mult), self._half)
        self._curr = x
        self.n += n_steps
        self.t += n_steps * self.tau


class ReferenceSolution:
    """Fine-grid snapshots at fixed times, restrictable to coarser grids."""

    def __init__(self, grid: TorusGrid, tau_e: float, fields: dict,
                 manifest: Optional[dict] = None):
        self.grid = grid
        self.tau_e = tau_e
        self.fields = fields  # time -> SpinorField on self.grid
        self.times = sorted(fields)
        self.manifest = manifest or {}

    def snapshot(self, t: float) -> SpinorField:
        key = self._match_time(t)
        return self.fields[key]

    def _match_time(self, t: float) -> float:
        for stored in self.times:
            if abs(stored - t) <= 1e-9 * max(1.0, abs(t)):
                return stored
        raise ConfigurationError(f"no reference snapshot at t={t}; stored {self.times}")

    def restricted(self, t: float, grid: TorusGrid,
                   allow_interpolation: bool = False,
                   min_space_ratio: float = 4.0) -> SpinorField:
        """Snapshot at t on the given coarse grid.

        Nested grids are restricted by exact node subsampling; non-nesting
        grids require allow_interpolation (trigonometric resampling).
        min_space_ratio guards how much finer the reference must be.
        """
        fine = self.snapshot(t)
        if self.grid.N < min_space_ratio * grid.N:
            raise ConfigurationError(
                f"reference grid N={self.grid.N} is not {min_space_ratio:g}x finer "
                f"than the test grid N={grid.N}"
            )
        if grid == self.grid:
            return fine
        if self.grid.N % grid.N == 0:
            return subsample(fine, grid)
        if allow_interpolation:
            return trig_resample(fine, grid)
        raise ConfigurationError(
            f"grids do not nest (N_e={self.grid.N}, N={grid.N}) and interpolation "
            "is not enabled"
        )


def exact_free_reference(setup: ProblemSetup, h_e: float,
                         t_targets: Sequence[float]) -> ReferenceSolution:
    """Snapshots of the exact free flow of the data sampled at h_e (eps = 0)."""
    if setup.epsilon != 0.0 and (setup.potentials.v_max or setup.potentials.a_max):
        raise ConfigurationError("exact reference requires the free problem")
    phi0 = setup.discretize(h=h_e).phi0
    fields = {float(t): free_dirac_exact(phi0, t) for t in t_targets}
    return ReferenceSolution(phi0.grid, 0.0, fields, {"kind": "exact-free", "N": phi0.grid.N})


def reference_solution(setup: ProblemSetup, h_e: float, tau_e: float,
                       t_targets: Sequence[float]) -> ReferenceSolution:
    """Run TSFP on the fine grid and collect snapshots at the target times."""
    if tau_e <= 0:
        raise ConfigurationError("tau_e must be positive")
    problem = setup.discretize(h=h_e)
    steps = {}
    for t in t_targets:
        if t < 0:
            raise ConfigurationError("snapshot times must be nonnegative")
        k = int(round(t / tau_e))
        if abs(k * tau_e - t) > 1e-8 * max(1.0, abs(t)):
            raise ConfigurationError(
                f"snapshot time {t} is not an integer multiple of tau_e={tau_e}"
            )
        steps[k] = float(t)

    stepper = TSFPStepper(problem, tau_e)
    fields = {}
    last = 0
    for k in sorted(steps):
        stepper.propagate(k - last)
        last = k
        fields[steps[k]] = stepper.phi.copy()
    manifest = {
        "kind": "tsfp",
        "substep_order": SUBSTEP_ORDER,
        "propagation": "+".join(sorted(stepper.propagation)) or "none",
        "h_e": problem.grid.h,
        "tau_e": tau_e,
        "N": problem.grid.N,
        "epsilon": setup.epsilon,
        "problem": setup.key,
        "times": sorted(fields),
    }
    return ReferenceSolution(problem.grid, tau_e, fields, manifest)


# ---------------------------------------------------------------------------
# disk cache
# ---------------------------------------------------------------------------

def reference_cache_key(setup: ProblemSetup, h_e: float, tau_e: float,
                        t_targets: Sequence[float]) -> str:
    """Content hash identifying a reference run; needs a describable setup."""
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
        "tau_e": tau_e,
        "times": [float(t) for t in t_targets],
        "substep_order": SUBSTEP_ORDER,
        "kind": "tsfp",
        "format": MAGIC.decode(),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_reference(path: str, ref: ReferenceSolution, config_hash: str = "") -> None:
    """Write snapshots as DREF2 binary plus a JSON manifest sidecar.

    The manifest is written first and the binary last, each through a
    rename: a reader that finds the binary (the cache's hit test) also
    finds its manifest.
    """
    grid = ref.grid
    times = ref.times
    header = MAGIC + struct.pack("<ddII", grid.a, grid.b, grid.N, len(times))
    header += struct.pack(f"<{len(times)}d", *times)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    manifest = dict(ref.manifest)
    manifest["config_hash"] = config_hash
    # per-process names; open() gives both files the umask-derived mode
    tmp_manifest = f"{path}.json.{os.getpid()}.tmp"
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp_manifest, "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        os.replace(tmp_manifest, path + ".json")
        with open(tmp, "wb") as fh:
            fh.write(header)
            for t in times:
                pairs = np.ascontiguousarray(ref.fields[t].values.T).astype("<c16")
                fh.write(pairs.tobytes())
        os.replace(tmp, path)
    except BaseException:
        for leftover in (tmp_manifest, tmp):
            if os.path.exists(leftover):
                os.unlink(leftover)
        raise


def load_reference(path: str) -> ReferenceSolution:
    """Read a DREF2 snapshot file (complex128, bit-exact)."""
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic == b"DREF1":
            raise ConfigurationError(
                f"{path} is a DREF1 reference cache file (complex64); only DREF2 "
                "(complex128) is read, so rebuild the reference"
            )
        if magic != MAGIC:
            raise ConfigurationError(f"{path} is not a reference cache file")
        a, b, n, n_times = struct.unpack("<ddII", fh.read(24))
        times = struct.unpack(f"<{n_times}d", fh.read(8 * n_times))
        grid = make_grid(a, b, n)
        fields = {}
        for t in times:
            raw = np.frombuffer(fh.read(16 * 2 * n), dtype="<c16").reshape(n, 2)
            fields[t] = SpinorField(grid, raw.T.astype(np.complex128))
    manifest = {}
    if os.path.exists(path + ".json"):
        with open(path + ".json") as fh:
            manifest = json.load(fh)
    tau_e = manifest.get("tau_e", 0.0)
    return ReferenceSolution(grid, tau_e, fields, manifest)


class ReferenceCache:
    """Directory of cached references keyed by the config hash."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def path_for(self, key: str) -> str:
        return os.path.join(self.directory, key + ".dref")

    def fetch(self, setup: ProblemSetup, h_e: float, tau_e: float,
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
