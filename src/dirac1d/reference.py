"""Ground-truth generators: exact free flow, TSFP, the exact flow (EX).

The free flow is applied exactly per mode through the symbol
Gamma_l = mu_l*sigma1 + sigma3, whose exponential is

    exp(-i t Gamma_l) = cos(t*delta_l) I2 - i sin(t*delta_l)/delta_l * Gamma_l,
    delta_l = sqrt(1 + mu_l^2),

so each mode evolves unitarily.  The TSFP reference integrator Strang-splits
between this free flow and the pointwise potential flow

    exp(-i s eps (V I2 - A1 sigma1))
        = exp(-i s eps V) [cos(s eps A1) I2 + i sin(s eps A1) sigma1],

applied potential-first (half, free, half).  Both sub-flows are symmetric
2x2 multiplies (`grid.apply_sym2`), per mode and per node, and preserve
the mass exactly.

For time-independent potentials `TSFPStepper.propagate` powers the one-step
matrix (:mod:`dirac1d.stepping`) when that pays.  Otherwise its step loop
merges the interior potential half steps and works in two preallocated
(2, N) buffers, bit-identical to the same loop of fresh arrays.  The
reference manifest records the path taken under "propagation".

A reference is one run of "tsfp", "exfp" or "exfd" to each snapshot time,
cached to disk as one .npz file (complex128 snapshots and a JSON string
with the grid, the times and the manifest); the round trip is bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .grid import SpinorField, TorusGrid, apply_sym2, subsample, sym2
from .model import ProblemSetup
from .stepping import Stepper, k_matrix, whole_steps

__all__ = [
    "free_dirac_exact", "TSFPStepper", "EXStepper",
    "ReferenceSolution", "reference_solution",
    "reference_cache_key", "save_reference", "load_reference", "ReferenceCache",
]

FORMAT = "npz1"  # in the cache key, so files of another format are never found
SUBSTEP_ORDER = "potential-first"
# exact flow -> its kind in the cache key; exfp keeps the former "exact" digest
EXACT_FLOWS = {"exfp": "exact", "exfd": "exfd"}

def _free_multipliers(grid: TorusGrid, t: float):
    mu = grid.mu_fft
    delta = np.sqrt(1.0 + mu * mu)
    c = np.cos(t * delta)
    s = np.sin(t * delta) / delta
    return sym2(c - 1j * s, -1j * s * mu, c + 1j * s)


def _apply_free(values: np.ndarray, multipliers) -> np.ndarray:
    return np.fft.ifft(apply_sym2(multipliers, np.fft.fft(values, axis=-1)), axis=-1)


def free_dirac_exact(phi0: SpinorField, t: float) -> SpinorField:
    """Evolve the trigonometric interpolant of phi0 under the free equation."""
    return SpinorField(phi0.grid, _apply_free(phi0.values, _free_multipliers(phi0.grid, t)))


class TSFPStepper(Stepper):
    """Strang splitting over the Fourier derivative: the scheme "tsfp" and
    the integrator of every TSFP reference.

    potential half step (t + tau/4), full free step, potential half step
    (t + 3*tau/4); potentials at the half-interval midpoints matter only in
    the time-dependent case.
    """

    pattern = "ts{}"
    needs_history = False

    def _prepare(self):
        self._free_mult = _free_multipliers(self.grid, self.tau)

    def _potential_multipliers(self, s: float, t: float):
        """(m11, m12, m22) of exp(-i s eps (V I2 - A1 sigma1)) at time t."""
        ev, ea = self._kept(self._eps_potentials, t)
        phase = np.exp(-1j * s * ev)
        u = phase * np.cos(s * ea)
        return sym2(u, 1j * phase * np.sin(s * ea), u)

    def _half_flow(self, t: float):
        return self._potential_multipliers(0.5 * self.tau, t)

    def _step(self, prev, curr, t) -> np.ndarray:
        first = self._kept(self._half_flow, t + 0.25 * self.tau)
        last = self._kept(self._half_flow, t + 0.75 * self.tau)
        return apply_sym2(last, _apply_free(apply_sym2(first, curr), self._free_mult))

    def _loop(self, n_steps: int) -> None:
        """The step loop with interior potential half steps merged into full
        ones.  It works in two (2, N) buffers, one scratch array and the full
        step's multipliers made once per call, and leaves a fresh array."""
        if not self._time_independent:
            return super()._loop(n_steps)
        half, full = self._kept(self._half_flow, 0.0), self._potential_multipliers(self.tau, 0.0)
        x, y, tmp = (np.empty_like(self._curr) for _ in range(3))
        apply_sym2(half, self._curr, out=x, tmp=tmp)
        for k in range(n_steps):
            np.fft.fft(x, axis=-1, out=y)
            apply_sym2(self._free_mult, y, out=x, tmp=tmp)
            np.fft.ifft(x, axis=-1, out=y)
            if k < n_steps - 1:
                apply_sym2(full, y, out=x, tmp=tmp)
        self._curr = apply_sym2(half, y, tmp=tmp)
        self.n += n_steps
        self.t += n_steps * self.tau


class EXStepper(Stepper):
    """The semi-discrete flow i dPhi/dt = K Phi, exact in time ("exfd", "exfp"),
    by one eigh of the steppers' own K = Q diag(w) Q^H (eps*V, eps*A1 at t = 0):
    a step is Q exp(-i w tau) Q^H, and `propagate(n)` is Q exp(-i w t) Q^H Phi0
    at t = n tau from the initial coefficients, never building or powering M."""

    pattern = "ex{}"
    needs_history = False

    @classmethod
    def refuse(cls, problem) -> None:
        if not problem.time_independent or problem.grid.N > 1024:  # eigh: 11.6 s, 67 MB
            raise ConfigurationError(f"the exact flow needs time-independent potentials "
                                     f"and N <= 1024, got N={problem.grid.N}")

    @staticmethod
    def task_cost(n_nodes: int, t: float, tau: float) -> float:
        return n_nodes ** 3 / 8  # the eigh takes about as long as N^2/8 TSFP steps

    def _prepare(self):
        k = k_matrix(self.space, *self._kept(self._eps_potentials, 0.0))
        self._w, self._q = np.linalg.eigh(k)
        self._coef = self._q.conj().T @ self._curr.reshape(-1)

    def _step(self, prev, curr, t) -> np.ndarray:
        cols = np.moveaxis(curr, -1, 1).reshape(2 * self.grid.N, -1)  # a column per field
        new = self._q @ (np.exp(-1j * self._w * self.tau)[:, None] * (self._q.conj().T @ cols))
        return np.moveaxis(new.reshape(2, self.grid.N, *curr.shape[1:-1]), 1, -1)

    def propagate(self, n_steps: int) -> None:
        if n_steps > 0:
            self.propagation.add("eigh")
            self.n, self.t = self.n + n_steps, self.t + n_steps * self.tau
            phase = np.exp(-1j * self._w * (self.n * self.tau))
            self._curr = (self._q @ (phase * self._coef)).reshape(2, -1)


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
    the step tau_e, or of the exact flow that tau_e names ("exfp", "exfd"),
    stepped by the first positive target time (one step for one target)."""
    from .schemes import make_stepper  # schemes registers the steppers above

    exact = tau_e in EXACT_FLOWS
    if not (exact or isinstance(tau_e, (int, float)) and tau_e > 0):
        raise ConfigurationError(f"tau_e must be positive, or exfp or exfd; got {tau_e!r}")
    scheme, tau = ((tau_e, min((t for t in t_targets if t > 0), default=1.0)) if exact
                   else ("tsfp", tau_e))
    problem = setup.discretize(h=h_e)
    steps = {whole_steps(t, tau, "snapshot time", "tau_e"): float(t) for t in t_targets}
    stepper, fields = make_stepper(scheme, problem, tau), {}
    for k in sorted(steps):
        stepper.propagate(k - stepper.n)
        fields[steps[k]] = stepper.phi.copy()
    manifest = {
        "kind": scheme,
        **({"substep_order": SUBSTEP_ORDER} if scheme == "tsfp" else {}),
        "propagation": stepper.propagation_label,
        "h_e": problem.grid.h,
        "tau_e": None if exact else tau,
        "N": problem.grid.N,
        "epsilon": setup.epsilon,
        "problem": setup.key,
        "times": sorted(fields),
    }
    return ReferenceSolution(problem.grid, fields, manifest)


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
        "substep_order": SUBSTEP_ORDER,
        "kind": EXACT_FLOWS.get(tau_e, "tsfp"),
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
