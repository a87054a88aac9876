"""Error measurement, convergence tables, epsilon sweeps, CSV emission.

Errors against a reference solution at time t:

    e_phi = || Phi^n - Phi_ref ||_{l2}
    e_rho = || rho^n - rho_ref ||_{l1}
    e_J   = || J^n  - J_ref  ||_{l1}

Tables refine (h, tau) -> (h, tau)/2^k and report order = log2(e_k / e_{k+1})
between consecutive levels (plain cell ratios, no fitting); the "diagonal"
marks the level where the mesh matches sqrt(eps) scaling relative to the
first row (level = log4(eps_0/eps)).
"""

from __future__ import annotations

import io
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, Dirac1DError, StabilityError
from .grid import SpinorField, norm, scalar_norm
from .model import (DiracProblem, ProblemSetup, check_bounds, current, density, energy_fd,
                    energy_fp)
from .reference import ReferenceCache, exact_free_reference, reference_solution
from .schemes import make_stepper
from .stability import validate

__all__ = [
    "SchemeConfig", "SimulationResult", "run_simulation",
    "ErrorReport", "measure_errors",
    "ReferenceConfig", "build_reference",
    "ConvergenceTable", "convergence_table",
    "epsilon_sweep_temporal", "epsilon_sweep_spatial",
    "emit_csv", "emit_plot_data",
    "ErrorSeries", "compare_over_time",
]


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------

@dataclass
class SchemeConfig:
    """One run request: scheme, time step and run switches."""

    scheme: str
    tau: float
    t_final: Optional[float] = None
    record: str = "mass"            # "none" | "mass" | "mass+energy"
    record_every: int = 1
    override_stability: bool = False
    stop_norm_ratio: Optional[float] = None
    verify_potential_bounds: bool = True

    def __post_init__(self):
        if self.record not in ("none", "mass", "mass+energy"):
            raise ConfigurationError(f"unknown record mode {self.record!r}")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1")


@dataclass
class SimulationResult:
    scheme: str
    tau: float
    final: SpinorField
    n_steps: int
    times: Optional[np.ndarray]
    mass_series: Optional[np.ndarray]
    energy_series: Optional[np.ndarray]
    wall_time: float
    blew_up: bool = False
    blowup_step: Optional[int] = None

    @property
    def max_norm_ratio(self) -> float:
        """max_n ||Phi^n|| / ||Phi^0|| over the recorded steps."""
        if self.mass_series is None or self.mass_series[0] == 0:
            return float("nan")
        return float(np.sqrt(np.nanmax(self.mass_series) / self.mass_series[0]))


def _steps_for(t_final: float, tau: float) -> int:
    n = int(round(t_final / tau))
    if n < 0 or abs(n * tau - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ConfigurationError(
            f"horizon {t_final} is not an integer number of steps of tau={tau}"
        )
    return n


def _checked_stepper(problem: DiracProblem, config: SchemeConfig):
    """(stepper, step count) for a run request, after the checks every run
    passes: the stability verdict from the declared potential bounds (never
    sampled, so verdicts are deterministic), a whole number of steps to the
    horizon, and a dense sample of the potentials against those bounds."""
    pots = problem.potentials
    verdict = validate(config.scheme, problem.grid.h, config.tau, pots.v_max, pots.a_max)
    if not verdict.ok and not config.override_stability:
        raise StabilityError(
            f"unstable configuration: {verdict}; pass override_stability to force",
            verdict=verdict,
        )
    t_final = config.t_final if config.t_final is not None else problem.t_final
    n_steps = _steps_for(t_final, config.tau)
    if config.verify_potential_bounds and problem.epsilon > 0:
        check_bounds(pots, problem.grid, t_final)
    return make_stepper(config.scheme, problem, config.tau), n_steps


def run_simulation(problem: DiracProblem, config: SchemeConfig) -> SimulationResult:
    """Drive a scheme from Phi0 to the horizon, recording observables.

    Refuses configurations outside the scheme's stability region unless
    config.override_stability is set (needed for blow-up witness runs).
    Solution blow-up (non-finite values, or norm beyond stop_norm_ratio)
    ends the run early and is reported, not raised.
    """
    stepper, n_steps = _checked_stepper(problem, config)
    pots = problem.potentials

    record_mass = config.record in ("mass", "mass+energy")
    record_energy = config.record == "mass+energy"
    if record_energy and not pots.time_independent:
        raise ConfigurationError("energy recording needs time-independent potentials")
    energy_fn = energy_fd if stepper.space.name == "fd" else energy_fp

    h = problem.grid.h
    times, masses, energies = [], [], []

    def observe(values, t):
        if record_mass:
            times.append(t)
            masses.append(h * float((np.abs(values[0]) ** 2 + np.abs(values[1]) ** 2).sum()))
            if record_energy:
                energies.append(energy_fn(SpinorField(problem.grid, values),
                                          pots, problem.epsilon))

    observe(stepper._curr, 0.0)
    mass0 = h * float((np.abs(stepper._curr[0]) ** 2 + np.abs(stepper._curr[1]) ** 2).sum())
    watch = config.stop_norm_ratio is not None
    stop_mass = (config.stop_norm_ratio ** 2) * mass0 if watch else None

    blew_up = False
    blowup_step = None
    t0 = time.perf_counter()
    for k in range(1, n_steps + 1):
        stepper.advance()
        values = stepper._curr
        if k % config.record_every == 0 or k == n_steps:
            observe(values, stepper.t)
            # one reduction over every node: a NaN or inf anywhere makes the sum non-finite
            if not np.isfinite(values.sum()):
                blew_up, blowup_step = True, k
                break
        if watch:
            m = h * float((np.abs(values[0]) ** 2 + np.abs(values[1]) ** 2).sum())
            if not math.isfinite(m) or m > stop_mass:
                blew_up, blowup_step = True, k
                if record_mass and (not times or times[-1] != stepper.t):
                    times.append(stepper.t)
                    masses.append(m)
                break
    wall = time.perf_counter() - t0
    if not blew_up and not np.all(np.isfinite(stepper._curr)):
        blew_up, blowup_step = True, n_steps

    return SimulationResult(
        scheme=config.scheme.lower(),
        tau=config.tau,
        final=stepper.phi.copy(),
        n_steps=stepper.n,
        times=np.array(times) if record_mass else None,
        mass_series=np.array(masses) if record_mass else None,
        energy_series=np.array(energies) if record_energy else None,
        wall_time=wall,
        blew_up=blew_up,
        blowup_step=blowup_step,
    )


# ---------------------------------------------------------------------------
# error measurement
# ---------------------------------------------------------------------------

@dataclass
class ErrorReport:
    e_phi: float
    e_rho: float
    e_j: float
    t: float
    scheme: str = ""
    h: float = float("nan")
    tau: float = float("nan")
    epsilon: float = float("nan")

    def is_finite(self) -> bool:
        return all(map(math.isfinite, (self.e_phi, self.e_rho, self.e_j)))


def measure_errors(sol: SpinorField, ref: SpinorField, t: float = float("nan"),
                   scheme: str = "", tau: float = float("nan"),
                   epsilon: float = float("nan")) -> ErrorReport:
    """Wave-function l2 error plus density/current l1 errors vs a reference."""
    if sol.grid != ref.grid:
        raise ConfigurationError("solution and reference live on different grids")
    diff = SpinorField(sol.grid, sol.values - ref.values)
    return ErrorReport(
        e_phi=norm(diff, "l2"),
        e_rho=scalar_norm(density(sol) - density(ref), sol.grid.h, "l1"),
        e_j=scalar_norm(current(sol) - current(ref), sol.grid.h, "l1"),
        t=t, scheme=scheme, h=sol.grid.h, tau=tau, epsilon=epsilon,
    )


# ---------------------------------------------------------------------------
# references for tables
# ---------------------------------------------------------------------------

@dataclass
class ReferenceConfig:
    """How table cells obtain their reference solution.

    kind "tsfp": Strang-split run at (h_e, tau_e); unset values default to
    (finest test h)/space_factor and (finest test tau)/time_factor, and
    tau_e must be min_time_ratio x finer than the finest test tau.
    kind "exact": exact free evolution (free problems only) sampled at h_e.
    Either kind must be min_space_ratio x finer in space than each test grid.
    """

    space_factor: ClassVar[float] = 4.0
    time_factor: ClassVar[float] = 8.0
    min_time_ratio: ClassVar[float] = 4.0

    kind: str = "tsfp"
    h_e: Optional[float] = None
    tau_e: Optional[float] = None
    min_space_ratio: float = 4.0
    allow_interpolation: bool = False
    cache: Optional[ReferenceCache] = None

    def __post_init__(self):
        if self.kind not in ("tsfp", "exact"):
            raise ConfigurationError(f"unknown reference kind {self.kind!r}")


def build_reference(setup: ProblemSetup, ref_cfg: ReferenceConfig,
                    h_finest: float, tau_finest: float,
                    t_targets: Sequence[float]):
    """Materialize the reference for one epsilon row of a table."""
    h_e = ref_cfg.h_e if ref_cfg.h_e is not None else h_finest / ref_cfg.space_factor
    if ref_cfg.kind == "exact":
        return exact_free_reference(setup, h_e, t_targets)
    tau_e = ref_cfg.tau_e if ref_cfg.tau_e is not None else tau_finest / ref_cfg.time_factor
    if tau_e > tau_finest / ref_cfg.min_time_ratio * (1 + 1e-12):
        raise ConfigurationError(
            f"reference tau_e={tau_e} is not {ref_cfg.min_time_ratio:g}x finer than "
            f"the finest test tau={tau_finest}"
        )
    if ref_cfg.cache is not None:
        return ref_cfg.cache.fetch(setup, h_e, tau_e, t_targets)
    return reference_solution(setup, h_e, tau_e, t_targets)


# ---------------------------------------------------------------------------
# convergence tables
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceTable:
    scheme: str
    eps_list: list
    levels: int
    kind: str  # "space-time" | "temporal" | "spatial"
    cells: dict = field(default_factory=dict)  # (eps_idx, level) -> ErrorReport

    def cell(self, eps_idx: int, level: int) -> ErrorReport:
        return self.cells[(eps_idx, level)]

    def errors(self, which: str = "e_phi") -> np.ndarray:
        out = np.full((len(self.eps_list), self.levels), np.nan)
        for (i, k), rep in self.cells.items():
            out[i, k] = getattr(rep, which)
        return out

    def orders(self, which: str = "e_phi") -> np.ndarray:
        """order[i, k] = log2(e[i, k-1] / e[i, k]); column 0 is NaN."""
        e = self.errors(which)
        out = np.full_like(e, np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[:, 1:] = np.log2(e[:, :-1] / e[:, 1:])
        return out

    def diagonal_index(self, eps: float) -> int:
        """Level where the mesh reaches sqrt(eps) scaling vs the first row."""
        eps0 = self.eps_list[0]
        return int(round(math.log(eps0 / eps, 4.0))) if eps > 0 else 0


def _run_cell(setup: ProblemSetup, scheme: str, h: float, tau: float,
              t_target: float, reference, ref_cfg: ReferenceConfig) -> ErrorReport:
    problem = setup.discretize(h=h)
    config = SchemeConfig(scheme=scheme, tau=tau, record="none",
                          verify_potential_bounds=False)
    try:
        result = run_simulation(problem, config)
        if result.blew_up:
            raise Dirac1DError(f"blow-up at step {result.blowup_step}")
        ref_field = reference.restricted(
            t_target, problem.grid,
            allow_interpolation=ref_cfg.allow_interpolation,
            min_space_ratio=ref_cfg.min_space_ratio,
        )
        return measure_errors(result.final, ref_field, t=t_target, scheme=scheme,
                              tau=tau, epsilon=setup.epsilon)
    except (StabilityError, Dirac1DError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        nan = float("nan")
        return ErrorReport(nan, nan, nan, t=t_target, scheme=scheme, h=h,
                           tau=tau, epsilon=setup.epsilon)


def _run_row(setup: ProblemSetup, scheme: str, pairs: Sequence[tuple],
             t_target: float, ref_cfg: ReferenceConfig) -> list:
    h_finest = min(p[0] for p in pairs)
    tau_finest = min(p[1] for p in pairs)
    reference = build_reference(setup, ref_cfg, h_finest, tau_finest, [t_target])
    return [_run_cell(setup, scheme, h, tau, t_target, reference, ref_cfg)
            for (h, tau) in pairs]


def _ladder_table(setup: ProblemSetup, scheme: str, eps_list: Sequence[float],
                  levels: int, pair_of_level: Callable[[int], tuple],
                  ref_cfg: Optional[ReferenceConfig], workers: int,
                  kind: str) -> ConvergenceTable:
    ref_cfg = ref_cfg or ReferenceConfig()
    pairs = [pair_of_level(k) for k in range(levels)]
    table = ConvergenceTable(scheme=scheme.lower(), eps_list=list(eps_list),
                             levels=levels, kind=kind)
    h_finest = min(p[0] for p in pairs)
    jobs = []
    for eps in eps_list:
        s_eps = setup.with_epsilon(eps)
        t_target = s_eps.T0 / eps if eps > 0 else s_eps.T0
        if eps > 0:
            # cells skip this check; run it once per row, here in the parent
            # process, so that its warning reaches the caller with workers > 1
            check_bounds(s_eps.potentials, s_eps.grid_for_mesh(h_finest), t_target)
        jobs.append((s_eps, scheme, pairs, t_target, ref_cfg))

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_row_star, jobs))
    else:
        rows = [_run_row(*job) for job in jobs]

    for i, row in enumerate(rows):
        for k, rep in enumerate(row):
            table.cells[(i, k)] = rep
    return table


def _run_row_star(args):
    return _run_row(*args)


def convergence_table(setup: ProblemSetup, scheme: str, eps_list: Sequence[float],
                      h0: float, tau0: float, levels: int,
                      reference: Optional[ReferenceConfig] = None,
                      workers: int = 1) -> ConvergenceTable:
    """Simultaneous (h, tau) refinement table at t = T0/eps per epsilon row."""
    return _ladder_table(setup, scheme, eps_list, levels,
                         lambda k: (h0 / 2 ** k, tau0 / 2 ** k),
                         reference, workers, "space-time")


def epsilon_sweep_temporal(setup: ProblemSetup, scheme: str, eps_list: Sequence[float],
                           tau0: float, levels: int, h: float,
                           reference: Optional[ReferenceConfig] = None,
                           workers: int = 1) -> ConvergenceTable:
    """Tau refinement at fixed (fine) h."""
    return _ladder_table(setup, scheme, eps_list, levels,
                         lambda k: (h, tau0 / 2 ** k),
                         reference, workers, "temporal")


def epsilon_sweep_spatial(setup: ProblemSetup, scheme: str, eps_list: Sequence[float],
                          h0: float, levels: int, tau: float,
                          reference: Optional[ReferenceConfig] = None,
                          workers: int = 1) -> ConvergenceTable:
    """h refinement at fixed (fine) tau."""
    return _ladder_table(setup, scheme, eps_list, levels,
                         lambda k: (h0 / 2 ** k, tau),
                         reference, workers, "spatial")


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.6g}"


def emit_csv(table: ConvergenceTable) -> str:
    """Deterministic CSV: one row per (epsilon, level), LF endings."""
    out = io.StringIO()
    out.write("epsilon,level,h,tau,e_phi,e_rho,e_J,order_phi,order_rho,order_J,diagonal\n")
    orders = {w: table.orders(w) for w in ("e_phi", "e_rho", "e_j")}
    for i, eps in enumerate(table.eps_list):
        diag = table.diagonal_index(eps)
        for k in range(table.levels):
            rep = table.cells.get((i, k))
            if rep is None:
                continue
            row = [
                _fmt(eps), str(k), _fmt(rep.h), _fmt(rep.tau),
                _fmt(rep.e_phi), _fmt(rep.e_rho), _fmt(rep.e_j),
                _fmt(orders["e_phi"][i, k]) if k > 0 else "",
                _fmt(orders["e_rho"][i, k]) if k > 0 else "",
                _fmt(orders["e_j"][i, k]) if k > 0 else "",
                "1" if k == diag else "0",
            ]
            out.write(",".join(row) + "\n")
    return out.getvalue()


@dataclass
class ErrorSeries:
    """A labelled (t, value) series, e.g. e_phi over time for one scheme."""

    label: str
    times: np.ndarray
    values: np.ndarray


def emit_plot_data(series: Sequence[ErrorSeries]) -> str:
    """Wide CSV with a shared t column and one value column per series."""
    if not series:
        return "t\n"
    t0 = series[0].times
    for s in series[1:]:
        if len(s.times) != len(t0) or not np.allclose(s.times, t0):
            raise ConfigurationError("all series must share the same time grid")
    out = io.StringIO()
    out.write("t," + ",".join(s.label for s in series) + "\n")
    for j, t in enumerate(t0):
        out.write(_fmt(float(t)) + "," + ",".join(_fmt(float(s.values[j])) for s in series) + "\n")
    return out.getvalue()


def compare_over_time(setup: ProblemSetup, schemes: Sequence[str], h: float,
                      tau: float, n_snapshots: int,
                      reference: Optional[ReferenceConfig] = None) -> list:
    """e_phi(t) sampled along the run for each scheme (plot-data source)."""
    ref_cfg = reference or ReferenceConfig()
    t_final = setup.T0 / setup.epsilon if setup.epsilon > 0 else setup.T0
    snap_times = [t_final * (j + 1) / n_snapshots for j in range(n_snapshots)]
    steps = [_steps_for(t, tau) for t in snap_times]
    steppers = [_checked_stepper(setup.discretize(h=h), SchemeConfig(scheme, tau, t_final=t_final))[0]
                for scheme in schemes]
    ref = build_reference(setup, ref_cfg, h, tau, snap_times)

    out = []
    for scheme, stepper in zip(schemes, steppers):
        values = []
        done = 0
        for t_snap, k in zip(snap_times, steps):
            for _ in range(k - done):
                stepper.advance()
            done = k
            ref_field = ref.restricted(t_snap, stepper.grid,
                                       allow_interpolation=ref_cfg.allow_interpolation,
                                       min_space_ratio=ref_cfg.min_space_ratio)
            values.append(measure_errors(stepper.phi, ref_field).e_phi)
        out.append(ErrorSeries(scheme.lower(), np.array(snap_times), np.array(values)))
    return out
