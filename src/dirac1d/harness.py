"""Error measurement, convergence tables, epsilon sweeps, CSV emission.

Errors against a reference solution at time t:

    e_phi = || Phi^n - Phi_ref ||_{l2}
    e_rho = || rho^n - rho_ref ||_{l1}
    e_J   = || J^n  - J_ref  ||_{l1}

Tables refine (h, tau) -> (h, tau)/2^k and report order = log2(e_k / e_{k+1})
between consecutive levels (plain cell ratios, no fitting); the "diagonal"
marks the level where the mesh matches sqrt(eps) scaling relative to the
first row (level = log4(eps_0/eps)).

Every run, table cell and compared scheme gets its stepper through one
gate, `_checked_stepper` (finite tau and horizon, stability verdict, whole
number of steps).
`check_bounds` samples the potentials where the horizon is fixed: once
per run, per `compare_over_time` and per table row.  Runs and cells move
by `Stepper.run`, which picks the path and judges blow-up
(:mod:`dirac1d.stepping`); a run maps its `SchemeConfig` to what `run`
observes and watches.

A table is split into independent tasks: one per eps-row reference and one
per cell.  A cell's run does not need the reference, only its error does,
so the parent process makes each row's `ReferenceConfig.request`, which
refuses what the reference cannot serve, before any task starts, runs the
tasks, and then restricts each reference and measures each cell itself.  A
row whose reference the config already keeps gets no reference task: the
FD and FP sweeps of one setup and one config share their references.
Tasks run longest first by their scheme's estimate (`Stepper.task_cost`),
steps x nodes: (t/tau) N, or N^3/8 for an exact flow (its eigh takes about
as long as N^2/8 TSFP steps).  Since t = T0/eps, the smallest-eps reference
usually leads.  With workers > 1 the same tasks go to a process pool of
one BLAS thread per worker, in that order; the first task that raises
cancels the ones still queued, and its error is raised as in a serial run.
"""

from __future__ import annotations

import ctypes
import glob
import io
import math
import numbers
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, SolverError, StabilityError
from .grid import SpinorField, norm
from .model import DiracProblem, ProblemSetup, check_bounds, current, density, mass
from .reference import ReferenceConfig, ReferenceSolution, reference_solution
from .schemes import lookup, make_stepper, validate
from .stepping import whole_steps

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

@dataclass(frozen=True)
class SchemeConfig:
    """One run request: scheme, time step and run switches; frozen, so checked."""

    scheme: str
    tau: float
    t_final: Optional[float] = None
    record: str = "mass"            # "none" | "mass" | "mass+energy"
    record_every: int = 1
    override_stability: bool = False
    stop_norm_ratio: Optional[float] = None

    def __post_init__(self):
        if self.record not in ("none", "mass", "mass+energy"):
            raise ConfigurationError(f"unknown record mode {self.record!r}")
        every, ratio = self.record_every, self.stop_norm_ratio
        if isinstance(every, bool) or not isinstance(every, numbers.Integral) or every < 1:
            raise ConfigurationError(f"record_every must be >= 1 and an integer, got {every!r}")
        if ratio is not None and not ratio > 1:  # NaN too
            raise ConfigurationError(f"stop_norm_ratio must be above 1, got {ratio!r}")


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
    propagation: str = "none"  # "dense-power", "dense-step", "stepwise" or "eigh"

    @property
    def max_norm_ratio(self) -> float:
        """max_n ||Phi^n|| / ||Phi^0|| over the recorded steps."""
        if self.mass_series is None or self.mass_series[0] == 0:
            return float("nan")
        return float(np.sqrt(np.nanmax(self.mass_series) / self.mass_series[0]))


def _checked_stepper(problem: DiracProblem, scheme: str, tau: float, t_final: float,
                     override_stability: bool = False):
    """(stepper, step count to t_final), the gate of every run, cell and
    compared scheme: finite tau and horizon, the stability verdict from the
    declared potential bounds scaled by eps, as the operator sees them (never
    sampled, so verdicts are deterministic), and whole steps to the horizon."""
    if not (math.isfinite(t_final) and math.isfinite(tau)):
        raise ConfigurationError(f"horizon {t_final} and tau={tau} must be finite")
    verdict = validate(scheme, problem.grid.h, tau, *problem.operator_bounds)
    if not verdict.ok and not override_stability:
        raise StabilityError(
            f"unstable configuration: {verdict}; pass override_stability to force",
            verdict=verdict,
        )
    stepper = make_stepper(scheme, problem, tau)  # refuses tau = 0
    return stepper, whole_steps(t_final, tau)


def run_simulation(problem: DiracProblem, config: SchemeConfig) -> SimulationResult:
    """Drive a scheme from Phi0 to the horizon, recording observables.

    Refuses configurations outside the scheme's stability region unless
    config.override_stability is set (needed for blow-up witness runs).
    `Stepper.run` picks the path and ends the run at a blow-up, reported,
    not raised: a recorded step whose sum is not finite, or any step whose
    mass exceeds stop_norm_ratio^2 times the first, is recorded like every
    other observation and is the last step.
    """
    t_final = problem.t_final if config.t_final is None else config.t_final
    stepper, n_steps = _checked_stepper(problem, config.scheme, config.tau, t_final,
                                        config.override_stability)
    if problem.epsilon > 0:
        check_bounds(problem.potentials, problem.grid, t_final)

    record_mass = config.record in ("mass", "mass+energy")
    record_energy = config.record == "mass+energy"
    times, masses, energies = [], [], []

    def observe(t):
        times.append(t)
        masses.append(mass(stepper.phi))
        if record_energy:
            energies.append(stepper.energy())

    ratio = config.stop_norm_ratio
    t0 = time.perf_counter()
    blowup_step = stepper.run(n_steps, config.record_every, observe if record_mass else None,
                              None if ratio is None else ratio ** 2 * mass(stepper.phi))
    wall = time.perf_counter() - t0

    return SimulationResult(
        scheme=config.scheme.lower(),
        tau=config.tau,
        final=stepper.phi.copy(),
        n_steps=stepper.n,
        times=np.array(times) if record_mass else None,
        mass_series=np.array(masses) if record_mass else None,
        energy_series=np.array(energies) if record_energy else None,
        wall_time=wall,
        blew_up=blowup_step is not None,
        blowup_step=blowup_step,
        propagation=stepper.propagation_label,
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


def measure_errors(sol: SpinorField, ref: SpinorField, t: float = float("nan"),
                   scheme: str = "", tau: float = float("nan"),
                   epsilon: float = float("nan")) -> ErrorReport:
    """Wave-function l2 error plus density/current l1 errors vs a reference."""
    if sol.grid != ref.grid:
        raise ConfigurationError("solution and reference live on different grids")
    diff = SpinorField(sol.grid, sol.values - ref.values)
    return ErrorReport(
        e_phi=norm(diff, "l2"),
        e_rho=float(sol.grid.h * np.abs(density(sol) - density(ref)).sum()),
        e_j=float(sol.grid.h * np.abs(current(sol) - current(ref)).sum()),
        t=t, scheme=scheme, h=sol.grid.h, tau=tau, epsilon=epsilon,
    )


# ---------------------------------------------------------------------------
# references for tables
# ---------------------------------------------------------------------------

def build_reference(setup: ProblemSetup, ref_cfg: ReferenceConfig,
                    h_finest: float, tau_finest: float,
                    t_targets: Sequence[float]) -> ReferenceSolution:
    """Materialize the reference for one epsilon row of a table."""
    h_e, tau_e = ref_cfg.mesh(h_finest, tau_finest)
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
        """Level where the mesh reaches sqrt(eps) scaling vs the first row;
        no level (negative) for an eps above the first row's: -1 above a
        first row of 0."""
        eps0 = self.eps_list[0]
        if eps <= 0:
            return 0
        return int(round(math.log(eps0 / eps, 4.0))) if eps0 > 0 else -1


def _run_cell(setup: ProblemSetup, scheme: str, h: float, tau: float,
              t_target: float) -> Optional[SpinorField]:
    """A cell's state at t_target, or None if its run was unstable, failed or
    blew up; a ConfigurationError propagates."""
    try:
        stepper, n_steps = _checked_stepper(setup.discretize(h=h), scheme, tau, t_target)
        blew_up = stepper.run(n_steps) is not None
    except (StabilityError, SolverError):
        return None
    return None if blew_up else stepper.phi.copy()


def _run_row(task: str, *args) -> list:
    """One pool task, its result as a one-item list: a row's reference
    ("reference", build_reference's arguments) or a cell's final state
    ("cell", _run_cell's arguments)."""
    return [build_reference(*args) if task == "reference" else _run_cell(*args)]


def _run_row_star(args):
    return _run_row(*args)


def _one_blas_thread():
    """Pool initializer: numpy's bundled OpenBLAS runs one thread in this worker."""
    for path in glob.glob(np.__path__[0] + "/../numpy.libs/libscipy_openblas*.so"):
        try:
            ctypes.CDLL(path).scipy_openblas_set_num_threads64_(ctypes.c_int(1))
        except (OSError, AttributeError):  # another build: nothing to set
            pass


def _run_tasks(tasks: list, workers: int) -> list:
    """`_run_row` of each task, in order.  With workers > 1 they run in a
    pool of at most one process per task; the first task (in this order)
    that raises has its error raised, and the tasks still queued are cancelled."""
    if workers <= 1:
        return [_run_row(*task) for task in tasks]
    pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)), initializer=_one_blas_thread)
    try:
        futures = [pool.submit(_run_row_star, task) for task in tasks]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    # a task runs only after every task before it has started, and shutdown
    # waits for started tasks: the first failure in this order is not cancelled
    return [future.result() for future in futures]


def _ladder_table(setup: ProblemSetup, scheme: str, eps_list: Sequence[float],
                  levels: int, pair_of_level: Callable[[int], tuple],
                  ref_cfg: Optional[ReferenceConfig], workers: int) -> ConvergenceTable:
    ref_cfg = ref_cfg or ReferenceConfig()
    if len(eps_list) == 0:
        raise ConfigurationError("eps_list is empty")
    if levels < 1:
        raise ConfigurationError(f"levels must be >= 1, got {levels}")
    pairs = [pair_of_level(k) for k in range(levels)]
    table = ConvergenceTable(scheme=scheme.lower(), eps_list=list(eps_list), levels=levels)
    h_finest = min(p[0] for p in pairs)
    tau_finest = min(p[1] for p in pairs)
    scheme_cls = lookup(scheme)[0]
    rows, tasks = [], []  # tasks: (estimated steps x nodes, key, task)
    for i, eps in enumerate(eps_list):
        s_eps = setup.with_epsilon(eps)
        t_target = s_eps.t_final
        ref_key, reference, ref_cost = ref_cfg.request(s_eps, h_finest, tau_finest, [t_target],
                                                       [h for h, _ in pairs])
        if eps > 0:
            # once per row, here in the parent process, so that its warning
            # reaches the caller with workers > 1
            check_bounds(s_eps.potentials, s_eps.grid_for_mesh(h_finest), t_target)
        rows.append((s_eps, t_target, ref_key, reference))
        if reference is None:
            tasks.append((ref_cost, i,
                          ("reference", s_eps, ref_cfg, h_finest, tau_finest, [t_target])))
        for k, (h, tau) in enumerate(pairs):
            tasks.append((scheme_cls.task_cost(s_eps.grid_for_mesh(h).N, t_target, tau), (i, k),
                          ("cell", s_eps, scheme, h, tau, t_target)))

    tasks.sort(key=lambda task: -task[0])  # longest first; stable on ties
    done = dict(zip([key for _, key, _ in tasks],
                    _run_tasks([task for _, _, task in tasks], workers)))

    for i, (s_eps, t_target, ref_key, reference) in enumerate(rows):
        if reference is None:
            [reference] = done[i]
        ref_cfg.keep(ref_key, reference)
        for k, (h, tau) in enumerate(pairs):
            [final] = done[(i, k)]
            if final is None:
                nan = float("nan")
                table.cells[(i, k)] = ErrorReport(nan, nan, nan, t=t_target, scheme=scheme,
                                                  h=h, tau=tau, epsilon=s_eps.epsilon)
                continue
            ref_field = reference.restricted(t_target, final.grid,
                                             min_space_ratio=ref_cfg.min_space_ratio)
            table.cells[(i, k)] = measure_errors(final, ref_field, t=t_target, scheme=scheme,
                                                 tau=tau, epsilon=s_eps.epsilon)
    return table


def convergence_table(setup: ProblemSetup, scheme: str, eps_list: Sequence[float],
                      h0: float, tau0: float, levels: int,
                      reference: Optional[ReferenceConfig] = None,
                      workers: int = 1) -> ConvergenceTable:
    """Simultaneous (h, tau) refinement table at t = T0/eps per epsilon row."""
    return _ladder_table(setup, scheme, eps_list, levels,
                         lambda k: (h0 / 2 ** k, tau0 / 2 ** k),
                         reference, workers)


def epsilon_sweep_temporal(setup: ProblemSetup, scheme: str, eps_list: Sequence[float],
                           tau0: float, levels: int, h: float,
                           reference: Optional[ReferenceConfig] = None,
                           workers: int = 1) -> ConvergenceTable:
    """Tau refinement at fixed (fine) h."""
    return _ladder_table(setup, scheme, eps_list, levels,
                         lambda k: (h, tau0 / 2 ** k),
                         reference, workers)


def epsilon_sweep_spatial(setup: ProblemSetup, scheme: str, eps_list: Sequence[float],
                          h0: float, levels: int, tau: float,
                          reference: Optional[ReferenceConfig] = None,
                          workers: int = 1) -> ConvergenceTable:
    """h refinement at fixed (fine) tau."""
    return _ladder_table(setup, scheme, eps_list, levels,
                         lambda k: (h0 / 2 ** k, tau),
                         reference, workers)


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
    if len(schemes) == 0:
        raise ConfigurationError("no scheme to compare")
    if n_snapshots < 1:
        raise ConfigurationError(f"n_snapshots must be >= 1, got {n_snapshots}")
    ref_cfg = reference or ReferenceConfig()
    t_final = setup.t_final
    problem = setup.discretize(h=h)
    snap_times = [t_final * (j + 1) / n_snapshots for j in range(n_snapshots)]
    ref_key, ref, _ = ref_cfg.request(setup, h, tau, snap_times, [h])
    steppers = [_checked_stepper(problem, scheme, tau, t_final)[0] for scheme in schemes]
    if setup.epsilon > 0:
        check_bounds(setup.potentials, problem.grid, t_final)
    # each snapshot's k tau, so that an exact flow too stands at its step;
    # a time that is no whole step is refused before the reference is built
    step_times = [whole_steps(t, tau) * tau for t in snap_times]
    if ref is None:
        ref = build_reference(setup, ref_cfg, h, tau, snap_times)
    ref_cfg.keep(ref_key, ref)

    ref_fields = [ref.restricted(t, problem.grid, min_space_ratio=ref_cfg.min_space_ratio)
                  for t in snap_times]
    out = []
    for scheme, stepper in zip(schemes, steppers):
        states = stepper.snapshots(step_times).values()  # in time order
        values = [measure_errors(f, r).e_phi for f, r in zip(states, ref_fields)]
        out.append(ErrorSeries(scheme.lower(), np.array(snap_times), np.array(values)))
    return out
