"""Shared time-stepping machinery: state, diagnostics, the launch of the
three-level schemes, and runs through the one-step matrix: long runs by
powering it, recorded runs by one mat-vec with it per step.

Every scheme is a Stepper subclass, built as `Stepper(space, problem, tau)`
over a space operator class (:mod:`dirac1d.schemes`), and owns its state,
which starts from the problem's initial data at t = 0; `advance()` moves
one step of size tau.  A three-level scheme takes its first step, with no
previous field, through `_launch`: forward Euler with the stepper's own K.

A step's coefficients at time t (eps*V, eps*A1 and what schemes derive
from them) come through one memo, `Stepper._kept(make, t)`: make(t) every
step, or make(0.0) made once per hook when `DiracProblem.time_independent`
holds, the property that also gates the dense paths and the energy record.

For time-independent potentials every scheme is a fixed linear map: CN and
TSFP advance Phi^n by a 2N x 2N matrix M, and the three-level schemes, once
launched, advance the pair [Phi^n; Phi^n-1] by the 4N x 4N companion
M = [[A, B], [I, 0]].  `Stepper.propagate(n)` forms M by applying the
scheme's own `_step` to blocks of identity columns, so M is the loop's
operator by construction, and applies M^n with k = `squarings(m, n)` for
the matrix size m: k squarings, one mat-vec with M^(2^j) per set bit j < k
of n, then n >> k mat-vecs with M^(2^k).  Only one vector needs M^n, so k
minimises

    k m^3 / MATMUL_MAC_PER_S
      + (popcount(n mod 2^k) + (n >> k)) (m^2 / MATVEC_MAC_PER_S + MATVEC_CALL_S)

over k < bit_length(n) (k = bit_length(n) - 1 is binary powering), which
leaves a tail of about m/3 .. 2m/3 mat-vecs at large m.  The squares up to
M^(2^k) stay on the stepper, and a later call squares further only when
its k is larger.  The result is the same discrete solution as the step
loop up to rounding.  It takes this path when

    m <= DENSE_MAX_SIZE  and
    2 * bit_length(n) * m^3 / MATMUL_MAC_PER_S < n * (STEP_S + STEP_S_PER_NODE * N),

i.e. when the complex multiply-adds of binary powering's squarings (twice,
as a margin for the build and the mat-vecs) at the measured single-thread
matmul rate cost less than the measured per-step time of the TSFP loop,
the cheapest step loop here, so the rule errs towards the loop for every
other scheme.  Binary powering costs more than the k squarings and the
tail, so the rule over-prices the dense path and errs towards the loop;
every run takes the path it took under binary powering.  The size cap
bounds the memory of the kept squares, (k + 1) m^2 16 bytes, at most
bit_length(n) m^2 16 bytes (13 MB at m = 256, n = 256000; 55 MB at
m = 512, n = 10^6, where binary powering kept 84 MB).  Time-dependent
potentials, larger grids and short runs keep the loop.  `propagation`
names the paths taken.

A run that must see every step (it records or watches one) can still step
by M: after `step_by_matrix`, `advance` is one mat-vec with M, or with its
top block row [A B] once a three-level scheme is launched, so a step costs
2N x m multiply-adds.  A run takes it when

    m <= DENSE_MAX_SIZE  and
    n * (loop - dense) > m * loop,   loop = STEP_S + STEP_S_PER_NODE * N,
                                     dense = 2 * 2N * m / MATMUL_MAC_PER_S,

i.e. when n steps at the mat-vec's cost (its multiply-adds twice, as
above) save more than building M, costed as m loop steps
(`dense_step_pays`; this implies dense < loop).  At N = 64 every scheme
takes it from a few hundred steps on; three-level schemes at N >= 128 do
not.  The step's arithmetic order differs from `_step`'s, so the states
agree with the loop's up to rounding, as powering's do.
`operator_matrix` builds M, and K (`k_matrix`), column block by column
block from the operator's own code, so neither is written out twice.

`Stepper.run(n, every, observe, stop_mass)` is the one method that picks a
run's path, for `run_simulation` and table cells alike.  A run that
observes and watches nothing is one `propagate` when every is None (a cell)
or `takes_dense_power(n)` holds.  Any other run steps through `advance`,
after `step_by_matrix` when `takes_dense_steps(n)` holds and before the
start's observation (so its energy too goes through K as a matrix), and
calls observe(t) at the start, after every `every`th and the last step, and
after a step whose mass passes stop_mass (NaN too).  It ends there or at an
observed step that is not finite, and returns that step, else None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .grid import SPACE_OPERATORS, SpinorField
from .model import DiracProblem, apply_k, discrete_energy, mass

# Dense-power rule (see the module docstring).  The rates are measured with
# one BLAS thread on a 2-core x86-64 VM (OpenBLAS 0.3, numpy 2.4): complex
# matmul at m = 128 .. 512 runs 6.3e9 .. 6.6e9 multiply-adds per second,
# the merged TSFP loop 35 us + 0.05 us * N per step (N = 8 .. 512).  In the
# sigma1 eigenbasis through scipy.fft it now runs 12 .. 14 us at N = 8 .. 64
# and 38 .. 42 us at N = 1024 (47 us before; same machine).  STEP_S and
# STEP_S_PER_NODE keep the earlier rate: a lower one would move runs near
# the crossover from dense to stepwise, and so change their rounding.  For
# TSFP the rule over-prices the loop as well as the dense path.
DENSE_MAX_SIZE = 512
MATMUL_MAC_PER_S = 6e9
STEP_S = 35e-6
STEP_S_PER_NODE = 0.05e-6
# Powering's tail (`squarings`).  A complex mat-vec with one BLAS thread
# runs 1.8e9 .. 4.0e9 multiply-adds per second at m = 128 .. 256 and
# 1.3e9 .. 1.6e9 at m = 512 .. 1024, and each call from Python costs about
# 2 us more (2.3 us at m = 32, 3.7 us at m = 64), while a squaring runs at
# 5.3e9 .. 9.6e9 (2-core Xeon VM, OpenBLAS 0.3.31, numpy 2.4).
MATVEC_MAC_PER_S = 2e9
MATVEC_CALL_S = 2e-6
BUILD_BLOCK = 64  # identity columns per `_step` call while forming M


def squarings(size: int, n_steps: int) -> int:
    """The number of squarings k < bit_length(n) that makes M^n v cheapest
    for a size x size M (module docstring)."""
    square = size ** 3 / MATMUL_MAC_PER_S
    matvec = size ** 2 / MATVEC_MAC_PER_S + MATVEC_CALL_S
    return min(range(n_steps.bit_length()), key=lambda k: k * square
               + ((n_steps % (1 << k)).bit_count() + (n_steps >> k)) * matvec)


def dense_power_pays(size: int, n_steps: int, n_nodes: int) -> bool:
    """True when M^n for a size x size M beats n steps on N = n_nodes nodes
    (module docstring).  It prices binary powering, which costs more than
    the `squarings` and the tail that `Stepper._dense_power` does, so it
    over-prices the dense path and errs towards the loop."""
    if size > DENSE_MAX_SIZE:
        return False
    dense = 2 * n_steps.bit_length() * size ** 3 / MATMUL_MAC_PER_S
    return dense < n_steps * (STEP_S + STEP_S_PER_NODE * n_nodes)


def dense_step_pays(size: int, n_steps: int, n_nodes: int) -> bool:
    """True when n steps, each a mat-vec with the 2N x size top rows of a
    size x size M, repay building M against the step loop on N = n_nodes
    nodes (module docstring).  Powering's tail leaves this path and its
    price as they were."""
    if size > DENSE_MAX_SIZE:
        return False
    loop = STEP_S + STEP_S_PER_NODE * n_nodes
    dense = 2 * (2 * n_nodes) * size / MATMUL_MAC_PER_S
    return n_steps * (loop - dense) > size * loop


def operator_matrix(apply, levels: int, n_nodes: int) -> np.ndarray:
    """The matrix of a linear map on states of `levels` stacked (2, N)
    fields, flattened: `apply` maps a (levels, 2, cols, N) batch of states to
    their images, shaped alike.  Built column block by column block so that
    no full identity is ever held."""
    size = levels * 2 * n_nodes
    m = np.empty((size, size), dtype=np.complex128)
    for j in range(0, size, BUILD_BLOCK):
        cols = min(BUILD_BLOCK, size - j)
        unit = np.zeros((cols, size), dtype=np.complex128)
        unit[np.arange(cols), j + np.arange(cols)] = 1.0
        out = apply(unit.reshape(cols, levels, 2, n_nodes).transpose(1, 2, 0, 3))
        m[:, j:j + cols] = out.transpose(0, 1, 3, 2).reshape(size, cols)
    return m


def k_matrix(space, ev: np.ndarray, ea: np.ndarray) -> np.ndarray:
    """K of `model.apply_k` as a matrix on the flattened (2, N) field."""
    return operator_matrix(lambda s: apply_k(space, s[0], ev, ea)[None], 1, space.grid.N)


def whole_steps(t: float, tau: float, what: str = "horizon", step: str = "tau") -> int:
    """n >= 0 with n tau = t to 1e-9 max(1, |t|), for runs and references alike."""
    if not (math.isfinite(t) and math.isfinite(tau)) or tau == 0:  # -0.0 too
        raise ConfigurationError(f"{what} {t} and {step}={tau} must be finite, {step} nonzero")
    n = int(round(t / tau))
    if n < 0 or abs(n * tau - t) > 1e-9 * max(1.0, abs(t)):
        raise ConfigurationError(
            f"{what} {t} is not a nonnegative integer multiple of {step}={tau}")
    return n


@dataclass
class SolverDiagnostics:
    """Per-step solver report: residual of the linear solve / iteration count."""

    linear_residual: float = 0.0
    iterations: int = 0


class Stepper:
    """Base class: a time discretization over the space operator class
    `space` (`scheme` is `pattern` with its name).  It owns (phi_prev,
    phi_curr, t, n), the advance loop and `propagate`; other modules read the
    state only through `phi`, `snapshots` and `energy`.  `propagation` names
    the paths taken ("dense-power", "dense-step", "stepwise"; "eigh" for EX)."""

    pattern = "{}"  # scheme name with "{}" for the space name, e.g. "si{}1"
    spaces = tuple(SPACE_OPERATORS.values())  # the space operators it is registered over
    needs_history = True  # three-level schemes start with `_launch`

    def __init__(self, space: type, problem: DiracProblem, tau: float):
        if tau == 0:
            raise ConfigurationError("tau must be nonzero")
        self.refuse(problem)
        self.space = space(problem.grid)
        self.scheme = self.pattern.format(space.name)
        self.problem = problem
        self.grid = problem.grid
        self.tau = float(tau)
        self._curr = problem.phi0.values.copy()
        self._prev = None
        self.n = 0
        self.t = 0.0
        self._time_independent = problem.time_independent
        self._memo = {}  # hook function -> what it made at t = 0 (`_kept`)
        self.diagnostics = SolverDiagnostics()
        self.propagation = set()
        self._squares = []  # M^(2^k) for k = 0, 1, ...
        self._step_rows = None  # the rows of M that give Phi^{n+1}, once stepping by M
        self._prepare()

    # -- hooks -------------------------------------------------------------
    @classmethod
    def refuse(cls, problem: DiracProblem) -> None:
        """Raise ConfigurationError for a problem it does not serve; cheap."""

    @staticmethod
    def task_cost(n_nodes: int, t: float, tau: float) -> float:
        return t / tau * n_nodes  # steps x nodes: the estimate that orders a table's tasks

    bound = staticmethod(lambda h, r, v, a: math.inf)  # tau_max(h, reach, V_max, A_max)

    def _prepare(self):
        """Subclass precomputation (per-mode multipliers, factorizations)."""

    def _step(self, prev: Optional[np.ndarray], curr: np.ndarray, t: float) -> np.ndarray:
        """Phi^{n+1} from (Phi^{n-1}, Phi^n) at t = t_n, a function of its
        arguments alone.  The fields are shaped (2, ..., N): any axes between
        the component and node axes are a batch of independent fields."""
        raise NotImplementedError

    def _launch(self) -> np.ndarray:
        """Phi^{n+1} from Phi^n alone, by forward Euler with K: a three-level start."""
        ev, ea = self._kept(self._eps_potentials, self.t)
        return self._curr - 1j * self.tau * apply_k(self.space, self._curr, ev, ea)

    def _loop(self, n_steps: int) -> None:
        """n_steps by the step loop."""
        for _ in range(n_steps):
            self.advance()

    # -- shared helpers ----------------------------------------------------
    def _kept(self, make, t: float):
        """make(t) for a bound method `make`; on a time-independent run
        make(0.0), made once and kept under make's function (so no cycle)."""
        if not self._time_independent:
            return make(t)
        hook = make.__func__
        if hook not in self._memo:
            self._memo[hook] = make(0.0)
        return self._memo[hook]

    def _eps_potentials(self, t: float):
        """(eps*V, eps*A1) at the nodes at time t; steps take it through `_kept`."""
        eps = self.problem.epsilon
        if eps == 0.0:
            z = np.zeros(self.grid.N)
            return z, z
        v, a = self.problem.potentials.evaluate(t, self.grid.x)
        return eps * v, eps * a

    # -- the one-step matrix -----------------------------------------------
    @property
    def _matrix_size(self) -> int:
        """Length of the state M acts on: Phi^n, or [Phi^n; Phi^n-1]."""
        return (4 if self.needs_history else 2) * self.grid.N

    def _one_step_matrix(self) -> np.ndarray:
        """M acting on the flattened state, through the scheme's own `_step`."""
        def one_step(state):
            new = self._step(state[1] if self.needs_history else None, state[0], self.t)
            return np.stack((new, state[0])) if self.needs_history else new[None]
        return operator_matrix(one_step, 2 if self.needs_history else 1, self.grid.N)

    def _dense_power(self, n_steps: int) -> None:
        """Apply M^n_steps to the state: k = `squarings` squarings, the low
        k bits of n_steps by the squares below M^(2^k), then n_steps >> k
        mat-vecs with M^(2^k)."""
        squares = self._squares
        if not squares:
            squares.append(self._one_step_matrix())
        k = squarings(self._matrix_size, n_steps)
        while len(squares) <= k:
            squares.append(squares[-1] @ squares[-1])
        v = self._curr.reshape(-1)
        if self.needs_history:
            v = np.concatenate((v, self._prev.reshape(-1)))
        for j in range(k):
            if n_steps >> j & 1:
                v = squares[j] @ v
        top = squares[k]
        for _ in range(n_steps >> k):
            v = top @ v
        fields = v.reshape(-1, 2, self.grid.N)
        self._curr = fields[0]
        if self.needs_history:
            self._prev = fields[1]
        self.n += n_steps
        self.t += n_steps * self.tau

    def _matrix_step(self) -> np.ndarray:
        """Phi^{n+1} as one mat-vec with the step rows of M."""
        v = self._curr.reshape(-1)
        if self.needs_history:
            v = np.concatenate((v, self._prev.reshape(-1)))
        return (self._step_rows @ v).reshape(2, self.grid.N)

    # -- public API ----------------------------------------------------------
    def advance(self) -> None:
        """Advance the solution one step of size tau."""
        if self.needs_history and self._prev is None:
            new = self._launch()
        elif self._step_rows is not None:
            new = self._matrix_step()
        else:
            new = self._step(self._prev, self._curr, self.t)
        if self.needs_history:
            self._prev = self._curr
        self._curr = new
        self.n += 1
        self.t += self.tau

    def takes_dense_power(self, n_steps: int) -> bool:
        """True when `propagate(n_steps)` powers the one-step matrix."""
        rest = n_steps - (self.needs_history and self._prev is None)  # after a launch
        return (self._time_independent and rest > 1
                and dense_power_pays(self._matrix_size, rest, self.grid.N))

    def takes_dense_steps(self, n_steps: int) -> bool:
        """True when n_steps single steps pay for `step_by_matrix`."""
        rest = n_steps - (self.needs_history and self._prev is None)  # after a launch
        return (self._time_independent
                and dense_step_pays(self._matrix_size, rest, self.grid.N))

    def step_by_matrix(self) -> None:
        """From here on every `advance` after the launch is one mat-vec with
        M, or with its top block row [A B] for a three-level scheme.  M is
        built now, unless `propagate` already keeps it; time-independent
        potentials only."""
        if not self._squares:
            self._squares.append(self._one_step_matrix())
        self._step_rows = self._squares[0][:2 * self.grid.N]
        self.diagnostics = SolverDiagnostics()  # a mat-vec runs no solver

    def propagate(self, n_steps: int) -> None:
        """Advance n_steps: by M^n when `takes_dense_power`, else by the step
        loop.  A three-level scheme without history first takes its launch
        step through `advance`."""
        if n_steps <= 0:
            return
        if not self.takes_dense_power(n_steps):
            self.propagation.add("stepwise")
            self._loop(n_steps)
            return
        self.propagation.add("dense-power")
        if self.needs_history and self._prev is None:
            self.advance()
            n_steps -= 1
        self._dense_power(n_steps)

    def run(self, n_steps: int, every: Optional[int] = None, observe=None,
            stop_mass: Optional[float] = None) -> Optional[int]:
        """Advance n_steps along the path this method picks (module
        docstring); the step of a blow-up, counted from here, or None."""
        if observe is None and stop_mass is None and (every is None
                                                      or self.takes_dense_power(n_steps)):
            self.propagate(n_steps)
        else:
            by_matrix = self.takes_dense_steps(n_steps)
            if by_matrix:
                self.step_by_matrix()  # before the start's observation: its energy by K too
            observe = observe or (lambda t: None)
            observe(self.t)
            if n_steps:
                self.propagation.add("dense-step" if by_matrix else "stepwise")
            stride = every or n_steps
            for k in range(1, n_steps + 1):
                self.advance()
                escaped = stop_mass is not None and not mass(self.phi) <= stop_mass  # NaN too
                if escaped or k % stride == 0 or k == n_steps:
                    observe(self.t)
                    if escaped or not np.isfinite(self._curr.sum()):
                        return k
        # one reduction over every node: a NaN or inf anywhere makes the sum non-finite
        return None if np.isfinite(self._curr.sum()) else n_steps

    def propagate_to(self, t: float, *words: str) -> None:
        """Advance to time t, a whole number of steps (`whole_steps(t, tau, *words)`)."""
        self.propagate(whole_steps(t, self.tau, *words) - self.n)

    def snapshots(self, times: Sequence[float], *words: str) -> dict:
        """{t: a copy of the state at t} for each time, in sorted order, each
        reached by `propagate_to(t, *words)`."""
        out = {}
        for t in sorted(map(float, times)):
            self.propagate_to(t, *words)
            out[t] = self.phi.copy()
        return out

    def energy(self) -> float:
        """The discrete energy h Re<Phi, K Phi> of the state, by the stepper's
        own K and eps*V, eps*A1 (sampled once); while it steps by M, with K
        as a matrix, built once and kept.  Time-independent potentials only."""
        if not self._time_independent:
            raise ConfigurationError("the discrete energy needs time-independent potentials")
        k = self._kept(self._k_matrix, 0.0) if self._step_rows is not None else None
        return discrete_energy(self.space, self._curr, *self._kept(self._eps_potentials, 0.0), k=k)

    def _k_matrix(self, t: float) -> np.ndarray:
        return k_matrix(self.space, *self._kept(self._eps_potentials, t))

    @property
    def propagation_label(self) -> str:
        """`propagation` as one string: the paths joined by "+", or "none"."""
        return "+".join(sorted(self.propagation)) or "none"

    @property
    def phi(self) -> SpinorField:
        """Current solution (a view on live storage; copy() to keep it)."""
        return SpinorField(self.grid, self._curr)
