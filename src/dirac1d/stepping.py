"""Shared time-stepping machinery: state, diagnostics, Taylor first step.

Every scheme is a Stepper subclass owning its state; `advance()` moves one
step of size tau.  Three-level schemes take their first step with the
first-order Taylor formula

    Phi^1 = Phi0 - tau*sigma1*Phi0' - i*tau*(sigma3 + eps*V0*I2
            - eps*A0*sigma1)*Phi0,

using the analytic derivative of the initial data when the problem supplies
one and the spectral derivative otherwise.  Its local error is O(tau^2),
which keeps the three-level schemes globally second order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .grid import SpinorField, spectral_derivative
from .model import DiracProblem


@dataclass
class SolverDiagnostics:
    """Per-step solver report: residual of the linear solve / iteration count."""

    linear_residual: float = 0.0
    iterations: int = 0


@dataclass
class StepperState:
    """Snapshot of a stepper: current field, optional previous field, clock."""

    phi_curr: SpinorField
    phi_prev: Optional[SpinorField] = None
    t_n: float = 0.0
    n: int = 0

    def __post_init__(self):
        if self.phi_prev is not None and self.phi_prev.grid != self.phi_curr.grid:
            raise ConfigurationError("state fields must share one grid")


def first_step(problem: DiracProblem, tau: float) -> SpinorField:
    """First-order Taylor launch Phi^1 (local error O(tau^2)) shared by all
    three-level schemes."""
    return SpinorField(problem.grid, Stepper(problem, tau)._taylor_first())


class Stepper:
    """Base class: owns (phi_prev, phi_curr, t, n) and the advance loop."""

    scheme = "base"
    needs_history = True  # three-level schemes start with the Taylor step

    def __init__(self, problem: DiracProblem, tau: float,
                 state: Optional[StepperState] = None):
        if tau == 0:
            raise ConfigurationError("tau must be nonzero")
        self.problem = problem
        self.grid = problem.grid
        self.tau = float(tau)
        if state is None:
            self._curr = problem.phi0.values.copy()
            self._prev = None
            self.n = 0
            self.t = 0.0
            self._from_initial_data = True
        else:
            if state.phi_curr.grid != self.grid:
                raise ConfigurationError("state grid does not match the problem grid")
            self._curr = state.phi_curr.values.copy()
            self._prev = None if state.phi_prev is None else state.phi_prev.values.copy()
            self.n = state.n
            self.t = state.t_n
            self._from_initial_data = (
                state.n == 0
                and state.t_n == 0.0
                and np.array_equal(state.phi_curr.values, problem.phi0.values)
            )
        self.diagnostics = SolverDiagnostics()
        self._prepare()

    # -- hooks -------------------------------------------------------------
    def _prepare(self):
        """Subclass precomputation (per-mode multipliers, factorizations)."""

    def _step(self) -> np.ndarray:
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------
    def _eps_potentials(self, t: float):
        """(eps*V, eps*A1) at the nodes; cached for time-independent runs."""
        eps = self.problem.epsilon
        if eps == 0.0:
            z = np.zeros(self.grid.N)
            return z, z
        pots = self.problem.potentials
        if pots.time_independent:
            cached = getattr(self, "_pot_cache", None)
            if cached is None:
                v, a = pots.evaluate(0.0, self.grid.x)
                cached = (eps * v, eps * a)
                self._pot_cache = cached
            return cached
        v, a = pots.evaluate(t, self.grid.x)
        return eps * v, eps * a

    def _taylor_first(self) -> np.ndarray:
        if self._from_initial_data:
            deriv = self.problem.phi0_derivative_values()
        else:
            deriv = spectral_derivative(SpinorField(self.grid, self._curr)).values
        ev, ea = self._eps_potentials(self.t)
        (v1, v2), (d1, d2), tau = self._curr, deriv, self.tau
        new1 = v1 - tau * d2 - 1j * tau * ((1.0 + ev) * v1 - ea * v2)
        new2 = v2 - tau * d1 - 1j * tau * ((ev - 1.0) * v2 - ea * v1)
        return np.stack((new1, new2))

    # -- public API ----------------------------------------------------------
    def advance(self) -> None:
        """Advance the solution one step of size tau."""
        if self.needs_history and self._prev is None:
            new = self._taylor_first()
        else:
            new = self._step()
        if self.needs_history:
            self._prev = self._curr
        self._curr = new
        self.n += 1
        self.t += self.tau

    @property
    def phi(self) -> SpinorField:
        """Current solution (a view on live storage; copy() to keep it)."""
        return SpinorField(self.grid, self._curr)

    def state(self) -> StepperState:
        prev = None if self._prev is None else SpinorField(self.grid, self._prev.copy())
        return StepperState(SpinorField(self.grid, self._curr.copy()), prev, self.t, self.n)
