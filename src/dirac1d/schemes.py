"""The eight steppers: four time discretizations over two space operators.

               centered difference "fd"   Fourier derivative "fp"
    CN         cnfd                       cnfp
    SI1        sifd1                      sifp1
    SI2        sifd2                      sifp2
    LF         lffd                       lffp

The space operator D (:mod:`dirac1d.grid`) is the centered difference,
symbol sin(mu_l h)/h, or the trigonometric interpolation derivative, symbol
mu_l; each time discretization is one class below, written with
K = -i*sigma1*D + sigma3 + eps*(V*I - A1*sigma1).  Three-level schemes
launch with the shared Taylor first step (:func:`dirac1d.stepping.first_step`).
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from .errors import ConfigurationError, SolverError
from .grid import SPACE_OPERATORS
from .linalg import CyclicBlockTridiagSolver
from .model import DiracProblem
from .reference import TSFPStepper
from .stepping import SolverDiagnostics, Stepper, StepperState

__all__ = ["make_stepper"]

RESIDUAL_TOL = 1e-12  # CNFD: relative residual each banded solve must meet
FIXED_POINT_TOL = 1e-14  # CNFP: sweep-to-sweep change relative to ||Phi^n||
FIXED_POINT_MAX_SWEEPS = 50


class _SpaceTimeStepper(Stepper):
    """A time discretization over the space operator named by `space`."""

    pattern = ""  # scheme name with "{}" for the space name, e.g. "si{}1"

    def __init__(self, space: str, problem: DiracProblem, tau: float,
                 state: Optional[StepperState] = None):
        self.space = SPACE_OPERATORS[space](problem.grid)
        self.scheme = self.pattern.format(space)
        super().__init__(problem, tau, state)

    def _apply_k(self, v: np.ndarray, ev: np.ndarray, ea: np.ndarray) -> np.ndarray:
        d = self.space.apply(v)
        k1 = -1j * d[1] + (1.0 + ev) * v[0] - ea * v[1]
        k2 = -1j * d[0] + (ev - 1.0) * v[1] - ea * v[0]
        return np.stack((k1, k2))


class CNStepper(_SpaceTimeStepper):
    """Crank-Nicolson: (i*I - tau/2*K) Phi^{n+1} = (i*I + tau/2*K) Phi^n, K at
    t_n + tau/2.  Unconditionally stable; conserves mass and, for
    time-independent potentials, the discrete energy.

    fd: the cyclic block-tridiagonal matrix is factored once (re-factored
    every step for time-dependent potentials), and every solve must meet
    RESIDUAL_TOL.
    fp: the free part (i I2 - tau/2*(mu_l*sigma1 + sigma3)) is inverted
    exactly per mode; the O(eps*tau) potential term is lagged on the iterate
    and converges with contraction about eps*tau*(V_max + A_max)/2.
    """

    pattern = "cn{}"
    needs_history = False

    def _prepare(self):
        pots = self.problem.potentials
        if self.space.name == "fd":
            self._banded = None
            if pots.time_independent or self.problem.epsilon == 0.0:
                ev, ea = self._eps_potentials(0.0)
                self._banded = (ev, ea, self._factor(ev, ea))
        else:
            mu = self.space.symbol
            half = 0.5 * self.tau
            det = -1.0 - half * half * (1.0 + mu * mu)
            self._i11 = (1j + half) / det
            self._i22 = (1j - half) / det
            self._i12 = half * mu / det
            self._r11 = 1j + half
            self._r22 = 1j - half
            self._r12 = half * mu
            self._hat_curr = None
            self._free_run = (self.problem.epsilon == 0.0
                              or (pots.v_max == 0.0 and pots.a_max == 0.0))

    def _step(self) -> np.ndarray:
        return self._banded_step() if self.space.name == "fd" else self._fixed_point_step()

    # -- fd: banded cyclic LU ------------------------------------------------
    def _factor(self, ev: np.ndarray, ea: np.ndarray) -> CyclicBlockTridiagSolver:
        n = self.grid.N
        half = 0.5 * self.tau
        diag = np.zeros((n, 2, 2), dtype=np.complex128)
        diag[:, 0, 0] = 1j - half * (1.0 + ev)
        diag[:, 1, 1] = 1j - half * (ev - 1.0)
        diag[:, 0, 1] = half * ea
        diag[:, 1, 0] = half * ea
        c = 1j * self.tau / (4.0 * self.grid.h)
        b_plus = np.array([[0.0, c], [c, 0.0]])
        b_minus = -b_plus
        return CyclicBlockTridiagSolver(diag, b_plus, b_minus)

    def _banded_step(self) -> np.ndarray:
        half = 0.5 * self.tau
        if self._banded is not None:
            ev, ea, solver = self._banded
        else:
            ev, ea = self._eps_potentials(self.t + half)
            solver = self._factor(ev, ea)
        rhs = 1j * self._curr + half * self._apply_k(self._curr, ev, ea)

        flat = np.empty(2 * self.grid.N, dtype=np.complex128)
        flat[0::2], flat[1::2] = rhs[0], rhs[1]
        sol = solver.solve(flat)
        new = np.stack((sol[0::2], sol[1::2]))

        lhs = 1j * new - half * self._apply_k(new, ev, ea)
        scale = np.linalg.norm(rhs)
        resid = float(np.linalg.norm(lhs - rhs) / scale) if scale > 0 else 0.0
        self.diagnostics = SolverDiagnostics(resid, 1)
        if resid > RESIDUAL_TOL:
            raise SolverError(
                f"CNFD linear residual {resid:.3e} exceeds tolerance {RESIDUAL_TOL:.1e}",
                step=self.n, diagnostics=self.diagnostics,
            )
        return new

    # -- fp: per-mode free inverse plus fixed point ----------------------------
    def _solve_free(self, rhs_hat: np.ndarray) -> np.ndarray:
        return np.stack((self._i11 * rhs_hat[0] + self._i12 * rhs_hat[1],
                         self._i12 * rhs_hat[0] + self._i22 * rhs_hat[1]))

    def _fixed_point_step(self) -> np.ndarray:
        if self._hat_curr is None:
            self._hat_curr = np.fft.fft(self._curr, axis=1)
        c1, c2 = self._hat_curr
        y = np.stack((self._r11 * c1 + self._r12 * c2,
                      self._r12 * c1 + self._r22 * c2))

        if self._free_run:
            new_hat = self._solve_free(y)
            self._hat_curr = new_hat
            self.diagnostics = SolverDiagnostics(0.0, 1)
            return np.fft.ifft(new_hat, axis=1)

        half = 0.5 * self.tau
        ev, ea = self._eps_potentials(self.t + half)
        norm_curr = np.linalg.norm(self._curr)
        tol = FIXED_POINT_TOL * max(norm_curr, 1e-300)

        x = self._curr
        for it in range(1, FIXED_POINT_MAX_SWEEPS + 1):
            s1 = x[0] + self._curr[0]
            s2 = x[1] + self._curr[1]
            p = np.stack((half * (ev * s1 - ea * s2), half * (ev * s2 - ea * s1)))
            new_hat = self._solve_free(y + np.fft.fft(p, axis=1))
            x_new = np.fft.ifft(new_hat, axis=1)
            change = np.linalg.norm(x_new - x)
            x = x_new
            if change <= tol:
                self._hat_curr = new_hat
                self.diagnostics = SolverDiagnostics(float(change / max(norm_curr, 1e-300)), it)
                return x
        pots = self.problem.potentials
        contraction = self.problem.epsilon * abs(self.tau) * (pots.v_max + pots.a_max) / 2.0
        raise SolverError(
            f"CNFP fixed point did not converge in {FIXED_POINT_MAX_SWEEPS} sweeps "
            f"(contraction estimate {contraction:.3g}); reduce tau",
            step=self.n,
            diagnostics=SolverDiagnostics(float("nan"), FIXED_POINT_MAX_SWEEPS),
        )


class SI1Stepper(_SpaceTimeStepper):
    """Semi-implicit scheme with an explicit transport term (leap-frog).

    The implicit bracket decouples per node:
        Phi^{n+1}_j = [(i - eps*tau*V_j) I2 - tau*sigma3
                       + eps*tau*A_j*sigma1]^{-1} H^n_j,
        H^n_j = -2i*tau*sigma1*(D Phi^n)_j
                + [(i + eps*tau*V_j) I2 + tau*(sigma3 - eps*A_j*sigma1)] Phi^{n-1}_j.
    """

    pattern = "si{}1"

    def _prepare(self):
        eps = self.problem.epsilon
        pots = self.problem.potentials
        guard = abs(self.tau) * (1.0 + eps * (pots.v_max + pots.a_max))
        if guard >= 0.5:
            raise ConfigurationError(
                f"{self.scheme.upper()} pointwise solve guard violated: "
                f"|tau|*(1 + eps*(V_max + A_max)) = {guard:.3g} >= 0.5; reduce tau"
            )
        self._inv_cache = None
        if pots.time_independent or eps == 0.0:
            ev, ea = self._eps_potentials(0.0)
            self._inv_cache = self._invert(ev, ea)

    def _invert(self, ev, ea):
        tau = self.tau
        m11 = 1j - tau * ev - tau
        m22 = 1j - tau * ev + tau
        m12 = tau * ea
        det = m11 * m22 - m12 * m12
        bad = np.abs(det) < 1e-300
        if np.any(bad):
            raise SolverError("singular pointwise matrix", step=self.n,
                              node=int(np.argmax(bad)))
        return m22 / det, -m12 / det, m11 / det  # i11, i12, i22

    def _step(self) -> np.ndarray:
        tau = self.tau
        ev, ea = self._eps_potentials(self.t)
        if self._inv_cache is not None:
            i11, i12, i22 = self._inv_cache
        else:
            i11, i12, i22 = self._invert(ev, ea)
        d = self.space.apply(self._curr)
        p1, p2 = self._prev
        h1 = -2j * tau * d[1] + (1j + tau * ev + tau) * p1 - tau * ea * p2
        h2 = -2j * tau * d[0] + (1j + tau * ev - tau) * p2 - tau * ea * p1
        return np.stack((i11 * h1 + i12 * h2, i12 * h1 + i22 * h2))


class SI2Stepper(_SpaceTimeStepper):
    """Semi-implicit scheme: implicit transport and mass, explicit potential.

    (i I2 - tau*s_l*sigma1 - tau*sigma3) hat(Phi)^{n+1}_l =
        (i I2 + tau*s_l*sigma1 + tau*sigma3) hat(Phi)^{n-1}_l
        + 2*tau*hat(G^n Phi^n)_l,     s_l the symbol of D.

    One forward transform of G^n Phi^n and one inverse transform per step;
    spectral history is carried along to avoid re-transforming.
    """

    pattern = "si{}2"

    def _prepare(self):
        tau = self.tau
        s = self.space.symbol
        det = -1.0 - tau * tau - (tau * s) ** 2
        # det is real and <= -1: the per-mode matrix can never be singular
        assert np.all(np.abs(det) >= 1.0)
        self._i11 = (1j + tau) / det
        self._i22 = (1j - tau) / det
        self._i12 = tau * s / det
        self._r11 = 1j + tau
        self._r22 = 1j - tau
        self._r12 = tau * s
        self._hat_prev = None
        self._hat_curr = None

    def _step(self) -> np.ndarray:
        tau = self.tau
        if self._hat_prev is None:
            self._hat_prev = np.fft.fft(self._prev, axis=1)
        ev, ea = self._eps_potentials(self.t)
        w1 = ev * self._curr[0] - ea * self._curr[1]
        w2 = ev * self._curr[1] - ea * self._curr[0]
        what = np.fft.fft(np.stack((w1, w2)), axis=1)
        p1, p2 = self._hat_prev
        l1 = self._r11 * p1 + self._r12 * p2 + 2.0 * tau * what[0]
        l2 = self._r12 * p1 + self._r22 * p2 + 2.0 * tau * what[1]
        new_hat = np.stack((self._i11 * l1 + self._i12 * l2,
                            self._i12 * l1 + self._i22 * l2))
        self._hat_prev = self._hat_curr
        self._hat_curr = new_hat
        return np.fft.ifft(new_hat, axis=1)


class LFStepper(_SpaceTimeStepper):
    """Fully explicit leap-frog: Phi^{n+1} = Phi^{n-1} - 2i*tau*K(t_n)Phi^n."""

    pattern = "lf{}"

    def _step(self) -> np.ndarray:
        ev, ea = self._eps_potentials(self.t)
        return self._prev - 2j * self.tau * self._apply_k(self._curr, ev, ea)


_SCHEMES = {cls.pattern.format(space): partial(cls, space)
            for cls in (CNStepper, SI1Stepper, SI2Stepper, LFStepper)
            for space in SPACE_OPERATORS}
_SCHEMES["tsfp"] = TSFPStepper


def make_stepper(scheme: str, problem: DiracProblem, tau: float,
                 state: Optional[StepperState] = None) -> Stepper:
    """Instantiate a stepper by scheme name (cnfd, sifd1, ..., lffp, tsfp)."""
    try:
        factory = _SCHEMES[scheme.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; known: {sorted(_SCHEMES)}"
        ) from None
    return factory(problem, tau, state=state)
