"""The nine steppers: four time discretizations over two space operators,
and the Strang splitting (TS) over the Fourier derivative.

               centered difference "fd"   Fourier derivative "fp"
    CN         cnfd                       cnfp
    SI1        sifd1                      sifp1
    SI2        sifd2                      sifp2
    LF         lffd                       lffp
    TS                                    tsfp

The space operator D (:mod:`dirac1d.grid`) is the centered difference,
symbol sin(mu_l h)/h, or the trigonometric interpolation derivative, symbol
mu_l; each time discretization is one `Stepper(space, problem, tau)` class,
written with K = -i*sigma1*D + sigma3 + eps*(V*I - A1*sigma1)
(`model.apply_k`), the paper's four below and TSFP in :mod:`dirac1d.reference`.
Three-level schemes launch by forward Euler with the same K,

    Phi^{n+1} = Phi^n - i*tau*K(t_n) Phi^n,

from the initial data at n = 0.  Its local error O(tau^2) is measured
against the scheme's own semi-discrete flow, so every scheme is second
order in tau towards that flow.  Each `_step` maps (Phi^{n-1}, Phi^n, t_n)
to Phi^{n+1} with no state of its own and over any batch of fields, which
is how `Stepper.propagate` probes it.
eps*V, eps*A1, CNFD's factor and SI1's pointwise inverse come through
`Stepper._kept`: once for a time-independent problem, else every step.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, SolverError
from .grid import SPACE_OPERATORS, FourierDerivative, apply_sym2, sym2
from .linalg import CyclicBlockTridiagSolver
from .model import DiracProblem, apply_k
from .reference import TSFPStepper
from .stepping import SolverDiagnostics, Stepper

__all__ = ["SCHEMES", "lookup", "make_stepper"]

RESIDUAL_TOL = 1e-12  # CNFD: relative residual each banded solve must meet
FIXED_POINT_TOL = 1e-14  # CNFP: sweep-to-sweep change relative to ||Phi^n||
FIXED_POINT_MAX_SWEEPS = 50


def _per_mode(space, c: float):
    """Per-mode `sym2` multipliers of L^{-1} and of 2i I2 - L for
    L = i I2 - c*(s_l*sigma1 + sigma3), s_l the symbol of the space operator
    `space`.  2i I2 - L is the adjugate of L, and det L = -1 - c^2 (1 + s_l^2)
    is real and <= -1, so L is never singular."""
    s = space.symbol
    det = -1.0 - c * c * (1.0 + s * s)
    adjugate = (1j + c, c * s, 1j - c)
    return sym2(*(m / det for m in adjugate)), sym2(*adjugate)


def _field_norms(v: np.ndarray):
    """l2 norm of each field of a (2, ..., N) batch; a scalar for one field."""
    return np.linalg.norm(v) if v.ndim == 2 else np.linalg.norm(v, axis=(0, -1))


class CNStepper(Stepper):
    """Crank-Nicolson: (i*I - tau/2*K) Phi^{n+1} = (i*I + tau/2*K) Phi^n, K at
    t_n + tau/2.  Unconditionally stable; conserves mass and, for
    time-independent potentials, the discrete energy.

    fd: the cyclic block-tridiagonal matrix is factored (at construction on a
    time-independent run), and every solve must meet RESIDUAL_TOL.
    fp: the free part (i I2 - tau/2*(mu_l*sigma1 + sigma3)) is inverted
    exactly per mode; the O(eps*tau) potential term is lagged on the iterate
    and swept until the change is below FIXED_POINT_TOL.  With no potential
    the second sweep repeats the first, so a free step takes two.
    fp is stable for any tau, but its fixed point needs a small enough tau: a
    step that needs more than FIXED_POINT_MAX_SWEEPS raises SolverError
    (periodic-s51, eps = 1, N = 512: tau = 1 takes 34 sweeps, tau = 1.8
    takes 49, tau = 2 fails).
    """

    pattern = "cn{}"
    needs_history = False

    def _prepare(self):
        if self.space.name == "fp":
            self._inverse, self._rhs = _per_mode(self.space, 0.5 * self.tau)
        elif self._time_independent:  # now: made at the first step it raised peak RSS
            self._kept(self._factor, 0.0)

    def _step(self, prev, curr, t) -> np.ndarray:
        if self.space.name == "fd":
            return self._banded_step(curr, t)
        return self._fixed_point_step(curr, t)

    # -- fd: banded cyclic LU ------------------------------------------------
    def _factor(self, t: float):
        """(eps*V, eps*A1) at t and the banded LU of i I - tau/2 K there."""
        ev, ea = self._kept(self._eps_potentials, t)
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
        return ev, ea, CyclicBlockTridiagSolver(diag, b_plus, b_minus)

    def _banded_step(self, curr: np.ndarray, t: float) -> np.ndarray:
        half = 0.5 * self.tau
        ev, ea, solver = self._kept(self._factor, t + half)
        rhs = 1j * curr + half * apply_k(self.space, curr, ev, ea)
        new = solver.solve(rhs)

        # relative residual of every solve, each field of a batch on its own
        lhs = 1j * new - half * apply_k(self.space, new, ev, ea)
        resid = float((_field_norms(lhs - rhs) / (_field_norms(rhs) + 1e-300)).max())
        self.diagnostics = SolverDiagnostics(resid, 1)
        if resid > RESIDUAL_TOL:
            raise SolverError(
                f"CNFD linear residual {resid:.3e} exceeds tolerance {RESIDUAL_TOL:.1e}",
                step=self.n, diagnostics=self.diagnostics,
            )
        return new

    # -- fp: per-mode free inverse plus fixed point ----------------------------
    def _fixed_point_step(self, curr: np.ndarray, t: float) -> np.ndarray:
        half = 0.5 * self.tau
        ev, ea = self._kept(self._eps_potentials, t + half)
        # each field of a batch is converged against its own norm
        norm_curr = np.maximum(_field_norms(curr), 1e-300)
        tol = FIXED_POINT_TOL * norm_curr

        x, y = curr, None
        for it in range(1, FIXED_POINT_MAX_SWEEPS + 1):
            s = x + curr
            p = half * (ev * s - ea * s[::-1])
            if y is None:  # first sweep: Phi^n and the potential term in one call
                c_hat, p_hat = np.fft.fft(np.stack((curr, p)), axis=-1)
                y = apply_sym2(self._rhs, c_hat)
            else:
                p_hat = np.fft.fft(p, axis=-1)
            x_new = np.fft.ifft(apply_sym2(self._inverse, y + p_hat), axis=-1)
            change = _field_norms(x_new - x)
            x = x_new
            if (change <= tol).all():
                self.diagnostics = SolverDiagnostics(float((change / norm_curr).max()), it)
                return x
        last = float((change / norm_curr).max())
        raise SolverError(
            f"CNFP fixed point did not converge within its cap of {FIXED_POINT_MAX_SWEEPS} "
            f"sweeps: last relative sweep change {last:.3g} (tolerance "
            f"{FIXED_POINT_TOL:.0e}); reduce tau",
            step=self.n, diagnostics=SolverDiagnostics(last, FIXED_POINT_MAX_SWEEPS),
        )


class SI1Stepper(Stepper):
    """Semi-implicit scheme with an explicit transport term (leap-frog).

    The implicit bracket decouples per node:
        Phi^{n+1}_j = [(i - eps*tau*V_j) I2 - tau*sigma3
                       + eps*tau*A_j*sigma1]^{-1} H^n_j,
        H^n_j = -2i*tau*sigma1*(D Phi^n)_j
                + [(i + eps*tau*V_j) I2 + tau*(sigma3 - eps*A_j*sigma1)] Phi^{n-1}_j.
    """

    pattern = "si{}1"

    def _invert(self, t: float):
        """The pointwise bracket's inverse at t.  With a = (tau ev)^2 and b =
        tau^2 (1 + ea^2), |det|^2 = (1+b-a)^2 + 4a, at least 1 for b <= 1 and
        at least 4b for b > 1: |det| >= 1 for every tau."""
        ev, ea = self._kept(self._eps_potentials, t)
        tau = self.tau
        m11 = 1j - tau * ev - tau
        m22 = 1j - tau * ev + tau
        m12 = tau * ea
        det = m11 * m22 - m12 * m12
        return sym2(m22 / det, -m12 / det, m11 / det)

    def _step(self, prev, curr, t) -> np.ndarray:
        tau = self.tau
        ev, ea = self._kept(self._eps_potentials, t)
        d = self.space.apply(curr)
        p1, p2 = prev
        h1 = -2j * tau * d[1] + (1j + tau * ev + tau) * p1 - tau * ea * p2
        h2 = -2j * tau * d[0] + (1j + tau * ev - tau) * p2 - tau * ea * p1
        return apply_sym2(self._kept(self._invert, t), np.stack((h1, h2)))


class SI2Stepper(Stepper):
    """Semi-implicit scheme: implicit transport and mass, explicit potential.

    L hat(Phi)^{n+1}_l = (2i - L) hat(Phi)^{n-1}_l + 2*tau*hat(G^n Phi^n)_l,
    L = i I2 - tau*(s_l*sigma1 + sigma3), s_l the symbol of D,

    i.e. Phi^{n+1} = 2 L^{-1} (i Phi^{n-1} + tau G^n Phi^n) - Phi^{n-1}:
    one forward and one inverse transform per step, of one field.
    """

    pattern = "si{}2"

    def _prepare(self):
        self._inverse = _per_mode(self.space, self.tau)[0]

    def _step(self, prev, curr, t) -> np.ndarray:
        ev, ea = self._kept(self._eps_potentials, t)
        g_curr = ev * curr - ea * curr[::-1]  # eps*(V I2 - A1 sigma1) Phi^n
        z_hat = np.fft.fft(1j * prev + self.tau * g_curr, axis=-1)
        return 2.0 * np.fft.ifft(apply_sym2(self._inverse, z_hat), axis=-1) - prev


class LFStepper(Stepper):
    """Fully explicit leap-frog: Phi^{n+1} = Phi^{n-1} - 2i*tau*K(t_n)Phi^n."""

    pattern = "lf{}"

    def _step(self, prev, curr, t) -> np.ndarray:
        ev, ea = self._kept(self._eps_potentials, t)
        return prev - 2j * self.tau * apply_k(self.space, curr, ev, ea)


SCHEMES = {cls.pattern.format(space.name): (cls, space)
           for space in SPACE_OPERATORS.values()
           for cls in (CNStepper, SI1Stepper, SI2Stepper, LFStepper)}
SCHEMES["tsfp"] = (TSFPStepper, FourierDerivative)


def lookup(scheme: str):
    """(time discretization, space operator) classes of a scheme name, the
    one check of every name."""
    try:
        return SCHEMES[scheme.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; known: {sorted(SCHEMES)}"
        ) from None


def make_stepper(scheme: str, problem: DiracProblem, tau: float) -> Stepper:
    """Instantiate a stepper by scheme name (cnfd, sifd1, ..., lffp, tsfp),
    starting from problem.phi0 at t = 0."""
    time, space = lookup(scheme)
    return time(space, problem, tau)
