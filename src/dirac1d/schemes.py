"""The eleven steppers, five time discretizations over two space operators
and the Strang splitting (TS) over the Fourier derivative, with their step
bounds and the pre-run validator:

          fd      fp      stable for
    CN    cnfd    cnfp    any tau: a unitary step
    SI1   sifd1   sifp1   tau <= h/r
    SI2   sifd2   sifp2   tau <= 1/(V_max + A_max)
    LF    lffd    lffp    tau <= h / (V_max*h + sqrt(h^2 + (r + h*A_max)^2))
    TS            tsfp    any tau: both Strang sub-flows are unitary
    EX    exfd    exfp    any tau: the exact flow exp(-i tau K) is unitary

The space operator D (:mod:`dirac1d.grid`) is the centered difference "fd",
symbol sin(mu_l h)/h, or the trigonometric interpolation derivative "fp",
symbol mu_l; each time discretization is one `Stepper(space, problem, tau)`
class, written with K = -i*sigma1*D + sigma3 + eps*(V*I - A1*sigma1)
(`model.apply_k`), with its space operators (`spaces`) and its step bound
`bound(h, r, V_max, A_max)`, read by `tau_max`.  The bound depends on the
space operator only through its reach r, the bound on h*|symbol| (`grid`):
1 for fd, pi for fp.  V_max, A_max bound the potentials the operator sees,
eps*|V| and eps*|A1| (`DiracProblem.operator_bounds`).  An unbounded step
is UNBOUNDED = math.inf, so every margin |tau|/tau_max is a float division
(0.0 when unbounded); h and tau must be finite.  Three-level schemes launch
by forward Euler with the same K,

    Phi^{n+1} = Phi^n - i*tau*K(t_n) Phi^n,

from the initial data at n = 0.  Its local error O(tau^2) is measured
against the scheme's own semi-discrete flow, so every scheme is second
order in tau towards that flow.  Each `_step` maps (Phi^{n-1}, Phi^n, t_n)
to Phi^{n+1} with no state of its own and over any batch of fields, which
is how `Stepper.propagate` probes it.
eps*V, eps*A1, CNFD's factor and SI1's pointwise inverse come through
`Stepper._kept`: once for a time-independent problem, else every step.

TS Strang-splits, potential-first (half, free, half), between two flows
that are symmetric 2x2 multiplies (`grid.apply_sym2`) and keep the mass:
the free flow per mode, through Gamma_l = mu_l*sigma1 + sigma3,

    exp(-i t Gamma_l) = cos(t*delta_l) I2 - i sin(t*delta_l)/delta_l * Gamma_l,
    delta_l = sqrt(1 + mu_l^2),

and the potential flow per node,

    exp(-i s eps (V I2 - A1 sigma1))
        = exp(-i s eps V) [cos(s eps A1) I2 + i sin(s eps A1) sigma1].

In the sigma1 eigenbasis psi = (sigma1 + sigma3) Phi/sqrt2 of a time-independent
run's loop, the potential flow is diagonal, exp(-i s eps (V -+ A1)), and the free
flow is cos(t delta_l) I2 - i sin(t delta_l)/delta_l (mu_l sigma3 + sigma1).

EX is the semi-discrete flow itself, by one eigh of K.  tsfp, exfp and
exfd build the references (:mod:`dirac1d.reference`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SolverError
from .grid import SPACE_OPERATORS, FourierDerivative, SpinorField, TorusGrid, apply_sym2, sym2
from .linalg import CyclicBlockTridiagSolver
from .model import DiracProblem, apply_k
from .stepping import SolverDiagnostics, Stepper, k_matrix

__all__ = ["SCHEMES", "ALL_SCHEMES", "UNBOUNDED", "lookup", "make_stepper", "tau_max",
           "StabilityVerdict", "validate", "free_dirac_exact", "TSFPStepper", "EXStepper"]

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
            return self._banded_step(curr, t)[0]
        return self._fixed_point_step(curr, t)

    def _loop(self, n_steps: int) -> None:
        """Time-independent fd: the K Phi^{n+1} of a step's guard is the next K Phi^n."""
        if self.space.name != "fd" or not self._time_independent:
            return super()._loop(n_steps)
        k_curr = None
        for _ in range(n_steps):
            self._curr, k_curr = self._banded_step(self._curr, self.t, k_curr)
            self.n, self.t = self.n + 1, self.t + self.tau

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

    def _banded_step(self, curr: np.ndarray, t: float, k_curr=None):
        """(Phi^{n+1}, K Phi^{n+1}); k_curr, when given, is K Phi^n."""
        half = 0.5 * self.tau
        ev, ea, solver = self._kept(self._factor, t + half)
        k_curr = apply_k(self.space, curr, ev, ea) if k_curr is None else k_curr
        rhs = 1j * curr + half * k_curr
        new = solver.solve(rhs)

        # relative residual of every solve, each field of a batch on its own
        k_new = apply_k(self.space, new, ev, ea)
        lhs = 1j * new - half * k_new
        resid = float((_field_norms(lhs - rhs) / (_field_norms(rhs) + 1e-300)).max())
        self.diagnostics = SolverDiagnostics(resid, 1)
        if resid > RESIDUAL_TOL:
            raise SolverError(
                f"CNFD linear residual {resid:.3e} exceeds tolerance {RESIDUAL_TOL:.1e}",
                step=self.n, diagnostics=self.diagnostics,
            )
        return new, k_new

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
    bound = staticmethod(lambda h, r, v, a: h / r)

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
    bound = staticmethod(lambda h, r, v, a: math.inf if v + a == 0 else 1.0 / (v + a))

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
    bound = staticmethod(lambda h, r, v, a: h / (v * h + math.sqrt(h * h + (r + h * a) ** 2)))

    def _step(self, prev, curr, t) -> np.ndarray:
        ev, ea = self._kept(self._eps_potentials, t)
        return prev - 2j * self.tau * apply_k(self.space, curr, ev, ea)


def _free_multipliers(grid: TorusGrid, t: float, sigma1_basis: bool = False):
    mu = grid.mu_fft
    delta = np.sqrt(1.0 + mu * mu)
    c = np.cos(t * delta)
    s = np.sin(t * delta) / delta
    if sigma1_basis:  # c I2 - i s (mu sigma3 + sigma1)
        return sym2(c - 1j * s * mu, -1j * s, c + 1j * s * mu)
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
    spaces = (FourierDerivative,)
    needs_history = False
    substep_order = "potential-first"  # in the reference manifest and cache key

    def _prepare(self):
        self._free_mult = _free_multipliers(self.grid, self.tau)

    def _half_flow(self, t: float):
        """(m11, m12, m22) of exp(-i s eps (V I2 - A1 sigma1)) at time t, s = tau/2."""
        ev, ea, s = *self._kept(self._eps_potentials, t), 0.5 * self.tau
        phase = np.exp(-1j * s * ev)
        u = phase * np.cos(s * ea)
        return sym2(u, 1j * phase * np.sin(s * ea), u)

    def _step(self, prev, curr, t) -> np.ndarray:
        first = self._kept(self._half_flow, t + 0.25 * self.tau)
        last = self._kept(self._half_flow, t + 0.75 * self.tau)
        return apply_sym2(last, _apply_free(apply_sym2(first, curr), self._free_mult))

    def _loop(self, n_steps: int) -> None:
        """A time-independent run on sqrt2 psi = (phi1 + phi2, phi1 - phi2) by scipy.fft,
        interior half steps merged into full ones; back once, by an exact 0.5."""
        if not self._time_independent:
            return super()._loop(n_steps)
        from scipy.fft import fft, ifft  # here only: importing scipy.fft costs 64 ms
        ev, ea = self._kept(self._eps_potentials, 0.0)
        w = np.stack((ev - ea, ev + ea))  # eps (V -+ A1)
        half, full = np.exp(-0.5j * self.tau * w), np.exp(-1j * self.tau * w)
        free, tmp = _free_multipliers(self.grid, self.tau, True), np.empty_like(self._curr)
        x = np.stack((self._curr[0] + self._curr[1], self._curr[0] - self._curr[1])) * half
        for k in range(n_steps):
            y = fft(x, axis=-1)
            x = ifft(apply_sym2(free, y, out=y, tmp=tmp), axis=-1)
            if k < n_steps - 1:
                x *= full
        x *= half
        self._curr = 0.5 * np.stack((x[0] + x[1], x[0] - x[1]))
        self.n, self.t = self.n + n_steps, self.t + n_steps * self.tau


class EXStepper(Stepper):
    """The semi-discrete flow i dPhi/dt = K Phi, exact in time ("exfd", "exfp"),
    by one eigh of the steppers' own K = Q diag(w) Q^H (eps*V, eps*A1 at t = 0):
    a step is Q exp(-i w tau) Q^H, and `propagate(n)` is Q exp(-i w t) Q^H Phi0
    at t = n tau from the initial coefficients, never building or powering M;
    `propagate_to(t)` takes any time t >= 0, a whole number of steps or not."""

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

    def takes_dense_power(self, n_steps: int) -> bool:
        return n_steps > 0  # so an unobserved run is one `propagate`: one flow, never M

    def propagate(self, n_steps: int) -> None:
        if n_steps > 0:
            self.propagate_to((self.n + n_steps) * self.tau)

    def propagate_to(self, t: float, *words: str) -> None:
        if not 0 <= t / self.tau < math.inf:  # NaN too
            raise ConfigurationError(f"time {t} must be finite and in the direction of tau")
        if t != self.t:
            self.propagation.add("eigh")
            self.n, self.t = round(t / self.tau), t
            self._curr = (self._q @ (np.exp(-1j * self._w * t) * self._coef)).reshape(2, -1)


SCHEMES = {cls.pattern.format(space.name): (cls, space)  # the paper's eight first
           for group in ([CNStepper, SI1Stepper, SI2Stepper, LFStepper], [TSFPStepper],
                         [EXStepper])
           for space in SPACE_OPERATORS.values() for cls in group if space in cls.spaces}
ALL_SCHEMES = tuple(SCHEMES)
UNBOUNDED = math.inf


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
    """Instantiate a stepper by scheme name (cnfd, sifd1, ..., lffp, tsfp, exfd, exfp),
    starting from problem.phi0 at t = 0."""
    time, space = lookup(scheme)
    return time(space, problem, tau)


def tau_max(scheme: str, h: float, v_max: float, a_max: float) -> float:
    """Largest stable time step for the scheme, or UNBOUNDED."""
    if not 0 < h < math.inf:
        raise ConfigurationError(f"h must be positive and finite, got {h}")
    if not (v_max >= 0 and a_max >= 0):  # NaN too
        raise ConfigurationError("potential bounds must be nonnegative")
    time, space = lookup(scheme)
    return time.bound(h, space.reach, v_max, a_max)


@dataclass
class StabilityVerdict:
    scheme: str
    h: float
    tau: float
    tau_max: float
    ok: bool
    margin: float  # tau / tau_max, 0 for unbounded schemes

    def __str__(self) -> str:
        bound = "unbounded" if self.tau_max == UNBOUNDED else f"{self.tau_max:.6g}"
        flag = "ok" if self.ok else "VIOLATED"
        return (f"{self.scheme:6s} h={self.h:<10.6g} tau={self.tau:<10.6g} "
                f"tau_max={bound:<10s} margin={self.margin:<8.3g} {flag}")


def validate(scheme: str, h: float, tau: float, v_max: float, a_max: float) -> StabilityVerdict:
    """Verdict for a (scheme, h, tau) choice against the declared bounds.

    Uses |tau| so reversed-time runs are judged by step magnitude.
    """
    if not math.isfinite(tau):
        raise ConfigurationError(f"tau must be finite, got {tau}")
    bound = tau_max(scheme, h, v_max, a_max)
    margin = abs(tau) / bound
    return StabilityVerdict(scheme.lower(), h, tau, bound, abs(tau) <= bound, margin)
