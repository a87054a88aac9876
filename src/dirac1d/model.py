"""Problem definition and physical observables.

Governing equation on the torus (a, b), for the 2-spinor Phi(t, x):

    i dPhi/dt = (-i sigma1 d/dx + sigma3) Phi
                + eps (V(t,x) I2 - A1(t,x) sigma1) Phi,

with 0 < eps <= 1 scaling the electromagnetic potentials and runs extending
to the horizon t = T0/eps.  Observables: mass h*sum|Phi_j|^2, probability
density rho_j = |phi1|^2 + |phi2|^2, current J_j = 2 Re(conj(phi1) phi2),
and the discrete energy h Re<Phi, K Phi> (K with either space operator),
conserved by the Crank-Nicolson schemes for time-independent potentials.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError
from .grid import SpinorField, TorusGrid

# max over x of |cos(x) + sin(2x)|, attained at sin(x) = (sqrt(33)-1)/8
_COS_PLUS_SIN2_MAX = 1.7601725930461
# max over R of |(1-x)/(1+x^2)| = (1+sqrt(2))/2, attained at x = 1-sqrt(2)
_RATIONAL_V_MAX = (1.0 + math.sqrt(2.0)) / 2.0


@dataclass
class PotentialPair:
    """Electric and magnetic potential evaluators with declared sup bounds.

    V and A1 map (t, x-array) -> array; they must be vectorized in x and
    reentrant.  v_max/a_max are the declared sup norms used by the CFL
    bounds; `check_bounds` spot-checks them by sampling.
    """

    V: Callable[[float, np.ndarray], np.ndarray]
    A1: Callable[[float, np.ndarray], np.ndarray]
    time_independent: bool
    v_max: float
    a_max: float

    def __post_init__(self):
        if not (self.v_max >= 0 and self.a_max >= 0):  # NaN too
            raise ConfigurationError("potential bounds must be nonnegative")

    def evaluate(self, t: float, x: np.ndarray):
        v = np.broadcast_to(np.asarray(self.V(t, x), dtype=float), x.shape)
        a = np.broadcast_to(np.asarray(self.A1(t, x), dtype=float), x.shape)
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(a))):
            raise ConfigurationError(f"potential evaluation returned non-finite values at t={t}")
        return v, a


def _zero_evaluator(t, x):
    return np.zeros_like(x)


def zero_potentials() -> PotentialPair:
    """The free problem: V = A1 = 0."""
    return PotentialPair(_zero_evaluator, _zero_evaluator, True, 0.0, 0.0)


BOUNDS_SPACE_FACTOR = 16  # check_bounds samples this many points per grid cell
BOUNDS_TIME_SAMPLES = 100  # and this many times over [0, t_final]


def check_bounds(p: PotentialPair, grid: TorusGrid, t_final: float) -> bool:
    """Sample |V|, |A1| densely and warn if a declared bound is exceeded."""
    n_x = BOUNDS_SPACE_FACTOR * grid.N
    xs = grid.a + (grid.b - grid.a) * np.arange(n_x) / n_x
    ts = [0.0] if p.time_independent else np.linspace(0.0, t_final, BOUNDS_TIME_SAMPLES)
    ok = True
    for t in ts:
        v, a = p.evaluate(float(t), xs)
        vmax, amax = np.abs(v).max(), np.abs(a).max()
        if vmax > p.v_max * (1 + 1e-12) or amax > p.a_max * (1 + 1e-12):
            warnings.warn(
                f"declared potential bounds exceeded at t={t}: "
                f"|V| up to {vmax:.6g} (declared {p.v_max:.6g}), "
                f"|A1| up to {amax:.6g} (declared {p.a_max:.6g})",
                stacklevel=2,
            )
            ok = False
            break
    return ok


class _Horizon:
    @property
    def t_final(self) -> float:
        """Run horizon T0/eps (T0 itself for the free problem eps = 0)."""
        return self.T0 / self.epsilon if self.epsilon > 0 else self.T0


@dataclass
class DiracProblem(_Horizon):
    """A fully discretized problem instance bound to one grid."""

    grid: TorusGrid
    epsilon: float
    potentials: PotentialPair
    phi0: SpinorField
    T0: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.T0 <= 0:
            raise ConfigurationError("T0 must be positive")
        if self.phi0.grid != self.grid:
            raise ConfigurationError("phi0 must live on the problem grid")

    @property
    def time_independent(self) -> bool:
        """Potentials declared time-independent, or switched off by eps = 0."""
        return self.potentials.time_independent or self.epsilon == 0.0

    @property
    def operator_bounds(self) -> tuple[float, float]:
        """(eps*V_max, eps*A_max): the declared bounds of the potentials the
        operator sees, eps*V and eps*A1, which the step bounds take."""
        return self.epsilon * self.potentials.v_max, self.epsilon * self.potentials.a_max


def mass(f: SpinorField) -> float:
    """Total probability h*sum_j |Phi_j|^2 (the squared l2 norm)."""
    return float(f.grid.h * np.vdot(f.values, f.values).real)


def density(f: SpinorField) -> np.ndarray:
    """Probability density rho_j = |phi1_j|^2 + |phi2_j|^2."""
    return np.abs(f.values[0]) ** 2 + np.abs(f.values[1]) ** 2


def current(f: SpinorField) -> np.ndarray:
    """Current density J_j = Phi_j* sigma1 Phi_j = 2 Re(conj(phi1_j) phi2_j)."""
    return 2.0 * np.real(np.conj(f.values[0]) * f.values[1])


def apply_k(space, v: np.ndarray, ev: np.ndarray, ea: np.ndarray) -> np.ndarray:
    """K v for K = -i sigma1 D + sigma3 + ev I2 - ea sigma1 on fields shaped
    (2, ..., N), D the space operator `space` and (ev, ea) = eps (V, A1) at the
    nodes: the one written-out K, for every stepper and the discrete energy."""
    out = space.apply(v)[::-1]  # D v with its components swapped, sigma1 D v
    np.multiply(-1j, out, out=out)
    out[0] += (1.0 + ev) * v[0]
    out[0] -= ea * v[1]
    out[1] += (ev - 1.0) * v[1]
    out[1] -= ea * v[0]
    return out


def discrete_energy(space, v: np.ndarray, ev: np.ndarray, ea: np.ndarray,
                    k: Optional[np.ndarray] = None) -> float:
    """The discrete energy h Re<Phi, K Phi> of one field, K as in `apply_k`,
    or K given as the matrix `k` on the flattened field, built once from
    `apply_k` for many fields.  K is Hermitian, so an imaginary part above
    rounding is an assembly bug."""
    kv = apply_k(space, v, ev, ea) if k is None else k @ v.reshape(-1)
    total = space.grid.h * np.vdot(v, kv)
    if abs(total.imag) > 1e-12 * max(1.0, abs(total.real)):
        raise ConfigurationError(
            f"energy assembly produced imaginary part {total.imag:.3e} (assembly bug?)"
        )
    return float(total.real)


def energy(f: SpinorField, space, p: PotentialPair, eps: float) -> float:
    """h Re<Phi, K Phi> of f, K over `space`, a space operator on f's grid
    as a stepper holds it; time-independent potentials only."""
    if space.grid != f.grid:
        raise ConfigurationError(f"the space operator is on {space.grid}, the field on {f.grid}")
    # the rule of DiracProblem.time_independent: eps = 0 switches V and A1 off
    if not (p.time_independent or eps == 0.0):
        raise ConfigurationError("the discrete energy is defined only for time-independent potentials")
    v, a = p.evaluate(0.0, f.grid.x)
    return discrete_energy(space, f.values, eps * v, eps * a)


# ---------------------------------------------------------------------------
# problem setups (grid-independent descriptions) and named presets
# ---------------------------------------------------------------------------

@dataclass
class ProblemSetup(_Horizon):
    """Grid-independent problem description, discretized on demand.

    For expanding setups (`expand_with_horizon`), the computational interval
    grows with the horizon: (base_a - T0/eps, base_b + T0/eps), and N is
    derived from the requested mesh size.
    """

    a: float
    b: float
    epsilon: float
    T0: float
    potentials: PotentialPair
    phi0_func: Callable[[np.ndarray], np.ndarray]
    expand_with_horizon: bool = False
    key: Optional[dict] = field(default=None)

    def domain(self) -> tuple[float, float]:
        if self.expand_with_horizon:
            return self.a - self.t_final, self.b + self.t_final
        return self.a, self.b

    def grid_for_mesh(self, h: float) -> TorusGrid:
        """Grid holding the mesh size (N rounded up to even if needed)."""
        if not h > 0:
            raise ConfigurationError(f"mesh size h must be positive, got {h}")
        a, b = self.domain()
        n = (b - a) / h
        N = int(math.ceil(n - 1e-9))
        if N % 2 != 0:
            N += 1
        return TorusGrid(a, b, N)

    def discretize(self, h: Optional[float] = None, N: Optional[int] = None) -> DiracProblem:
        if (h is None) == (N is None):
            raise ConfigurationError("give exactly one of h or N")
        grid = self.grid_for_mesh(h) if h is not None else TorusGrid(*self.domain(), N)
        phi0 = SpinorField(grid, self.phi0_func(grid.x))
        return DiracProblem(grid, self.epsilon, self.potentials, phi0, T0=self.T0)

    def with_epsilon(self, epsilon: float) -> "ProblemSetup":
        key = dict(self.key, epsilon=epsilon) if self.key is not None else None
        return ProblemSetup(self.a, self.b, epsilon, self.T0, self.potentials,
                            self.phi0_func, self.expand_with_horizon, key)


# preset evaluators live at module level so problem setups pickle cleanly
# (worker pools ship them to subprocesses)

def _torus_V(t, x):
    return 1.0 / (1.0 + np.sin(x) ** 2)


def _torus_A1(t, x):
    return np.cos(x) + np.sin(2.0 * x)


def _torus_phi0(x):
    return np.array([1.0 / (1.0 + np.sin(x) ** 2),
                     1.0 / (3.0 + np.cos(x))], dtype=np.complex128)


def _torus_benchmark(epsilon: float) -> ProblemSetup:
    """Smooth periodic benchmark on (0, 2*pi) with horizon 2/eps."""
    pots = PotentialPair(_torus_V, _torus_A1, time_independent=True,
                         v_max=1.0, a_max=_COS_PLUS_SIN2_MAX)
    return ProblemSetup(0.0, 2.0 * np.pi, epsilon, 2.0, pots, _torus_phi0,
                        key={"preset": "periodic-s51", "epsilon": epsilon})


def _packet_V(t, x):
    return (1.0 - x) / (1.0 + x ** 2)


def _packet_A1(t, x):
    return (1.0 + x) ** 2 / (1.0 + x ** 2)


def _packet_s0(x):
    return (1.0 + np.cos(2.0 * np.pi * x)) / 40.0


def _packet_s0p(x):
    return -(np.pi / 20.0) * np.sin(2.0 * np.pi * x)


def _packet_phi0(x):
    g = 0.5 * np.exp(-4.0 * x ** 2) * np.exp(1j * _packet_s0(x))
    sp = _packet_s0p(x)
    return np.array([g * (1.0 + np.sqrt(1.0 + sp ** 2)), g * sp])


def _wavepacket_expanding(epsilon: float) -> ProblemSetup:
    """Gaussian wavepacket with oscillatory phase on an expanding interval.

    The outgoing waves reach |x| ~ t, so the interval (-7, 7) is padded by
    the horizon T0/eps on both sides; errors are read off at t = 1/eps.
    """
    pots = PotentialPair(_packet_V, _packet_A1, time_independent=True,
                         v_max=_RATIONAL_V_MAX, a_max=2.0)
    return ProblemSetup(-7.0, 7.0, epsilon, 1.0, pots,
                        _packet_phi0, expand_with_horizon=True,
                        key={"preset": "whole-space-s52", "epsilon": epsilon})


_PRESETS = {
    "periodic-s51": _torus_benchmark,
    "whole-space-s52": _wavepacket_expanding,
}


def preset(name: str, epsilon: float) -> ProblemSetup:
    """Named built-in problem setups: 'periodic-s51', 'whole-space-s52'."""
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None
    return builder(epsilon)
