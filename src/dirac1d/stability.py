"""Maximal stable time steps per scheme and pre-run validation.

A scheme is a time discretization over a space operator (`schemes.lookup`).
Its von Neumann bound is a class attribute of the time discretization,
`bound(h, r, V_max, A_max)`: unbounded on `Stepper`, overridden by SI1, SI2
and LF.  It depends on the space operator only through its reach r, the
bound on h*|symbol| (`grid`): 1 for the centered difference, pi for the
Fourier derivative.  V_max, A_max bound the potentials the operator
sees, eps*|V| and eps*|A1| (`DiracProblem.operator_bounds`).

    CN    unconditional: a unitary step for every tau
    SI1   tau <= h/r
    SI2   tau <= 1/(V_max + A_max)
    LF    tau <= h / (V_max*h + sqrt(h^2 + (r + h*A_max)^2))
    TS    unconditional: both Strang sub-flows are unitary for every tau
    EX    unconditional: the exact flow exp(-i tau K) is unitary for every tau

An unbounded step is UNBOUNDED = math.inf, so every margin |tau|/tau_max
is a float division (0.0 when unbounded); h and tau must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .schemes import SCHEMES, lookup

UNBOUNDED = math.inf
ALL_SCHEMES = tuple(SCHEMES)


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
