"""Maximal stable time steps per scheme and pre-run validation.

Von Neumann bounds for the eight schemes.  V_max, A_max bound the
potentials the operator sees, eps*|V| and eps*|A1|: callers pass the
declared sup norms times eps.

    cnfd, cnfp   unconditional
    sifd1        tau <= h
    sifd2, sifp2 tau <= 1/(V_max + A_max)
    sifp1        tau <= h/pi
    lffd         tau <= h / (V_max*h + sqrt(h^2 + (1  + h*A_max)^2))
    lffp         tau <= h / (V_max*h + sqrt(h^2 + (pi + h*A_max)^2))

Unbounded bounds are represented by the UNBOUNDED sentinel object, never by
an infinite float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import ConfigurationError


class Unbounded:
    """Explicit marker for schemes with no time-step restriction."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "unbounded"


UNBOUNDED = Unbounded()

FDTD_SCHEMES = ("cnfd", "sifd1", "sifd2", "lffd")
FDFP_SCHEMES = ("cnfp", "sifp1", "sifp2", "lffp")
ALL_SCHEMES = FDTD_SCHEMES + FDFP_SCHEMES


def tau_max(scheme: str, h: float, v_max: float, a_max: float) -> Union[float, Unbounded]:
    """Largest stable time step for the scheme, or UNBOUNDED."""
    if h <= 0:
        raise ConfigurationError("h must be positive")
    if v_max < 0 or a_max < 0:
        raise ConfigurationError("potential bounds must be nonnegative")
    s = scheme.lower()
    if s in ("cnfd", "cnfp"):
        return UNBOUNDED
    if s == "sifd1":
        return h
    if s == "sifp1":
        return h / math.pi
    if s in ("sifd2", "sifp2"):
        total = v_max + a_max
        return UNBOUNDED if total == 0 else 1.0 / total
    if s == "lffd":
        return h / (v_max * h + math.sqrt(h * h + (1.0 + h * a_max) ** 2))
    if s == "lffp":
        return h / (v_max * h + math.sqrt(h * h + (math.pi + h * a_max) ** 2))
    raise ConfigurationError(f"unknown scheme {scheme!r}; known: {ALL_SCHEMES}")


@dataclass
class StabilityVerdict:
    scheme: str
    h: float
    tau: float
    tau_max: Union[float, Unbounded]
    ok: bool
    margin: float  # tau / tau_max, 0 for unbounded schemes

    def __str__(self) -> str:
        bound = "unbounded" if isinstance(self.tau_max, Unbounded) else f"{self.tau_max:.6g}"
        flag = "ok" if self.ok else "VIOLATED"
        return (f"{self.scheme:6s} h={self.h:<10.6g} tau={self.tau:<10.6g} "
                f"tau_max={bound:<10s} margin={self.margin:<8.3g} {flag}")


def validate(scheme: str, h: float, tau: float, v_max: float, a_max: float) -> StabilityVerdict:
    """Verdict for a (scheme, h, tau) choice against the declared bounds.

    Uses |tau| so reversed-time runs are judged by step magnitude.
    """
    bound = tau_max(scheme, h, v_max, a_max)
    if isinstance(bound, Unbounded):
        return StabilityVerdict(scheme.lower(), h, tau, bound, True, 0.0)
    margin = abs(tau) / bound
    return StabilityVerdict(scheme.lower(), h, tau, bound, abs(tau) <= bound, margin)
