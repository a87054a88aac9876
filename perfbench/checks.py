"""Correctness checks on the program's outputs.

Each check compares an output with the dense exact-in-time solution of
`oracle.py` or with a property the method must have; none compares with a
stored copy of earlier output.  Every check returns a `Check`; `selftest.py`
shows that each one rejects a wrong answer.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


# An algebraic order-p method gains 2^p per halving of h; the centered
# difference gives 4.  A drop beyond 2^4 into the resolved mesh is the
# spectral (super-algebraic) signature.
SUPER_ALGEBRAIC_DROP = 16.0
# The spectral column must beat the stencil column by this factor once
# the data are resolved.
SPECTRAL_ADVANTAGE = 100.0
# Second-order cells on and above the sqrt(eps) diagonal.
ORDER_TARGET, ORDER_BAND = 2.0, 0.15
# A reference error d moves a table order by at most about 2.9 d/e; with
# the finest cell at e >= 5e-4 this tolerance keeps that below 0.01.
REFERENCE_TOL = 1e-6
# Second order in tau towards the semi-discrete solution.  The Taylor launch
# uses the exact derivative of the initial data, not the scheme's own space
# operator, which adds an O(tau h^2) term and pulls the observed order of
# the three-level FD schemes below 2 (sifd1: 1.87 at N = 64, tau = 4e-3).
TIME_ORDER_RANGE = (1.8, 2.2)
# Crank-Nicolson conserves mass and energy up to the solver tolerances
# (residual 1e-12, fixed point 1e-14 per step); leap-frog drifts at O(tau^2).
CONSERVATION_TOL = 1e-10


def _fmt_row(values) -> str:
    return " ".join(f"{v:.3e}" for v in values)


def superalgebraic_drop(e: np.ndarray, eps_list) -> Check:
    """Every eps row drops by more than 2^4 from h = pi/8 to h = pi/16."""
    drops = e[:, -2] / e[:, -1]
    ok = bool(np.all(np.isfinite(e)) and np.all(drops > SUPER_ALGEBRAIC_DROP))
    detail = "; ".join(f"eps={eps:g}: drop {d:.1f}" for eps, d in zip(eps_list, drops))
    return Check("lffp super-algebraic drop", ok, f"{detail} (need > {SUPER_ALGEBRAIC_DROP:g})")


def stencil_error_grows(e: np.ndarray, eps_list) -> Check:
    """The stencil's resolved-column error grows as eps falls (h^2/eps term)."""
    first, last = e[0, -1], e[-1, -1]
    ok = bool(np.all(np.isfinite(e)) and last > first)
    return Check("lffd resolved error grows as eps falls", ok,
                 f"e(eps={eps_list[-1]:g}) = {last:.3e} vs e(eps={eps_list[0]:g}) = {first:.3e}")


def spectral_beats_stencil(e_fd: np.ndarray, e_fp: np.ndarray) -> Check:
    """In the resolved column the spectral error is 100x below the stencil's."""
    ratio = e_fd[:, -1] / e_fp[:, -1]
    ok = bool(np.all(np.isfinite(ratio)) and np.all(ratio > SPECTRAL_ADVANTAGE))
    return Check("lffp beats lffd on the resolved mesh", ok,
                 f"lffd/lffp per eps row: {_fmt_row(ratio)} (need > {SPECTRAL_ADVANTAGE:g})")


def refinement_orders(orders: np.ndarray, eps_list) -> Check:
    """Orders 2 +/- 0.15 on and above the sqrt(eps) diagonal."""
    eps0 = eps_list[0]
    seen, ok = [], True
    for i, eps in enumerate(eps_list):
        start = max(1, int(round(math.log(eps0 / eps, 4.0))))
        for k in range(start, orders.shape[1]):
            o = orders[i, k]
            ok &= bool(np.isfinite(o) and abs(o - ORDER_TARGET) <= ORDER_BAND)
            seen.append(f"eps={eps:g},k={k}: {o:.3f}")
    return Check("cnfd refinement orders", bool(ok and seen), "; ".join(seen))


def reference_matches_oracle(distances: dict) -> Check:
    """Each cached reference lies within REFERENCE_TOL of the eigh solution."""
    ok = bool(distances) and all(d <= REFERENCE_TOL for d in distances.values())
    detail = "; ".join(f"eps={eps:g}: {d:.2e}" for eps, d in sorted(distances.items()))
    return Check("reference vs eigh", ok, f"{detail} (need <= {REFERENCE_TOL:g})")


def time_order(scheme: str, e_tau: float, e_half: float) -> Check:
    """Error vs the semi-discrete solution falls at second order in tau."""
    order = math.log2(e_tau / e_half) if e_tau > 0 and e_half > 0 else float("nan")
    lo, hi = TIME_ORDER_RANGE
    ok = bool(math.isfinite(order) and lo <= order <= hi)
    return Check(f"{scheme} vs eigh", ok,
                 f"errors {e_tau:.3e} -> {e_half:.3e}, order {order:.3f} (need {lo}..{hi})")


def conserved(label: str, series) -> Check:
    """Max relative drift of a mass or energy series."""
    s = np.asarray(series, dtype=float)
    drift = float(np.abs(s - s[0]).max() / abs(s[0])) if s.size and s[0] else float("nan")
    ok = bool(np.all(np.isfinite(s)) and drift <= CONSERVATION_TOL)
    return Check(f"{label} conserved", ok,
                 f"relative drift {drift:.2e} (need <= {CONSERVATION_TOL:g})")
