"""Closed-form Crank-Nicolson and leap-frog solutions at any step count.

CN and LF are functions of K = -i sigma1 D + sigma3 + eps (V - A1 sigma1)
alone, so with K = Q diag(w) Q^H each eigencomponent p = q^H Phi evolves on
its own:

    CN   p^n = exp(-2i n atan(tau w / 2)) p^0,
         the Cayley factor (1 - i tau w/2) / (1 + i tau w/2) to the n;
    LF   p^n = a r+^n + b r-^n,  r+- the roots of r^2 + 2i tau w r - 1 = 0,
         r+ = exp(-i theta), r- = -exp(i theta), sin(theta) = tau w,
         with a + b = p^0 and the forward Euler launch
         a r+ + b r- = p^1 = (1 - i tau w) p^0.

LF needs |tau w| < 1 (below its stability bound).  The phases are taken as
n times an angle, so the rounding grows with n tau ||K||, not with the way
n is reached.  K is built here from its definition, with D the dense
centered-difference or Fourier-derivative matrix, so the oracle does not
run through `model.apply_k` or the space operators it checks.
"""

import numpy as np


def derivative_matrix(n: int, length: float, space: str) -> np.ndarray:
    """Dense N x N periodic first derivative: (u_{j+1} - u_{j-1}) / (2h) for
    "fd", the derivative of the trigonometric interpolant (mode l times
    i mu_l, the l = -N/2 mode kept) for "fp"."""
    if space == "fd":
        shift = np.roll(np.eye(n), 1, axis=1)  # row j picks u_{j+1}
        return (shift - shift.T) / (2.0 * length / n)
    j = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(j, j) / n)
    mu = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / length
    return dft.conj().T @ np.diag(1j * mu) @ dft / n


def k_eigenpairs(problem, space: str):
    """(w, Q) of the 2N x 2N Hermitian K of a time-independent problem on the
    flattened (2, N) field."""
    grid = problem.grid
    v, a = problem.potentials.evaluate(0.0, grid.x)
    ev, ea = problem.epsilon * v, problem.epsilon * a
    off = -1j * derivative_matrix(grid.N, grid.b - grid.a, space) - np.diag(ea)
    k = np.block([[np.diag(1.0 + ev), off], [off, np.diag(ev - 1.0)]])
    return np.linalg.eigh(0.5 * (k + k.conj().T))


def closed_form(scheme: str, eigenpairs, tau: float, n: int, phi0: np.ndarray) -> np.ndarray:
    """Phi^n of CN ("cn..") or LF ("lf..") at step tau from the (2, N) phi0."""
    w, q = eigenpairs
    p0 = q.conj().T @ phi0.reshape(-1)
    if scheme.startswith("cn"):
        pn = np.exp(-2j * n * np.arctan(0.5 * tau * w)) * p0
    else:
        theta = np.arcsin(tau * w)
        r_plus, r_minus = np.exp(-1j * theta), -np.exp(1j * theta)
        a = ((1.0 - 1j * tau * w) - r_minus) * p0 / (r_plus - r_minus)
        pn = a * np.exp(-1j * n * theta) + (p0 - a) * (-1) ** (n % 2) * np.exp(1j * n * theta)
    return (q @ pn).reshape(phi0.shape)
