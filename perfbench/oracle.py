"""Dense exact-in-time solutions of the semi-discrete Dirac systems.

On a periodic grid with N nodes the space-discrete equation is the linear
system i dPhi/dt = H Phi with the 2N x 2N Hermitian matrix

    H = [[ diag(1 + eps V),   P - diag(eps A1) ],
         [ P - diag(eps A1),  diag(eps V - 1)  ]],   P = -i D,

where D is either the centered difference (Phi_{j+1} - Phi_{j-1})/(2h) or
the Fourier-interpolation derivative (mode l times i mu_l, the l = -N/2 mode
kept as-is).  For time-independent potentials scipy.linalg.eigh gives
H = Q diag(w) Q^H once, and every snapshot is Q exp(-i w t) Q^H Phi0: the
tau -> 0 limit of any consistent time stepper on the same grid.

Only the problem description (potential values and initial data at the
nodes) is taken from dirac1d; the operator and the time evolution are built
here, so the benchmark's checks do not run through the code they check.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh


def derivative_matrix(n: int, length: float, space: str) -> np.ndarray:
    """Dense N x N first-derivative matrix on the periodic grid."""
    h = length / n
    if space == "fd":
        d = np.zeros((n, n))
        idx = np.arange(n)
        d[idx, (idx + 1) % n] = 1.0 / (2.0 * h)
        d[idx, (idx - 1) % n] = -1.0 / (2.0 * h)
        return d.astype(complex)
    if space == "fp":
        mu = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / length
        return np.fft.ifft(1j * mu[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    raise ValueError(f"unknown space discretization {space!r}")


class SemiDiscreteFlow:
    """Exact flow of one semi-discrete problem, diagonalized once."""

    def __init__(self, problem, space: str):
        grid = problem.grid
        n = grid.N
        v, a = problem.potentials.evaluate(0.0, grid.x)
        ev, ea = problem.epsilon * v, problem.epsilon * a
        p = -1j * derivative_matrix(n, grid.b - grid.a, space)
        off = p - np.diag(ea)
        ham = np.block([[np.diag(1.0 + ev), off], [off, np.diag(ev - 1.0)]])
        ham = 0.5 * (ham + ham.conj().T)  # drop FFT round-off asymmetry
        self.grid = grid
        self.w, self.q = eigh(ham)
        self.coef0 = self.q.conj().T @ problem.phi0.values.reshape(2 * n)

    def at(self, t: float) -> np.ndarray:
        """Phi(t) at the nodes, shape (2, N)."""
        phi = self.q @ (np.exp(-1j * self.w * t) * self.coef0)
        return phi.reshape(2, self.grid.N)


def l2_distance(u: np.ndarray, v: np.ndarray, h: float) -> float:
    """Discrete l2 norm of u - v: sqrt(h sum_j |u_j - v_j|^2)."""
    return float(np.sqrt(h * np.sum(np.abs(u - v) ** 2)))
