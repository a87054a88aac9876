"""Periodic grid, the two space operators, the symmetric 2x2 multiply,
restriction and norms.

All fields live on a uniform grid over the torus [a, b] with N nodes
x_j = a + j*h, j = 0..N-1 (node N is identified with node 0).  A spinor
field stores a complex (2, N) array: row 0 is the first component, row 1
the second.  Fourier work uses numpy's FFT along the node axis, whose
storage index k holds the signed mode l = 0..N/2-1, -N/2..-1 with
frequency `mu_fft[k]` = 2*pi*l/(b - a), so that

    f_j = sum_k  c_k exp(i*mu_fft[k]*(x_j - a)),    c = fft(f)/N.

The l = -N/2 mode is kept as-is everywhere (no symmetrization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

MAX_NODES = np.iinfo(np.intp).max // 32  # numpy holds no (2, N) complex field beyond


class TorusGrid:
    """Uniform periodic grid on [a, b] with an even number of nodes.

    Attributes:
        a, b: domain endpoints (b > a)
        N: node count (even, 4 .. MAX_NODES); nodes 0..N-1 are stored, node N aliases 0
        h: mesh size (b - a)/N
        x: node coordinates, shape (N,)
        mu_fft: frequencies mu_l = 2*pi*l/(b - a) in FFT storage order
            l = 0..N/2-1, -N/2..-1
    """

    __slots__ = ("a", "b", "N", "h", "x", "mu_fft")

    def __init__(self, a: float, b: float, N: int):
        if not b > a:
            raise ConfigurationError(f"domain endpoints must satisfy b > a, got ({a}, {b})")
        if N % 2 != 0 or not 4 <= N <= MAX_NODES:
            raise ConfigurationError(f"N must be even, >= 4 and <= {MAX_NODES}, got {N}")
        self.a = float(a)
        self.b = float(b)
        self.N = int(N)
        self.h = (self.b - self.a) / self.N
        self.x = self.a + self.h * np.arange(self.N)
        # fftfreq(N, 1/N) is exactly [0, 1, ..., N/2-1, -N/2, ..., -1]
        self.mu_fft = 2.0 * np.pi * np.fft.fftfreq(self.N, d=1.0 / self.N) / (self.b - self.a)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TorusGrid)
            and self.N == other.N
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.N))

    def __repr__(self) -> str:
        return f"TorusGrid(a={self.a}, b={self.b}, N={self.N})"


@dataclass
class SpinorField:
    """Complex 2-spinor sampled at the grid nodes; values has shape (2, N)."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (2, self.grid.N):
            raise ConfigurationError(
                f"spinor values must have shape (2, {self.grid.N}), got {v.shape}"
            )
        self.values = v

    def copy(self) -> "SpinorField":
        return SpinorField(self.grid, self.values.copy())


# The two space operators act along the last axis; apply(v) multiplies
# Fourier mode l of v by i*symbol[l] (symbol in FFT storage order).
# `reach` bounds h*|symbol| over every grid: the step bounds depend on the
# space operator through it alone.

class CenteredDifference:
    """Second-order centered difference (f_{j+1} - f_{j-1})/(2h), periodic."""

    name = "fd"
    reach = 1.0  # sup |sin(mu h)|

    def __init__(self, grid: TorusGrid):
        self.grid = grid

    @property
    def symbol(self) -> np.ndarray:
        return np.sin(self.grid.mu_fft * self.grid.h) / self.grid.h

    def apply(self, v: np.ndarray) -> np.ndarray:
        # v_{j+1} - v_{j-1} by slices into one array; nodes 0 and N-1 wrap
        out = np.empty(v.shape, np.result_type(v, 1.0))
        np.subtract(v[..., 2:], v[..., :-2], out=out[..., 1:-1])
        out[..., 0], out[..., -1] = v[..., 1] - v[..., -1], v[..., 0] - v[..., -2]
        out /= 2.0 * self.grid.h
        return out


class FourierDerivative:
    """d/dx through the Fourier interpolant: multiply mode l by i*mu_l."""

    name = "fp"
    reach = np.pi  # h * max|mu| = h * N/2 * 2*pi/(b - a)

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        self._i_symbol = 1j * grid.mu_fft

    @property
    def symbol(self) -> np.ndarray:
        return self.grid.mu_fft

    def apply(self, v: np.ndarray) -> np.ndarray:
        return np.fft.ifft(self._i_symbol * np.fft.fft(v, axis=-1), axis=-1)


SPACE_OPERATORS = {"fd": CenteredDifference, "fp": FourierDerivative}


def sym2(m11, m12, m22):
    """The symmetric 2x2 matrix [[m11, m12], [m12, m22]] as `apply_sym2`
    takes it: the diagonal stacked as (m11; m22), and m12.  Entries are
    scalars or arrays along the node (or mode) axis."""
    return np.stack((m11, m22)), m12


def apply_sym2(m, v: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """Apply m = sym2(m11, m12, m22) to each node of the spinor array v of
    shape (2, ..., N):

        out[0] = m11*v[0] + m12*v[1],    out[1] = m22*v[1] + m12*v[0].

    out and tmp (the off-diagonal product), both shaped like v, are
    allocated when not given.  out may overlap v, since the off-diagonal
    product is taken first and a ufunc's result does not depend on how its
    operands overlap; tmp may not overlap v or out."""
    if tmp is not None and (np.may_share_memory(tmp, v)
                            or out is not None and np.may_share_memory(tmp, out)):
        raise ValueError("apply_sym2: tmp must not overlap v or out")
    diag, m12 = m
    if diag.ndim < v.ndim:  # batch axes between the component and node axes
        diag = diag.reshape(diag.shape[:1] + (1,) * (v.ndim - diag.ndim) + diag.shape[1:])
    tmp = np.multiply(m12, v[::-1], out=tmp)
    out = np.multiply(diag, v, out=out)
    out += tmp
    return out


def norm(f: SpinorField, kind: str = "l2") -> float:
    """Discrete norm of a spinor field.

    l1:   h * sum_j |f_j|
    l2:   sqrt(h * sum_j |f_j|^2)
    linf: max_j |f_j|

    with |f_j| the Euclidean norm of the 2-vector at node j.
    """
    mag2 = np.abs(f.values[0]) ** 2 + np.abs(f.values[1]) ** 2
    if kind == "l2":
        return float(np.sqrt(f.grid.h * mag2.sum()))
    if kind == "l1":
        return float(f.grid.h * np.sqrt(mag2).sum())
    if kind == "linf":
        return float(np.sqrt(mag2.max()))
    raise ConfigurationError(f"unknown norm kind {kind!r} (expected l1, l2 or linf)")


def _same_interval(g1: TorusGrid, g2: TorusGrid) -> bool:
    scale = max(1.0, abs(g1.a), abs(g1.b))
    return abs(g1.a - g2.a) <= 1e-12 * scale and abs(g1.b - g2.b) <= 1e-12 * scale


def subsample(f: SpinorField, coarse: TorusGrid) -> SpinorField:
    """Restrict a fine-grid field to a nested coarse grid by node selection."""
    fine = f.grid
    if not _same_interval(fine, coarse):
        raise ConfigurationError("subsample requires grids on the same interval")
    if fine.N % coarse.N != 0:
        raise ConfigurationError(
            f"grids do not nest: fine N={fine.N} is not a multiple of coarse N={coarse.N}"
        )
    stride = fine.N // coarse.N
    return SpinorField(coarse, f.values[:, ::stride].copy())
