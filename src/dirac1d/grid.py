"""Periodic grid, discrete Fourier transforms, differentiation and norms.

All fields live on a uniform grid over the torus [a, b] with N nodes
x_j = a + j*h, j = 0..N-1 (node N is identified with node 0).  A spinor
field stores a complex (2, N) array: row 0 is the first component, row 1
the second.  Fourier coefficients use the signed mode set
l = -N/2, ..., N/2-1 with frequencies mu_l = 2*pi*l/(b - a) and the 1/N
normalization on the forward transform, so that

    f_j = sum_l  c_l exp(i*mu_l*(x_j - a)),
    c_l = (1/N) sum_j f_j exp(-2i*pi*j*l/N).

The l = -N/2 mode is kept as-is everywhere (no symmetrization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


class TorusGrid:
    """Uniform periodic grid on [a, b] with an even number of nodes.

    Attributes:
        a, b: domain endpoints (b > a)
        N: node count (even, >= 4); nodes 0..N-1 are stored, node N aliases 0
        h: mesh size (b - a)/N
        x: node coordinates, shape (N,)
        mode_numbers: signed integer modes -N/2..N/2-1, ascending
        frequencies: mu_l = 2*pi*l/(b - a) in the same ascending order
        mu_fft: frequencies in FFT storage order [0..N/2-1, -N/2..-1]
    """

    __slots__ = ("a", "b", "N", "h", "x", "mode_numbers", "frequencies", "mu_fft")

    def __init__(self, a: float, b: float, N: int):
        if not b > a:
            raise ConfigurationError(f"domain endpoints must satisfy b > a, got ({a}, {b})")
        if N % 2 != 0 or N < 4:
            raise ConfigurationError(f"N must be even and >= 4, got {N}")
        self.a = float(a)
        self.b = float(b)
        self.N = int(N)
        self.h = (self.b - self.a) / self.N
        self.x = self.a + self.h * np.arange(self.N)
        self.mode_numbers = np.arange(-self.N // 2, self.N // 2)
        self.frequencies = 2.0 * np.pi * self.mode_numbers / (self.b - self.a)
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


def make_grid(a: float, b: float, N: int) -> TorusGrid:
    """Build the periodic grid with mesh size h = (b - a)/N."""
    return TorusGrid(a, b, N)


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


@dataclass
class SpectralCoeffs:
    """Fourier coefficients per signed mode l = -N/2..N/2-1; shape (2, N)."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (2, self.grid.N):
            raise ConfigurationError(
                f"coefficients must have shape (2, {self.grid.N}), got {c.shape}"
            )
        self.coeffs = c

    def coeff(self, l: int) -> np.ndarray:
        """Coefficient 2-vector of mode l (signed)."""
        half = self.grid.N // 2
        if not -half <= l < half:
            raise ConfigurationError(f"mode {l} outside [-{half}, {half})")
        return self.coeffs[:, l + half]


def field_from_function(grid: TorusGrid, f) -> SpinorField:
    """Sample a callable f(x) -> (2, len(x)) complex array onto the grid."""
    return SpinorField(grid, np.asarray(f(grid.x), dtype=np.complex128))


def dft(f: SpinorField) -> SpectralCoeffs:
    """Forward transform with the 1/N normalization, modes ascending."""
    c = np.fft.fft(f.values, axis=1) / f.grid.N
    return SpectralCoeffs(f.grid, np.fft.fftshift(c, axes=1))


def idft(c: SpectralCoeffs) -> SpinorField:
    """Inverse of :func:`dft`."""
    v = np.fft.ifft(np.fft.ifftshift(c.coeffs, axes=1), axis=1) * c.grid.N
    return SpinorField(c.grid, v)


# The two space operators act along the last axis; apply(v) multiplies
# Fourier mode l of v by i*symbol[l] (symbol in FFT storage order).

class CenteredDifference:
    """Second-order centered difference (f_{j+1} - f_{j-1})/(2h), periodic."""

    name = "fd"

    def __init__(self, grid: TorusGrid):
        self.grid = grid

    @property
    def symbol(self) -> np.ndarray:
        return np.sin(self.grid.mu_fft * self.grid.h) / self.grid.h

    def apply(self, v: np.ndarray) -> np.ndarray:
        return (np.roll(v, -1, axis=-1) - np.roll(v, 1, axis=-1)) / (2.0 * self.grid.h)


class FourierDerivative:
    """d/dx through the Fourier interpolant: multiply mode l by i*mu_l."""

    name = "fp"

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        self._i_symbol = 1j * grid.mu_fft

    @property
    def symbol(self) -> np.ndarray:
        return self.grid.mu_fft

    def apply(self, v: np.ndarray) -> np.ndarray:
        return np.fft.ifft(self._i_symbol * np.fft.fft(v, axis=-1), axis=-1)


SPACE_OPERATORS = {"fd": CenteredDifference, "fp": FourierDerivative}


def spectral_derivative(f: SpinorField) -> SpinorField:
    """d/dx through the Fourier interpolant (:class:`FourierDerivative`)."""
    return SpinorField(f.grid, FourierDerivative(f.grid).apply(f.values))


def centered_difference(f: SpinorField) -> SpinorField:
    """Periodic centered difference (:class:`CenteredDifference`)."""
    return SpinorField(f.grid, CenteredDifference(f.grid).apply(f.values))


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


def scalar_norm(u: np.ndarray, h: float, kind: str = "l1") -> float:
    """Discrete norm of a per-node scalar array (densities, currents)."""
    u = np.asarray(u)
    if kind == "l1":
        return float(h * np.abs(u).sum())
    if kind == "l2":
        return float(np.sqrt(h * (np.abs(u) ** 2).sum()))
    if kind == "linf":
        return float(np.abs(u).max())
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


def trig_resample(f: SpinorField, target: TorusGrid) -> SpinorField:
    """Evaluate the trigonometric interpolant of f at the nodes of target.

    Used when grids share the interval but do not nest; O(N_src * N_dst).
    """
    src = f.grid
    if not _same_interval(src, target):
        raise ConfigurationError("trig_resample requires grids on the same interval")
    c = np.fft.fft(f.values, axis=1) / src.N  # fft mode order
    phase = np.exp(1j * np.outer(target.x - target.a, src.mu_fft))  # (N_dst, N_src)
    return SpinorField(target, c @ phase.T)
