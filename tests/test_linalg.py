"""Cyclic block-tridiagonal solver against a dense assembly oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dirac1d import make_stepper, preset
from dirac1d.errors import SolverError
from dirac1d.linalg import CyclicBlockTridiagSolver
from dirac1d.schemes import RESIDUAL_TOL

RNG = np.random.default_rng(5)
SRC = str(Path(__file__).resolve().parent.parent / "src")


def dense_oracle(diag, bp, bm):
    """The 2N x 2N matrix on the field layout: unknown (c, j) at row c*N + j."""
    n = diag.shape[0]
    A = np.zeros((2, n, 2, n), dtype=complex)
    for j in range(n):
        A[:, j, :, j] = diag[j]
        jp, jm = (j + 1) % n, (j - 1) % n
        A[:, j, :, jp] += bp
        A[:, j, :, jm] += bm
    return A.reshape(2 * n, 2 * n)


def dense_solve(A, b):
    """np.linalg.solve for a (2, N) field or a (2, ..., N) batch of fields."""
    nodes_second = np.moveaxis(b, -1, 1)
    x = np.linalg.solve(A, nodes_second.reshape(A.shape[0], -1))
    return np.moveaxis(x.reshape(nodes_second.shape), 1, -1)


def random_fields(shape, rng=RNG):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_system(n, rng=RNG):
    diag = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    diag += 4.0 * np.eye(2)  # keep the whole matrix well conditioned
    bp = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    bm = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return diag, bp, bm


@pytest.mark.parametrize("n", [3, 4, 5, 16, 64])
def test_matches_dense_solve(n):
    diag, bp, bm = random_system(n)
    A = dense_oracle(diag, bp, bm)
    b = random_fields((2, n))
    solver = CyclicBlockTridiagSolver(diag, bp, bm)
    np.testing.assert_allclose(solver.solve(b), dense_solve(A, b),
                               rtol=1e-10, atol=1e-12)


def test_columns_solved_at_once(n=16):
    diag, bp, bm = random_system(n)
    A = dense_oracle(diag, bp, bm)
    b = random_fields((2, 5, n))
    solver = CyclicBlockTridiagSolver(diag, bp, bm)
    x = solver.solve(b)
    assert x.shape == b.shape
    np.testing.assert_allclose(x, dense_solve(A, b),
                               rtol=1e-10, atol=1e-12)


def test_factorization_reused_across_solves(n=32):
    diag, bp, bm = random_system(n)
    A = dense_oracle(diag, bp, bm)
    solver = CyclicBlockTridiagSolver(diag, bp, bm)
    for _ in range(3):
        b = random_fields((2, n))
        np.testing.assert_allclose(solver.solve(b), dense_solve(A, b),
                                   rtol=1e-10, atol=1e-12)


def test_crank_nicolson_shaped_system():
    # the off-diagonal blocks of the implicit step are +/- c*sigma1
    n, tau, h = 24, 0.05, 0.1
    c = 1j * tau / (4 * h)
    sig1 = np.array([[0, 1], [1, 0]], dtype=complex)
    diag = np.tile((1j * np.eye(2) - 0.5 * tau * np.diag([1.0, -1.0])), (n, 1, 1))
    bp, bm = c * sig1, -c * sig1
    A = dense_oracle(diag, bp, bm)
    b = random_fields((2, n))
    solver = CyclicBlockTridiagSolver(diag, bp, bm)
    np.testing.assert_allclose(solver.solve(b), dense_solve(A, b),
                               rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("n", [3, 4, 8])
def test_cyclic_shift_solved(n):
    # D = 0, B+ = I, B- = 0: a nonsingular periodic shift whose interior
    # band without the wrap blocks is singular
    diag = np.zeros((n, 2, 2), dtype=complex)
    bp, bm = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
    A = dense_oracle(diag, bp, bm)
    b = random_fields((2, n))
    solver = CyclicBlockTridiagSolver(diag, bp, bm)
    np.testing.assert_allclose(solver.solve(b), dense_solve(A, b),
                               rtol=1e-14, atol=1e-14)


def test_singular_band_reported():
    diag = np.zeros((8, 2, 2), dtype=complex)
    with pytest.raises(SolverError):
        CyclicBlockTridiagSolver(diag, np.zeros((2, 2)), np.zeros((2, 2)))


def test_shape_validation():
    with pytest.raises(SolverError):
        CyclicBlockTridiagSolver(np.zeros((8, 3, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(SolverError):
        CyclicBlockTridiagSolver(np.zeros((2, 2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))


def test_factor_holds_no_subnormal_part():
    # CNFD on 4096 nodes at eps = 1/16, tau = 0.00625: the band's fill-in
    # decays into tens of thousands of subnormal parts, flushed after gbtrf
    stepper = make_stepper("cnfd", preset("periodic-s51", 1 / 16).discretize(N=4096), 0.00625)
    lu = stepper._kept(stepper._factor, 0.0)[2]._lu  # the factor made at construction
    tiny = np.finfo(float).tiny
    for part in (lu.real, lu.imag):
        assert not np.any((part != 0) & (np.abs(part) < tiny))
    for _ in range(3):
        stepper.advance()
        assert stepper.diagnostics.linear_residual <= RESIDUAL_TOL


def test_importing_the_package_leaves_scipy_linalg_unimported():
    # scipy.linalg takes about 0.3 s to import; only a CNFD factor needs it
    code = "import sys, dirac1d; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert out.stdout.strip() == "False"
