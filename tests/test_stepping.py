"""`Stepper.propagate`, identities of the one-step matrix M, and the launch
of the three-level schemes.

With a time-independent potential every scheme is a fixed linear map, and
`Stepper._one_step_matrix` is that map: 2N x 2N on Phi^n for CN and TSFP,
the 4N x 4N companion on [Phi^n; Phi^n-1] for SI1, SI2 and LF.
"""

import ast
import gc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import dirac1d
from dirac1d import (
    ConfigurationError,
    DiracProblem,
    PotentialPair,
    SolverError,
    SpinorField,
    TorusGrid,
    energy,
    make_stepper,
    norm,
    preset,
    tau_max,
)
from dirac1d.linalg import CyclicBlockTridiagSolver
from dirac1d.model import apply_k
from dirac1d.schemes import SI1Stepper, TSFPStepper
from dirac1d.stepping import dense_power_pays, dense_step_pays, squarings

from closed_form import closed_form, k_eigenpairs

SCHEMES = ["cnfd", "sifd1", "sifd2", "lffd", "cnfp", "sifp1", "sifp2", "lffp", "tsfp"]
THREE_LEVEL = {"sifd1", "sifd2", "lffd", "sifp1", "sifp2", "lffp"}


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return SpinorField(grid, rng.standard_normal((2, grid.N))
                       + 1j * rng.standard_normal((2, grid.N)))


def smooth_problem(n_nodes, eps, v, a, shift):
    """Time-independent smooth potentials with declared bounds |V| <= v, |A1| <= a."""
    grid = TorusGrid(0.0, 2 * np.pi, n_nodes)
    pots = PotentialPair(lambda t, x: v * np.cos(x + shift) ** 2,
                         lambda t, x: a * np.sin(2 * x - shift), True, v, a)
    return DiracProblem(grid, eps, pots, random_field(grid, 0), T0=1.0)


def launched_matrix(scheme, problem, tau):
    stepper = make_stepper(scheme, problem, tau)
    stepper.advance()  # three-level schemes: M acts after the launch
    return stepper._one_step_matrix()


def k_matrix(stepper):
    """K = -i sigma1 D + sigma3 + eps (V - A1 sigma1) on flattened (2, N)
    fields, from `apply_k` with the stepper's own operator and potentials on
    identity columns."""
    size = 2 * stepper.grid.N
    cols = np.eye(size, dtype=complex).reshape(size, 2, -1).transpose(1, 0, 2)
    out = apply_k(stepper.space, cols, *stepper._eps_potentials(stepper.t))
    return out.transpose(1, 0, 2).reshape(size, size).T


def energy_form(space, problem):
    """Hermitian Q with energy(phi) = phi^H Q phi on flattened (2, N) fields,
    K over the space operator `space`, recovered from the energy function
    itself by polarization."""
    grid, size = problem.grid, 2 * problem.grid.N

    def e(v):
        return energy(SpinorField(grid, v.reshape(2, -1)), space, problem.potentials,
                      problem.epsilon)

    unit = np.eye(size)
    diag = np.array([e(u) for u in unit])
    q = np.diag(diag).astype(complex)
    for j in range(size):
        for k in range(j + 1, size):
            re = (e(unit[j] + unit[k]) - diag[j] - diag[k]) / 2
            im = -(e(unit[j] + 1j * unit[k]) - diag[j] - diag[k]) / 2
            q[j, k], q[k, j] = re + 1j * im, re - 1j * im
    return q


SIG1 = np.array([[0, 1], [1, 0]])
SIG3 = np.diag([1, -1])
I2 = np.eye(2)
SIGNED_TAU = st.floats(-0.25, 0.25).filter(lambda t: abs(t) >= 1e-3)


def constant_potential_stepper(scheme, n_nodes, eps, v0, a0, tau):
    grid = TorusGrid(0.0, 2 * np.pi, n_nodes)
    pots = PotentialPair(lambda t, x: np.full_like(x, v0), lambda t, x: np.full_like(x, a0),
                         True, abs(v0), abs(a0))
    return make_stepper(scheme, DiracProblem(grid, eps, pots, random_field(grid, 0), T0=1.0),
                        tau)


def k_per_mode(stepper, eps, v0, a0):
    """(N, 2, 2) blocks K_l = (s_l - eps A0) sigma1 + sigma3 + eps V0, s_l the
    symbol of the stepper's D."""
    return (stepper.space.symbol - eps * a0)[:, None, None] * SIG1 + SIG3 + eps * v0 * I2


def companion(a, b):
    """Per-mode [[A, B], [I, 0]] from (N, 2, 2) blocks A and B."""
    out = np.zeros((len(a), 4, 4), dtype=complex)
    out[:, :2, :2], out[:, :2, 2:], out[:, 2:, :2] = a, b, I2
    return out


def assert_per_mode(stepper, want):
    """With constant potentials M is block diagonal in Fourier space: the
    (level, component) block of mode l equals want[l], and no entry couples
    two modes."""
    n = stepper.grid.N
    levels = stepper._matrix_size // (2 * n)
    m = stepper._one_step_matrix().reshape(levels, 2, n, levels, 2, n)
    m_hat = np.fft.ifft(np.fft.fft(m, axis=2), axis=5)  # F M F^{-1} per component
    per_mode = np.einsum("aclbdl->lacbd", m_hat).reshape(n, 2 * levels, 2 * levels)
    np.testing.assert_allclose(per_mode, want, rtol=0, atol=1e-12)
    off_mode = m_hat * (1 - np.eye(n))[None, None, :, None, None, :]
    assert np.abs(off_mode).max() <= 1e-12


def spectral_radius(m):
    return float(np.abs(np.linalg.eigvals(m)).max())


# `takes_dense_power` and `takes_dense_steps` at PATH_STEPS steps on N nodes,
# one letter per step count: P powers, D steps by M, B both, "." neither.
# They depend on the scheme only through its levels (three-level or not).
PATH_STEPS = (2, 10, 100, 10 ** 3, 10 ** 4, 10 ** 6)
PINNED_PATHS = {
    False: {16: "PPBBBB", 64: "...BBB", 128: "...DBB", 256: ".....P", 512: "......"},
    True: {16: "..BBBB", 64: "...DBB", 128: ".....P", 256: "......", 512: "......"},
}


def paths(stepper, steps):
    return "".join(".DPB"[2 * stepper.takes_dense_power(n) + stepper.takes_dense_steps(n)]
                   for n in steps)


class TestPropagate:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @settings(max_examples=6, deadline=None)
    @given(half_n=st.integers(4, 16), n=st.integers(1, 1000),
           eps=st.sampled_from([0.0, 0.25, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
    @example(half_n=8, n=1000, eps=1.0, seed=0)   # dense power
    @example(half_n=16, n=40, eps=0.25, seed=1)   # step loop
    def test_equals_advance_loop(self, scheme, half_n, n, eps, seed):
        N = 2 * half_n
        prob = preset("periodic-s51", eps).discretize(N=N)
        phi0 = random_field(prob.grid, seed)
        prob = replace(prob, phi0=phi0)
        a = make_stepper(scheme, prob, 1e-3)
        b = make_stepper(scheme, prob, 1e-3)
        a.propagate(n)
        for _ in range(n):
            b.advance()
        rest = n - (scheme in THREE_LEVEL)
        size = (4 if scheme in THREE_LEVEL else 2) * N
        dense = rest > 1 and dense_power_pays(size, rest, N)
        assert a.propagation == {"dense-power" if dense else "stepwise"}
        assert (a.n, a.t) == (b.n, pytest.approx(b.t))
        dist = norm(SpinorField(prob.grid, a._curr - b._curr), "l2")
        assert dist <= 1e-15 * n * norm(phi0, "l2") + 1e-13

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_time_dependent_potential_keeps_the_loop(self, scheme):
        grid = TorusGrid(0.0, 2 * np.pi, 16)
        pots = PotentialPair(lambda t, x: np.cos(t) / (1 + np.sin(x) ** 2),
                             lambda t, x: np.sin(2 * t) * np.cos(x), False, 1.0, 1.0)
        prob = DiracProblem(grid, 1.0, pots, random_field(grid, 3), T0=2.0)
        a = make_stepper(scheme, prob, 1e-2)
        b = make_stepper(scheme, prob, 1e-2)
        a.propagate(300)
        for _ in range(300):
            b.advance()
        assert a.propagation == {"stepwise"}
        np.testing.assert_array_equal(a._curr, b._curr)

    @pytest.mark.parametrize("scheme", ["lffp", "cnfd"])
    def test_later_calls_reuse_the_squares(self, scheme):
        prob = preset("periodic-s51", 0.25).discretize(N=16)
        split = make_stepper(scheme, prob, 1e-3)
        split.propagate(3_000)
        kept = list(split._squares)
        split.propagate(1_000)
        assert all(a is b for a, b in zip(kept, split._squares))
        whole = make_stepper(scheme, prob, 1e-3)
        whole.propagate(4_000)
        assert split.propagation == whole.propagation == {"dense-power"}
        dist = norm(SpinorField(prob.grid, split._curr - whole._curr), "l2")
        assert dist <= 1e-15 * 4_000 * norm(prob.phi0, "l2")

    @pytest.mark.parametrize("scheme", SCHEMES)
    @settings(max_examples=2, deadline=None)
    @given(short=st.integers(40, 120), long=st.integers(800, 1500), grows=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(short=40, long=1500, grows=True, seed=0)
    @example(short=40, long=1500, grows=False, seed=0)
    def test_two_calls_equal_the_loop(self, scheme, short, long, grows, seed):
        # The second call needs more squares than the first when it grows,
        # fewer when it does not; it squares further only in the first case.
        first, second = (short, long) if grows else (long, short)
        prob = preset("periodic-s51", 0.25).discretize(N=16)
        phi0 = random_field(prob.grid, seed)
        prob = replace(prob, phi0=phi0)
        a = make_stepper(scheme, prob, 1e-3)
        b = make_stepper(scheme, prob, 1e-3)
        a.propagate(first)
        kept = list(a._squares)
        assert len(kept) == squarings(a._matrix_size, first - (scheme in THREE_LEVEL)) + 1
        need = squarings(a._matrix_size, second) + 1
        assert (need > len(kept)) == grows
        a.propagate(second)
        assert len(a._squares) == max(need, len(kept))
        assert all(x is y for x, y in zip(kept, a._squares))
        for _ in range(first + second):
            b.advance()
        assert a.propagation == {"dense-power"}
        assert (a.n, a.t) == (b.n, pytest.approx(b.t))
        dist = norm(SpinorField(prob.grid, a._curr - b._curr), "l2")
        assert dist <= 1e-15 * (first + second) * norm(phi0, "l2") + 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 1_000, 2 ** 20 - 1, 2 ** 20])
    def test_powering_keeps_at_most_bit_length_squares(self, n):
        stepper = make_stepper("tsfp", preset("periodic-s51", 1.0).discretize(N=16), 1e-3)
        stepper.propagate(n)
        assert stepper.propagation == {"dense-power"}
        assert len(stepper._squares) == squarings(32, n) + 1 <= n.bit_length()

    def test_tail_is_about_a_third_to_two_thirds_of_m(self):
        for m in (256, 512):
            for n in range(10 ** 4, 10 ** 9, 9_876_543):
                k = squarings(m, n)
                assert k < n.bit_length() - 1 and 0.3 * m <= n >> k <= 0.7 * m, (m, n)

    def test_kept_bytes_at_m512_n1e6(self):
        # 13 squares, 54.5 MB; binary powering kept bit_length(10^6) = 20, 83.9 MB
        stepper = make_stepper("tsfp", preset("periodic-s51", 1.0).discretize(N=256), 1e-3)
        stepper.propagate(10 ** 6)
        assert stepper.propagation == {"dense-power"}
        assert sum(sq.nbytes for sq in stepper._squares) == 13 * 512 ** 2 * 16

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_paths_are_pinned(self, scheme):
        for N, want in PINNED_PATHS[scheme in THREE_LEVEL].items():
            stepper = make_stepper(scheme, preset("periodic-s51", 1.0).discretize(N=N), 1e-3)
            assert paths(stepper, PATH_STEPS) == want, N

    @pytest.mark.parametrize("eps, want", [(1.0, "...."), (0.25, "...."), (0.0625, "D...")])
    def test_converge_cnfd_cells_step(self, eps, want):
        # perfbench's converge-cnfd table: CNFD at (h, tau) = (pi/64, 0.05) / 2^k,
        # k = 0..3, to t = T0/eps (cells call `propagate`, so none powers),
        # and its TSFP reference at N_e = 1024, tau_e = 5e-4
        setup = preset("periodic-s51", eps)
        got = ""
        for k in range(4):
            tau = 0.05 / 2 ** k
            stepper = make_stepper("cnfd", setup.discretize(h=np.pi / 64 / 2 ** k), tau)
            got += paths(stepper, [round(setup.t_final / tau)])
        assert got == want
        reference = make_stepper("tsfp", setup.discretize(h=np.pi / 512), 5e-4)
        assert paths(reference, [round(setup.t_final / 5e-4)]) == "."

    def test_cnfd_residual_guard_checks_every_column(self, monkeypatch):
        solve = CyclicBlockTridiagSolver.solve

        def last_column_off(solver, rhs):
            out = solve(solver, rhs)
            if out.ndim == 3:  # a (2, k, N) batch: spoil its last field
                out[:, -1] *= 1.0 + 1e-9
            return out

        monkeypatch.setattr(CyclicBlockTridiagSolver, "solve", last_column_off)
        stepper = make_stepper("cnfd", preset("periodic-s51", 1.0).discretize(N=16), 1e-3)
        with pytest.raises(SolverError, match="CNFD linear residual"):
            stepper.propagate(4_000)
        assert stepper.propagation == {"dense-power"} and stepper.n == 0

    def test_cnfp_convergence_test_runs_in_the_build(self, monkeypatch):
        import dirac1d.schemes as schemes

        monkeypatch.setattr(schemes, "FIXED_POINT_MAX_SWEEPS", 1)
        stepper = make_stepper("cnfp", preset("periodic-s51", 1.0).discretize(N=16), 1e-3)
        with pytest.raises(SolverError, match="did not converge"):
            stepper.propagate(4_000)
        assert stepper.propagation == {"dense-power"} and stepper.n == 0

    def test_cnfp_batch_converges_field_by_field(self):
        # a zero field converges in one sweep; the other field must not stop with it
        prob = preset("periodic-s51", 1.0).discretize(N=16)
        stepper = make_stepper("cnfp", prob, 1e-2)
        alone = stepper._step(None, prob.phi0.values, 0.0)
        batch = np.stack((np.zeros_like(prob.phi0.values), prob.phi0.values), axis=1)
        out = stepper._step(None, batch, 0.0)
        assert stepper.diagnostics.iterations > 1
        np.testing.assert_array_equal(out[:, 0], 0.0)
        np.testing.assert_allclose(out[:, 1], alone, rtol=0, atol=1e-13)

    def test_size_cap_keeps_the_loop(self):
        assert not dense_power_pays(1024, 10 ** 6, 256)
        assert dense_power_pays(512, 10 ** 6, 128)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_dense_steps_pay_on_64_nodes(self, scheme):
        stepper = make_stepper(scheme, preset("periodic-s51", 1.0).discretize(N=64), 4e-3)
        assert stepper.takes_dense_steps(500) and stepper.takes_dense_steps(1_000)
        assert not stepper.takes_dense_steps(50)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matrix_steps_equal_the_loop_without_its_step(self, scheme):
        prob = preset("periodic-s51", 1.0).discretize(N=16)
        a = make_stepper(scheme, prob, 1e-2)
        b = make_stepper(scheme, prob, 1e-2)
        a.step_by_matrix()
        a._step = None  # each advance is now a mat-vec, or the launch
        for _ in range(20):
            a.advance()
            b.advance()
        assert (a.n, a.t) == (b.n, pytest.approx(b.t))
        dist = norm(SpinorField(prob.grid, a._curr - b._curr), "l2")
        assert dist <= 1e-15 * 20 * norm(prob.phi0, "l2")

    def test_dense_steps_keep_the_loop_on_larger_grids(self):
        assert dense_step_pays(256, 10 ** 6, 128)  # CN on 128 nodes
        assert not dense_step_pays(512, 10 ** 6, 128)  # three-level on 128 nodes
        assert not dense_step_pays(2 * 4096, 10 ** 6, 4096)

    def test_dense_steps_keep_the_loop_for_time_dependent_potentials(self):
        grid = TorusGrid(0.0, 2 * np.pi, 16)
        pots = PotentialPair(lambda t, x: np.cos(t) + 0 * x, lambda t, x: 0 * x, False, 1.0, 0.0)
        prob = DiracProblem(grid, 1.0, pots, random_field(grid, 3), T0=2.0)
        assert not make_stepper("cnfp", prob, 1e-2).takes_dense_steps(10 ** 6)


class TestOneStepMatrix:
    """Identities of M (mutants each rejects: CHANGES.md)."""

    @settings(max_examples=25, deadline=None)
    @given(scheme=st.sampled_from(["cnfd", "cnfp", "tsfp"]), half_n=st.integers(4, 16),
           eps=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0), a=st.floats(0.0, 1.0),
           shift=st.floats(0.0, 2 * np.pi), tau=st.floats(1e-3, 4.0))
    def test_crank_nicolson_and_tsfp_are_unitary(self, scheme, half_n, eps, v, a, shift, tau):
        # unitary for every tau, which is why both are unbounded; CN up
        # to tau = 0.25, where CNFP's fixed point converges for any draw
        tau = tau if scheme == "tsfp" else tau / 16
        m = launched_matrix(scheme, smooth_problem(2 * half_n, eps, v, a, shift), tau)
        assert np.abs(m.conj().T @ m - np.eye(len(m))).max() <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(scheme=st.sampled_from(["lffd", "lffp", "sifd1", "sifp1"]),
           half_n=st.integers(4, 16), eps=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
           a=st.floats(0.0, 1.0), shift=st.floats(0.0, 2 * np.pi))
    @example(scheme="lffd", half_n=16, eps=0.0, v=1.0, a=1.0, shift=0.0)
    @example(scheme="sifp1", half_n=16, eps=0.0, v=1.0, a=1.0, shift=0.0)
    def test_companion_stable_below_tau_max(self, scheme, half_n, eps, v, a, shift):
        prob = smooth_problem(2 * half_n, eps, v, a, shift)
        # eps*V and eps*A1 are the potentials K sees
        tau = 0.99 * tau_max(scheme, prob.grid.h, eps * v, eps * a)
        assert spectral_radius(launched_matrix(scheme, prob, tau)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("scheme", ["cnfd", "cnfp"])
    @settings(max_examples=6, deadline=None)
    @given(half_n=st.integers(4, 16), eps=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
           a=st.floats(0.0, 1.0), shift=st.floats(0.0, 2 * np.pi), tau=st.floats(1e-3, 0.25))
    def test_crank_nicolson_conserves_its_energy(self, scheme, half_n, eps, v, a, shift, tau):
        # M^H E M = E with E the quadratic form of the scheme's discrete energy
        prob = smooth_problem(2 * half_n, eps, v, a, shift)
        m = launched_matrix(scheme, prob, tau)
        q = energy_form(make_stepper(scheme, prob, tau).space, prob)
        assert np.abs(m.conj().T @ q @ m - q).max() <= 1e-12 * np.abs(q).max()

    @pytest.mark.parametrize("scheme", ["cnfd", "cnfp", "tsfp"])
    @settings(max_examples=10, deadline=None)
    @given(half_n=st.integers(4, 16), eps=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
           a=st.floats(0.0, 1.0), shift=st.floats(0.0, 2 * np.pi), tau=st.floats(1e-3, 0.25))
    def test_time_reversal(self, scheme, half_n, eps, v, a, shift, tau):
        # M(-tau) M(tau) = I
        prob = smooth_problem(2 * half_n, eps, v, a, shift)
        back = launched_matrix(scheme, prob, -tau) @ launched_matrix(scheme, prob, tau)
        assert np.abs(back - np.eye(len(back))).max() <= 1e-12

    @pytest.mark.parametrize("scheme", sorted(THREE_LEVEL))
    @settings(max_examples=10, deadline=None)
    @given(half_n=st.integers(4, 16), eps=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
           a=st.floats(0.0, 1.0), shift=st.floats(0.0, 2 * np.pi), tau=st.floats(1e-3, 0.15))
    def test_three_level_time_reversal(self, scheme, half_n, eps, v, a, shift, tau):
        # S M(-tau) S M(tau) = I, S swapping the blocks Phi^n and Phi^n-1:
        # run backwards from [Phi^n; Phi^n+1], a scheme returns Phi^n-1
        prob = smooth_problem(2 * half_n, eps, v, a, shift)
        size = 4 * prob.grid.N
        swap = np.roll(np.eye(size), size // 2, axis=0)
        back = (swap @ launched_matrix(scheme, prob, -tau) @ swap
                @ launched_matrix(scheme, prob, tau))
        assert np.abs(back - np.eye(size)).max() <= 1e-12

    @pytest.mark.parametrize("scheme", ["cnfd", "cnfp"])
    @settings(max_examples=10, deadline=None)
    @given(half_n=st.integers(2, 16), eps=st.floats(0.0, 1.0), v0=st.floats(-1.0, 1.0),
           a0=st.floats(-1.0, 1.0), tau=SIGNED_TAU)
    def test_crank_nicolson_closed_form_per_mode(self, scheme, half_n, eps, v0, a0, tau):
        # constant potentials: M is block diagonal in Fourier space, mode l
        # carrying (i - tau/2 K_l)^{-1} (i + tau/2 K_l) with
        # K_l = (s_l - eps A0) sigma1 + sigma3 + eps V0 and s_l the symbol of D
        stepper = constant_potential_stepper(scheme, 2 * half_n, eps, v0, a0, tau)
        k = k_per_mode(stepper, eps, v0, a0)
        want = np.linalg.solve(1j * I2 - tau / 2 * k, 1j * I2 + tau / 2 * k)
        assert_per_mode(stepper, want)

    @pytest.mark.parametrize("scheme", ["lffd", "lffp"])
    @settings(max_examples=10, deadline=None)
    @given(half_n=st.integers(2, 16), eps=st.floats(0.0, 1.0), v0=st.floats(-1.0, 1.0),
           a0=st.floats(-1.0, 1.0), tau=SIGNED_TAU)
    def test_leap_frog_closed_form_per_mode(self, scheme, half_n, eps, v0, a0, tau):
        # constant potentials: the companion on [Phi^n; Phi^n-1] is block
        # diagonal in Fourier space, mode l carrying [[-2i tau K_l, I], [I, 0]]
        # with K_l = (s_l - eps A0) sigma1 + sigma3 + eps V0
        stepper = constant_potential_stepper(scheme, 2 * half_n, eps, v0, a0, tau)
        k = k_per_mode(stepper, eps, v0, a0)
        assert_per_mode(stepper, companion(-2j * tau * k, I2))

    @pytest.mark.parametrize("scheme", ["sifd1", "sifp1"])
    @settings(max_examples=10, deadline=None)
    @given(half_n=st.integers(2, 16), eps=st.floats(0.0, 1.0), v0=st.floats(-1.0, 1.0),
           a0=st.floats(-1.0, 1.0), tau=SIGNED_TAU)
    def test_si1_closed_form_per_mode(self, scheme, half_n, eps, v0, a0, tau):
        # mode l: [[P^-1 (2 tau s_l sigma1), P^-1 Q], [I, 0]] with
        # P = (i - eps tau V0) I - tau sigma3 + eps tau A0 sigma1 and
        # Q = (i + eps tau V0) I + tau sigma3 - eps tau A0 sigma1
        # (|det P| >= 1 for every tau: `SI1Stepper._invert`)
        stepper = constant_potential_stepper(scheme, 2 * half_n, eps, v0, a0, tau)
        p = (1j - eps * tau * v0) * I2 - tau * SIG3 + eps * tau * a0 * SIG1
        q = (1j + eps * tau * v0) * I2 + tau * SIG3 - eps * tau * a0 * SIG1
        transport = 2 * tau * stepper.space.symbol[:, None, None] * SIG1
        assert_per_mode(stepper, companion(np.linalg.solve(p, transport),
                                           np.linalg.solve(p, q)))

    @pytest.mark.parametrize("scheme", ["sifd2", "sifp2"])
    @settings(max_examples=10, deadline=None)
    @given(half_n=st.integers(2, 16), eps=st.floats(0.0, 1.0), v0=st.floats(-1.0, 1.0),
           a0=st.floats(-1.0, 1.0), tau=SIGNED_TAU)
    def test_si2_closed_form_per_mode(self, scheme, half_n, eps, v0, a0, tau):
        # mode l: [[2 tau L^-1 G, L^-1 (2i - L)], [I, 0]] with
        # L = i I - tau (s_l sigma1 + sigma3) and G = eps (V0 I - A0 sigma1)
        stepper = constant_potential_stepper(scheme, 2 * half_n, eps, v0, a0, tau)
        ell = 1j * I2 - tau * (stepper.space.symbol[:, None, None] * SIG1 + SIG3)
        g = eps * (v0 * I2 - a0 * SIG1)
        assert_per_mode(stepper, companion(2 * tau * np.linalg.solve(ell, g),
                                           np.linalg.solve(ell, 2j * I2 - ell)))

    @settings(max_examples=10, deadline=None)
    @given(half_n=st.integers(2, 16), eps=st.floats(0.0, 1.0), v0=st.floats(-1.0, 1.0),
           a0=st.floats(-1.0, 1.0), tau=SIGNED_TAU)
    def test_tsfp_closed_form_per_mode(self, half_n, eps, v0, a0, tau):
        # mode l: E expm(-i tau (mu_l sigma1 + sigma3)) E with
        # E = expm(-i tau/2 eps (V0 I - A0 sigma1))
        stepper = constant_potential_stepper("tsfp", 2 * half_n, eps, v0, a0, tau)
        e = expm(-0.5j * tau * eps * (v0 * I2 - a0 * SIG1))
        free = [expm(-1j * tau * (mu * SIG1 + SIG3)) for mu in stepper.grid.mu_fft]
        assert_per_mode(stepper, e @ np.array(free) @ e)

    @pytest.mark.parametrize("scheme", ["lffd", "lffp", "sifd1", "sifp1"])
    @pytest.mark.parametrize("N", [16, 32])
    def test_tau_max_is_sharp_at_eps_zero(self, scheme, N):
        prob = preset("periodic-s51", 0.0).discretize(N=N)
        tau = tau_max(scheme, prob.grid.h, 0.0, 0.0)
        assert spectral_radius(launched_matrix(scheme, prob, 0.99 * tau)) <= 1.0 + 1e-12
        assert spectral_radius(launched_matrix(scheme, prob, 1.01 * tau)) > 1.1


class TestClosedForm:
    """CN and LF powering against their eigenpair closed forms (`closed_form`)."""

    @settings(max_examples=30, deadline=None)
    @given(eps=st.floats(0.0, 1.0), half_n=st.integers(2, 16), share=st.floats(0.01, 0.9),
           n=st.integers(1, 10**9))
    @example(eps=2.0**-10, half_n=16, share=0.9, n=10**9)
    def test_powering_within_rounding_of_the_closed_form(self, eps, half_n, share, n):
        # tau is a share of the LF bound, so |tau w| < 1 for every eigenvalue w.
        # Measured over about 3,000 draws: error <= 22 (n + 2N) 1e-16 ||Phi0||,
        # the worst at lffd, N = 4, share 0.9, n = 1e9; the 2N term is eigh's
        # own rounding, 1e-14 at n ~ 1.
        problem = preset("periodic-s51", eps).discretize(N=2 * half_n)
        pots, phi0 = problem.potentials, problem.phi0.values
        bound = 64 * (n + 2 * problem.grid.N) * 1e-16 * np.linalg.norm(phi0)
        for space in ("fd", "fp"):
            pairs = k_eigenpairs(problem, space)
            tau = share * tau_max("lf" + space, problem.grid.h, eps * pots.v_max,
                                  eps * pots.a_max)
            for family in ("cn", "lf"):
                stepper = make_stepper(family + space, problem, tau)
                stepper.propagate(n)
                err = np.linalg.norm(stepper._curr - closed_form(family, pairs, tau, n, phi0))
                assert err <= bound, (family + space, err, bound)


class TestLaunch:
    """Three-level schemes launch by forward Euler with their own K."""

    @pytest.mark.parametrize("scheme", sorted(THREE_LEVEL))
    def test_second_order_towards_own_semi_discrete_flow(self, scheme):
        prob = preset("periodic-s51", 1.0).discretize(N=64)
        t = 2.0
        k = k_matrix(make_stepper(scheme, prob, 4e-3))
        exact = expm(-1j * t * k) @ prob.phi0.values.reshape(-1)
        errors = []
        for tau in (4e-3, 2e-3):
            stepper = make_stepper(scheme, prob, tau)
            stepper.propagate(round(t / tau))
            errors.append(np.linalg.norm(stepper._curr.reshape(-1) - exact))
        order = np.log2(errors[0] / errors[1])
        assert abs(order - 2.0) <= 0.01, (errors, order)

    @pytest.mark.parametrize("scheme", sorted(THREE_LEVEL))
    def test_first_advance_is_forward_euler(self, scheme):
        # one launch from the preset's initial data and from random data
        prob = preset("periodic-s51", 0.25).discretize(N=32)
        tau = 1e-2
        for phi0 in (prob.phi0, random_field(prob.grid, 5)):
            stepper = make_stepper(scheme, replace(prob, phi0=phi0), tau)
            phi = stepper._curr.reshape(-1).copy()
            want = phi - 1j * tau * (k_matrix(stepper) @ phi)
            stepper.advance()
            np.testing.assert_allclose(stepper._curr.reshape(-1), want, rtol=0,
                                       atol=1e-13 * np.abs(phi).max())


def count_calls(monkeypatch, owner, name):
    """The list that grows by one at each call of owner.name, which still runs."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestKeptCoefficients:
    """`Stepper._kept`: a time-independent run makes each coefficient once,
    a time-dependent run makes it at every step."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_time_independent_run_makes_them_once(self, scheme, monkeypatch):
        prob = smooth_problem(16, 0.5, 1.0, 0.5, 0.3)
        evaluations = count_calls(monkeypatch, PotentialPair, "evaluate")
        factors = count_calls(monkeypatch, CyclicBlockTridiagSolver, "__init__")
        stepper = make_stepper(scheme, prob, 1e-2)
        assert len(factors) == (1 if scheme == "cnfd" else 0)  # made at construction
        for _ in range(100):
            stepper.advance()
        assert len(evaluations) == 1
        assert len(factors) == (1 if scheme == "cnfd" else 0)

    def test_time_dependent_run_makes_them_every_step(self, monkeypatch):
        grid = TorusGrid(0.0, 2 * np.pi, 16)
        pots = PotentialPair(lambda t, x: np.cos(t) / (1 + np.sin(x) ** 2),
                             lambda t, x: np.sin(2 * t) * np.cos(x), False, 1.0, 1.0)
        prob = DiracProblem(grid, 1.0, pots, random_field(grid, 3), T0=2.0)
        factors = count_calls(monkeypatch, CyclicBlockTridiagSolver, "__init__")
        inverses = count_calls(monkeypatch, SI1Stepper, "_invert")
        flows = count_calls(monkeypatch, TSFPStepper, "_half_flow")
        for scheme in ("cnfd", "sifd1", "sifp1", "tsfp"):
            stepper = make_stepper(scheme, prob, 1e-2)
            for _ in range(100):
                stepper.advance()
            assert stepper._memo == {}
        assert len(factors) == 100
        assert len(inverses) == 2 * 99  # sifd1 and sifp1, after their launch
        assert len(flows) == 2 * 100  # two half steps of the potential per step
        assert [args[1] for args in flows[:2]] == [0.25e-2, 0.75e-2]  # t + tau/4, t + 3tau/4

    @pytest.mark.parametrize("scheme", ["cnfd", "tsfp"])
    def test_the_memo_holds_no_reference_to_its_stepper(self, scheme):
        stepper = make_stepper(scheme, smooth_problem(16, 0.5, 1.0, 0.5, 0.3), 1e-2)
        stepper.propagate(50)
        assert stepper._memo
        gone = weakref.ref(stepper)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del stepper  # freed by its reference count alone: no cycle
            assert gone() is None
        finally:
            if enabled:
                gc.enable()


class TestSI1PointwiseInverse:
    @settings(max_examples=200, deadline=None)
    @given(share=st.floats(1e-6, 10.0), backwards=st.booleans(), eps=st.floats(0.0, 1.0),
           v0=st.floats(-3.0, 3.0), a0=st.floats(-3.0, 3.0))
    @example(share=10.0, backwards=False, eps=1.0, v0=3.0, a0=0.0)
    @example(share=10.0, backwards=True, eps=1.0, v0=0.0, a0=-3.0)
    @example(share=10.0, backwards=True, eps=1.0, v0=3.0, a0=3.0)
    def test_inverse_for_every_tau(self, share, backwards, eps, v0, a0):
        # tau up to 10x the share 1/2 of |tau| (1 + eps (V_max + A_max)), of
        # either sign: the bracket's |det| >= 1 for every tau
        tau = (-1 if backwards else 1) * share * 0.5 / (1 + eps * (abs(v0) + abs(a0)))
        stepper = constant_potential_stepper("sifd1", 8, eps, v0, a0, tau)
        (p, r), q = stepper._invert(0.0)
        ev, ea = eps * v0, eps * a0
        m11, m22, m12 = 1j - tau * ev - tau, 1j - tau * ev + tau, tau * ea
        product = np.array([[p * m11 + q * m12, p * m12 + q * m22],
                            [q * m11 + r * m12, q * m12 + r * m22]])
        assert all(np.isfinite(part).all() for part in (p, q, r))
        assert np.abs(product - I2[:, :, None]).max() <= 1e-13


class TestSnapshotsAndEnergy:
    """The public calls through which the harness and the references drive a
    stepper: `snapshots` and `energy`."""

    @pytest.mark.parametrize("scheme", ["cnfd", "lffp", "tsfp", "exfp"])
    def test_snapshots_are_sorted_copies_of_each_state(self, scheme):
        prob = smooth_problem(16, 0.5, 1.0, 0.5, 0.3)
        times = [0.3, 0.0, 0.1]
        got = make_stepper(scheme, prob, 0.05).snapshots(times)
        assert list(got) == sorted(times)
        stepper = make_stepper(scheme, prob, 0.05)
        for t, field in got.items():
            stepper.propagate_to(t)
            np.testing.assert_array_equal(field.values, stepper.phi.values)
        first = got[0.0].values
        assert not np.shares_memory(first, got[0.3].values)
        np.testing.assert_array_equal(first, prob.phi0.values)

    def test_snapshot_off_a_whole_step_is_refused_with_its_words(self):
        stepper = make_stepper("cnfd", smooth_problem(16, 0.5, 1.0, 0.5, 0.3), 0.05)
        with pytest.raises(ConfigurationError,
                           match="snapshot time 0.12 is not a nonnegative integer multiple of tau_e"):
            stepper.snapshots([0.1, 0.12], "snapshot time", "tau_e")

    @pytest.mark.parametrize("scheme", ["cnfd", "sifd1", "lffp", "tsfp"])
    def test_energy_is_the_model_energy_stepwise_and_by_matrix(self, scheme):
        prob = smooth_problem(16, 0.5, 1.0, 0.5, 0.3)
        loop, dense = (make_stepper(scheme, prob, 0.02) for _ in range(2))
        dense.step_by_matrix()
        for _ in range(5):
            loop.advance()
            dense.advance()
        want = energy(loop.phi, loop.space, prob.potentials, prob.epsilon)
        assert loop.energy() == want
        assert dense.energy() == pytest.approx(
            energy(dense.phi, dense.space, prob.potentials, prob.epsilon), rel=1e-13)

    def test_energy_refuses_time_dependent_potentials(self):
        grid = TorusGrid(0.0, 2 * np.pi, 16)
        pots = PotentialPair(lambda t, x: np.cos(t) + 0 * x, lambda t, x: 0 * x, False, 1.0, 0.0)
        stepper = make_stepper("cnfd", DiracProblem(grid, 1.0, pots, random_field(grid, 3)), 0.05)
        with pytest.raises(ConfigurationError, match="time-independent"):
            stepper.energy()


class TestRun:
    """`Stepper.run`, the one method that picks a run's path."""

    @pytest.mark.parametrize("scheme", SCHEMES + ["exfp"])
    @pytest.mark.parametrize("n_nodes, n_steps", [(16, 0), (16, 40), (16, 1000), (64, 300)])
    def test_unobserved_run_is_propagate(self, scheme, n_nodes, n_steps):
        prob = preset("periodic-s51", 0.5).discretize(N=n_nodes)
        ran, propagated = (make_stepper(scheme, prob, 1e-3) for _ in range(2))
        assert ran.run(n_steps) is None
        propagated.propagate(n_steps)
        np.testing.assert_array_equal(ran.phi.values, propagated.phi.values)
        assert ran.propagation == propagated.propagation
        assert (ran.n, ran.t) == (propagated.n, propagated.t)

    @pytest.mark.parametrize("every, n_steps, blown, path", [
        (None, 1000, 1000, {"dense-power"}), (None, 100, 100, {"stepwise"}), (None, 0, 0, set()),
        (1, 1000, 1000, {"dense-power"}), (1, 100, 1, {"stepwise"})])
    def test_unobserved_run_finds_a_blowup(self, every, n_steps, blown, path):
        # a run by `propagate` is judged at its end; a stepped one at every
        # `every`th step
        prob = preset("periodic-s51", 0.5).discretize(N=64)
        values = prob.phi0.values.copy()
        values[1, 5] = np.nan
        stepper = make_stepper("cnfd", replace(prob, phi0=SpinorField(prob.grid, values)), 1e-3)
        assert stepper.run(n_steps, every) == blown == stepper.n
        assert stepper.propagation == path

    @settings(max_examples=40, deadline=None)
    @given(n_steps=st.integers(0, 60), every=st.integers(1, 12), poison=st.integers(1, 80),
           scheme=st.sampled_from(["cnfd", "lffp", "tsfp"]), watch=st.booleans())
    @example(n_steps=60, every=7, poison=16, scheme="lffp", watch=False)  # observed at 21
    @example(n_steps=60, every=7, poison=16, scheme="lffp", watch=True)   # ends at 16
    def test_schedule(self, n_steps, every, poison, scheme, watch):
        # a NaN written after step `poison`: a watched mass ends the run at
        # once, else the next observation finds it
        stepper = make_stepper(scheme, preset("periodic-s51", 0.5).discretize(N=8), 1e-2)
        advance = stepper.advance

        def advance_then_poison():
            advance()
            if stepper.n == poison:
                stepper._curr[0, 3] = np.nan
        stepper.advance = advance_then_poison
        seen = []

        def observe(t):
            assert t == stepper.t
            seen.append(stepper.n)

        blown = stepper.run(n_steps, every, observe, np.inf if watch else None)
        if poison > n_steps:
            assert blown is None
        else:
            assert blown == (poison if watch else min(-(-poison // every) * every, n_steps))
        end = n_steps if blown is None else blown
        assert seen == sorted({*range(0, end + 1, every), end})
        assert stepper.n == end


# a stepper's own state, kept by `stepping.Stepper` and the scheme classes
STEPPER_PRIVATE = {"_curr", "_prev", "_kept", "_eps_potentials", "_squares", "_step_rows",
                   "_memo"}


def test_no_module_reads_a_steppers_private_state():
    # outside the two modules that define steppers, a stepper is driven through
    # its public calls only; a class's own `self._kept` (ReferenceConfig's) is
    # its own state, not a stepper's
    source = Path(dirac1d.__file__).resolve().parent
    reads = []
    for path in sorted(source.glob("*.py")):
        if path.name in ("stepping.py", "schemes.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in STEPPER_PRIVATE
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
                reads.append(f"{path.name}:{node.lineno} {node.attr}")
    assert reads == []


# what picks a run's path, and the set that names the paths taken
PATH_CALLS = {"takes_dense_power", "takes_dense_steps", "step_by_matrix"}


def test_no_module_but_the_steppers_picks_a_path():
    # `Stepper.run` picks every run's path; another module may read the
    # paths taken as `propagation_label`, never as `.propagation`
    source = Path(dirac1d.__file__).resolve().parent
    names = []
    for path in sorted(source.glob("*.py")):
        if path.name in ("stepping.py", "schemes.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in PATH_CALLS | {"propagation"}
                    or isinstance(node, ast.Name) and node.id in PATH_CALLS):
                names.append(f"{path.name}:{node.lineno} {getattr(node, 'attr', None) or node.id}")
    assert names == []
