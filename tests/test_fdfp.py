"""Fourier-pseudospectral scheme tests: defining equations, per-mode
oracles with the exact symbol, CNFP fixed point behavior."""

import numpy as np
import pytest

from dirac1d import (
    preset,
    SolverError,
    make_grid,
    make_stepper,
    mass,
    norm,
    tau_max,
)

from test_fdtd import (I2, SIGMA1, SIGMA3, benchmark_problem, free_problem, one_step,
                       single_mode_problem)


def spectral(v, grid):
    return np.fft.ifft(1j * grid.mu_fft * np.fft.fft(v, axis=1), axis=1)


@pytest.fixture(scope="module")
def problem():
    return benchmark_problem(N=32, eps=1.0)


@pytest.fixture(scope="module")
def pots(problem):
    v, a = problem.potentials.evaluate(0.0, problem.grid.x)
    return v, a


class TestDefiningEquations:
    def _triple(self, scheme, problem, tau):
        st = make_stepper(scheme, problem, tau)
        st.advance()
        prev, curr = st._prev.copy(), st._curr.copy()
        st.advance()
        return prev, curr, st._curr.copy()

    def test_cnfp(self, problem, pots):
        tau = 0.01
        st = make_stepper("cnfp", problem, tau)
        curr = st._curr.copy()
        st.advance()
        new = st._curr.copy()
        ev, ea = pots
        mid = (new + curr) / 2
        d = spectral(mid, problem.grid)
        rhs = np.stack((-1j * d[1] + (1 + ev) * mid[0] - ea * mid[1],
                        -1j * d[0] + (ev - 1) * mid[1] - ea * mid[0]))
        np.testing.assert_allclose(1j * (new - curr) / tau, rhs, atol=1e-11)

    def test_sifp1(self, problem, pots):
        tau = 0.01
        prev, curr, new = self._triple("sifp1", problem, tau)
        ev, ea = pots
        d = spectral(curr, problem.grid)
        mid = (new + prev) / 2
        rhs = np.stack((-1j * d[1] + (1 + ev) * mid[0] - ea * mid[1],
                        -1j * d[0] + (ev - 1) * mid[1] - ea * mid[0]))
        np.testing.assert_allclose(1j * (new - prev) / (2 * tau), rhs, atol=1e-11)

    def test_sifp2(self, problem, pots):
        tau = 0.01
        prev, curr, new = self._triple("sifp2", problem, tau)
        ev, ea = pots
        mid = (new + prev) / 2
        d = spectral(mid, problem.grid)
        rhs = np.stack((-1j * d[1] + mid[0] + ev * curr[0] - ea * curr[1],
                        -1j * d[0] - mid[1] + ev * curr[1] - ea * curr[0]))
        np.testing.assert_allclose(1j * (new - prev) / (2 * tau), rhs, atol=1e-11)

    def test_lffp(self, problem, pots):
        tau = 0.01
        prev, curr, new = self._triple("lffp", problem, tau)
        ev, ea = pots
        d = spectral(curr, problem.grid)
        rhs = np.stack((-1j * d[1] + (1 + ev) * curr[0] - ea * curr[1],
                        -1j * d[0] + (ev - 1) * curr[1] - ea * curr[0]))
        np.testing.assert_allclose(1j * (new - prev) / (2 * tau), rhs, atol=1e-11)


class TestFreeModeRecurrences:
    """With eps = 0 the spectral schemes obey the 2x2 recurrences with the
    exact symbol mu in place of the stencil symbol sin(mu h)/h."""

    N, L, TAU, STEPS = 16, 3, 0.02, 6
    U0 = np.array([0.6 - 0.2j, 0.3 + 0.7j])

    def _mode_sequence(self, scheme):
        prob, grid = single_mode_problem(self.N, self.L, self.U0)
        st = make_stepper(scheme, prob, self.TAU)
        wave = np.exp(1j * self.L * grid.x)
        out = []
        for _ in range(self.STEPS):
            st.advance()
            u = st._curr[:, 0] / wave[0]
            np.testing.assert_allclose(st._curr, np.outer(u, wave), atol=1e-12)
            out.append(u)
        return out

    def _oracle(self, advance):
        mu = float(self.L)  # unit torus: mu_l = l
        u_prev = self.U0.copy()
        u_curr = (self.U0 - self.TAU * (SIGMA1 @ (1j * mu * self.U0))
                  - 1j * self.TAU * (SIGMA3 @ self.U0))
        seq = [u_curr]
        for _ in range(self.STEPS - 1):
            u_prev, u_curr = u_curr, advance(u_prev, u_curr, mu)
            seq.append(u_curr)
        return seq

    def test_sifp1_matches_recurrence(self):
        tau = self.TAU

        def advance(u_prev, u_curr, mu):
            lhs = 1j * I2 - tau * SIGMA3
            rhs = 2 * tau * mu * (SIGMA1 @ u_curr) + (1j * I2 + tau * SIGMA3) @ u_prev
            return np.linalg.solve(lhs, rhs)

        for got, want in zip(self._mode_sequence("sifp1"), self._oracle(advance)):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_sifp2_matches_recurrence(self):
        tau = self.TAU

        def advance(u_prev, u_curr, mu):
            lhs = 1j * I2 - tau * mu * SIGMA1 - tau * SIGMA3
            rhs = (1j * I2 + tau * mu * SIGMA1 + tau * SIGMA3) @ u_prev
            return np.linalg.solve(lhs, rhs)

        for got, want in zip(self._mode_sequence("sifp2"), self._oracle(advance)):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_lffp_matches_recurrence(self):
        tau = self.TAU

        def advance(u_prev, u_curr, mu):
            return u_prev - 2j * tau * ((mu * SIGMA1 + SIGMA3) @ u_curr)

        for got, want in zip(self._mode_sequence("lffp"), self._oracle(advance)):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_cnfp_is_per_mode_cayley(self):
        prob, grid = single_mode_problem(self.N, self.L, self.U0)
        tau = self.TAU
        mu = float(self.L)
        m = mu * SIGMA1 + SIGMA3
        st = make_stepper("cnfp", prob, tau)
        u = self.U0.copy()
        wave = np.exp(1j * self.L * grid.x)
        for _ in range(4):
            st.advance()
            u = np.linalg.solve(1j * I2 - 0.5 * tau * m, (1j * I2 + 0.5 * tau * m) @ u)
            np.testing.assert_allclose(st._curr, np.outer(u, wave), atol=1e-12)
            assert np.linalg.norm(u) == pytest.approx(np.linalg.norm(self.U0), rel=1e-13)
            assert st.diagnostics.iterations == 2  # no potential: sweep 2 repeats sweep 1


class TestCNFPFixedPoint:
    def test_zero_field_one_sweep(self):
        grid = make_grid(0.0, 2 * np.pi, 16)
        prob = free_problem(grid, lambda x: np.zeros((2, len(x)), dtype=complex))
        st = make_stepper("cnfp", prob, 0.01)
        st.advance()
        assert np.abs(st._curr).max() == 0.0
        assert st.diagnostics.iterations == 1

    def test_mass_conserved_1000_steps(self):
        prob = benchmark_problem(N=32)
        st = make_stepper("cnfp", prob, 0.01)
        m0 = mass(st.phi)
        for _ in range(1000):
            st.advance()
        assert abs(mass(st.phi) - m0) <= 1e-12 * m0

    def test_nonconvergence_reports_the_sweep_cap(self):
        prob = benchmark_problem(N=32)
        st = make_stepper("cnfp", prob, 2.0)
        with pytest.raises(SolverError, match="cap of 50 sweeps: last relative") as err:
            st.advance()
        assert err.value.diagnostics.iterations == 50
        assert err.value.diagnostics.linear_residual > 1e-14

    def test_iteration_count_scales_with_coupling(self):
        weak = benchmark_problem(N=32, eps=0.0625)
        strong = benchmark_problem(N=32, eps=1.0)
        st_weak = make_stepper("cnfp", weak, 0.01)
        st_strong = make_stepper("cnfp", strong, 0.01)
        st_weak.advance()
        st_strong.advance()
        assert st_weak.diagnostics.iterations <= st_strong.diagnostics.iterations


class TestSemiImplicitStability:
    @pytest.mark.parametrize("scheme", ["sifd2", "sifp2"])
    def test_stable_at_potential_bound(self, scheme):
        # the bound 1/(V_max + A_max) is h-independent; run 1e4 steps at 0.9x
        setup = preset("periodic-s51", 1.0)
        prob = setup.discretize(N=32)
        pots = setup.potentials
        tau = 0.9 / (pots.v_max + pots.a_max)
        st = make_stepper(scheme, prob, tau)
        n0 = norm(st.phi, "l2")
        worst = 0.0
        for _ in range(10_000):
            st.advance()
            worst = max(worst, norm(st.phi, "l2"))
        assert worst <= 2.0 * n0

    def test_sifp1_blows_up_just_above_bound(self):
        grid = make_grid(0.0, 2 * np.pi, 32)
        rng = np.random.default_rng(9)
        smooth = np.stack((np.exp(1j * grid.x), np.exp(-1j * grid.x)))
        v = smooth + 1e-8 * (rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32)))
        prob = free_problem(grid, lambda x: v)
        st = make_stepper("sifp1", prob, 1.1 * tau_max("sifp1", grid.h, 0, 0))
        n0 = norm(st.phi, "l2")
        for _ in range(2000):
            st.advance()
            if norm(st.phi, "l2") > 1e3 * n0:
                break
        assert norm(st.phi, "l2") > 1e3 * n0


class TestLFFPStability:
    def test_blows_up_beyond_cfl(self):
        grid = make_grid(0.0, 2 * np.pi, 16)
        rng = np.random.default_rng(1)
        prob = free_problem(grid, lambda x: np.exp(1j * np.outer([1, -1], x))
                            + 0.1 * rng.standard_normal((2, len(x))))
        st = make_stepper("lffp", prob, 1.5 * tau_max("lffp", grid.h, 0, 0))
        n0 = norm(st.phi, "l2")
        for _ in range(200):
            st.advance()
        assert norm(st.phi, "l2") > 1e3 * n0

    def test_stable_below_cfl(self):
        grid = make_grid(0.0, 2 * np.pi, 16)
        rng = np.random.default_rng(2)
        v = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
        prob = free_problem(grid, lambda x: v)
        st = make_stepper("lffp", prob, 0.9 * tau_max("lffp", grid.h, 0, 0))
        n0 = norm(st.phi, "l2")
        for _ in range(2000):
            st.advance()
        assert norm(st.phi, "l2") <= 2.0 * n0


class TestStepFunctions:
    def test_zero_states_stay_zero(self):
        grid = make_grid(0.0, 2 * np.pi, 16)
        zero = np.zeros((2, 16), dtype=complex)
        prob = free_problem(grid, lambda x: zero)
        for scheme in ("cnfp", "sifp1", "sifp2", "lffp"):
            assert np.abs(make_stepper(scheme, prob, 0.01)._step(zero, zero, 0.0)).max() == 0.0

    def test_spectral_and_stencil_versions_differ(self):
        # same data, same tau: the transport symbols differ, so outputs must
        # differ (guards against wiring the wrong derivative in)
        prob = benchmark_problem(N=16)
        a = one_step("lffp", prob, 0.01)
        b = one_step("lffd", prob, 0.01)
        assert np.abs(a.values - b.values).max() > 1e-6  # each launches with its own D

        st_p = make_stepper("lffp", prob, 0.01)
        st_d = make_stepper("lffd", prob, 0.01)
        for _ in range(2):
            st_p.advance()
            st_d.advance()
        assert np.abs(st_p._curr - st_d._curr).max() > 1e-9
