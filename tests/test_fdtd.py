"""Finite-difference scheme tests: defining equations, per-mode oracles,
conservation, and the forward-Euler launch of the three-level schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirac1d.schemes as schemes
from dirac1d import (
    ConfigurationError,
    DiracProblem,
    SchemeConfig,
    SpinorField,
    TorusGrid,
    energy,
    make_stepper,
    mass,
    norm,
    preset,
    run_simulation,
    tau_max,
    zero_potentials,
)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

RNG = np.random.default_rng(11)


def benchmark_problem(N=32, eps=1.0):
    return preset("periodic-s51", eps).discretize(N=N)


def free_problem(grid, phi0_func):
    phi0 = SpinorField(grid, phi0_func(grid.x))
    return DiracProblem(grid, 0.0, zero_potentials(), phi0, T0=2.0)


def single_mode_problem(N, l, u):
    """Free problem whose initial data is u * exp(i*mu_l*x)."""
    grid = TorusGrid(0.0, 2 * np.pi, N)
    u = np.asarray(u, dtype=complex)
    return free_problem(grid, lambda x: np.outer(u, np.exp(1j * l * x))), grid


def one_step(scheme, problem, tau):
    """The first step of the scheme from problem.phi0 (the launch step of a
    three-level scheme)."""
    stepper = make_stepper(scheme, problem, tau)
    stepper.advance()
    return stepper.phi.copy()


def centered(v, h):
    return (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2 * h)


# ---------------------------------------------------------------------------
# the launch step
# ---------------------------------------------------------------------------

class TestFirstStep:
    def test_zero_data_stays_zero(self):
        grid = TorusGrid(0.0, 2 * np.pi, 16)
        prob = free_problem(grid, lambda x: np.zeros((2, len(x)), dtype=complex))
        assert np.abs(one_step("lffd", prob, 0.05).values).max() == 0.0

    def test_constant_up_spinor_free(self):
        grid = TorusGrid(0.0, 2 * np.pi, 16)
        prob = free_problem(grid, lambda x: np.stack((np.ones_like(x, complex),
                                                      np.zeros_like(x, complex))))
        phi1 = one_step("lffd", prob, 0.05)
        np.testing.assert_allclose(phi1.values[0], 1.0 - 0.05j, atol=1e-15)
        np.testing.assert_allclose(phi1.values[1], 0.0, atol=1e-15)

    def test_benchmark_value_at_origin(self):
        # frozen from a 50-digit arbitrary-precision evaluation of the
        # launch formula at x = 0, eps = 1, tau = 0.05 (the initial data are
        # even about x = 0, so their centered difference vanishes there)
        prob = benchmark_problem(N=64, eps=1.0)
        phi1 = one_step("lffd", prob, 0.05)
        assert phi1.values[0, 0] == pytest.approx(1.0 - 0.0875j, abs=1e-14)
        assert phi1.values[1, 0] == pytest.approx(0.25 + 0.05j, abs=1e-14)


# ---------------------------------------------------------------------------
# defining equations: plug the produced triple back into the scheme
# ---------------------------------------------------------------------------

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

    def test_cnfd(self, problem, pots):
        tau = 0.01
        st = make_stepper("cnfd", problem, tau)
        curr = st._curr.copy()
        st.advance()
        new = st._curr.copy()
        ev, ea = pots
        mid = (new + curr) / 2
        d = centered(mid, problem.grid.h)
        rhs = np.stack((-1j * d[1] + (1 + ev) * mid[0] - ea * mid[1],
                        -1j * d[0] + (ev - 1) * mid[1] - ea * mid[0]))
        np.testing.assert_allclose(1j * (new - curr) / tau, rhs, atol=1e-11)

    def test_sifd1(self, problem, pots):
        tau = 0.01
        prev, curr, new = self._triple("sifd1", problem, tau)
        ev, ea = pots
        d = centered(curr, problem.grid.h)
        mid = (new + prev) / 2
        rhs = np.stack((-1j * d[1] + (1 + ev) * mid[0] - ea * mid[1],
                        -1j * d[0] + (ev - 1) * mid[1] - ea * mid[0]))
        np.testing.assert_allclose(1j * (new - prev) / (2 * tau), rhs, atol=1e-11)

    def test_sifd2(self, problem, pots):
        tau = 0.01
        prev, curr, new = self._triple("sifd2", problem, tau)
        ev, ea = pots
        mid = (new + prev) / 2
        d = centered(mid, problem.grid.h)
        rhs = np.stack((-1j * d[1] + mid[0] + ev * curr[0] - ea * curr[1],
                        -1j * d[0] - mid[1] + ev * curr[1] - ea * curr[0]))
        np.testing.assert_allclose(1j * (new - prev) / (2 * tau), rhs, atol=1e-11)

    def test_lffd(self, problem, pots):
        tau = 0.01
        prev, curr, new = self._triple("lffd", problem, tau)
        ev, ea = pots
        d = centered(curr, problem.grid.h)
        rhs = np.stack((-1j * d[1] + (1 + ev) * curr[0] - ea * curr[1],
                        -1j * d[0] + (ev - 1) * curr[1] - ea * curr[0]))
        np.testing.assert_allclose(1j * (new - prev) / (2 * tau), rhs, atol=1e-11)


# ---------------------------------------------------------------------------
# per-mode 2x2 recurrences in the free case
# ---------------------------------------------------------------------------

class TestFreeModeRecurrences:
    N, L, TAU, STEPS = 16, 3, 0.02, 6
    U0 = np.array([0.6 - 0.2j, 0.3 + 0.7j])

    def _mode_sequence(self, scheme):
        prob, grid = single_mode_problem(self.N, self.L, self.U0)
        st = make_stepper(scheme, prob, self.TAU)
        wave = np.exp(1j * self.L * grid.x)
        out = []
        for _ in range(self.STEPS):
            st.advance()
            # the field must remain a pure single mode: extract the 2-vector
            u = st._curr[:, 0] / wave[0]
            np.testing.assert_allclose(st._curr, np.outer(u, wave), atol=1e-12)
            out.append(u)
        return out

    def _symbols(self, grid):
        mu = 2 * np.pi * self.L / (grid.b - grid.a)
        s = np.sin(mu * grid.h) / grid.h
        return mu, s

    def _oracle(self, advance):
        """Run the dense 2x2 recurrence after the forward-Euler launch with
        the stencil symbol s."""
        prob, grid = single_mode_problem(self.N, self.L, self.U0)
        mu, s = self._symbols(grid)
        u_prev = self.U0.copy()
        u_curr = (self.U0 - self.TAU * (SIGMA1 @ (1j * s * self.U0))
                  - 1j * self.TAU * (SIGMA3 @ self.U0))
        seq = [u_curr]
        for _ in range(self.STEPS - 1):
            u_next = advance(u_prev, u_curr, mu, s)
            u_prev, u_curr = u_curr, u_next
            seq.append(u_curr)
        return seq

    def test_sifd1_matches_recurrence(self):
        tau = self.TAU

        def advance(u_prev, u_curr, mu, s):
            lhs = 1j * I2 - tau * SIGMA3
            rhs = 2 * tau * s * (SIGMA1 @ u_curr) + (1j * I2 + tau * SIGMA3) @ u_prev
            return np.linalg.solve(lhs, rhs)

        for got, want in zip(self._mode_sequence("sifd1"), self._oracle(advance)):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_sifd2_matches_recurrence(self):
        tau = self.TAU

        def advance(u_prev, u_curr, mu, s):
            lhs = 1j * I2 - tau * s * SIGMA1 - tau * SIGMA3
            rhs = (1j * I2 + tau * s * SIGMA1 + tau * SIGMA3) @ u_prev
            return np.linalg.solve(lhs, rhs)

        for got, want in zip(self._mode_sequence("sifd2"), self._oracle(advance)):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_lffd_matches_recurrence(self):
        tau = self.TAU

        def advance(u_prev, u_curr, mu, s):
            return u_prev - 2j * tau * ((s * SIGMA1 + SIGMA3) @ u_curr)

        for got, want in zip(self._mode_sequence("lffd"), self._oracle(advance)):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_lffd_constant_field_scalar_recurrence(self):
        # constant (1,0) data: the transport term vanishes and the first
        # component obeys i*delta_t(phi) = phi with phi^1 = 1 - i*tau
        grid = TorusGrid(0.0, 2 * np.pi, 16)
        prob = free_problem(grid, lambda x: np.stack((np.ones_like(x, complex),
                                                      np.zeros_like(x, complex))))
        tau = 0.05
        st = make_stepper("lffd", prob, tau)
        p_prev, p_curr = 1.0 + 0j, 1.0 - 1j * tau
        st.advance()
        np.testing.assert_allclose(st._curr[0], p_curr, atol=1e-15)
        for _ in range(5):
            st.advance()
            p_prev, p_curr = p_curr, p_prev - 2j * tau * p_curr
            np.testing.assert_allclose(st._curr[0], p_curr, atol=1e-13)
            np.testing.assert_allclose(st._curr[1], 0.0, atol=1e-15)

    def test_cnfd_is_per_mode_cayley(self):
        prob, grid = single_mode_problem(self.N, self.L, self.U0)
        mu, s = self._symbols(grid)
        tau = self.TAU
        m = s * SIGMA1 + SIGMA3
        st = make_stepper("cnfd", prob, tau)
        u = self.U0.copy()
        wave = np.exp(1j * self.L * grid.x)
        for _ in range(4):
            st.advance()
            u = np.linalg.solve(1j * I2 - 0.5 * tau * m, (1j * I2 + 0.5 * tau * m) @ u)
            np.testing.assert_allclose(st._curr, np.outer(u, wave), atol=1e-12)
            # Cayley transform of a Hermitian matrix is unitary
            assert np.linalg.norm(u) == pytest.approx(np.linalg.norm(self.U0), rel=1e-13)


# ---------------------------------------------------------------------------
# conservation and reversibility (short runs; the long pinned runs live in
# the acceptance suite)
# ---------------------------------------------------------------------------

class TestConservation:
    def test_cnfd_mass_1000_steps(self):
        prob = benchmark_problem(N=32)
        st = make_stepper("cnfd", prob, 0.01)
        m0 = mass(st.phi)
        for _ in range(1000):
            st.advance()
        assert abs(mass(st.phi) - m0) <= 1e-11 * m0

    def test_cnfd_energy_1000_steps(self):
        prob = benchmark_problem(N=32)
        st = make_stepper("cnfd", prob, 0.01)
        e0 = energy(st.phi, st.space, prob.potentials, prob.epsilon)
        for _ in range(1000):
            st.advance()
        en = energy(st.phi, st.space, prob.potentials, prob.epsilon)
        assert abs(en - e0) <= 1e-10 * (1 + abs(e0))

    def test_cnfd_time_reversal(self):
        prob = benchmark_problem(N=32)
        st = make_stepper("cnfd", prob, 0.01)
        for _ in range(50):
            st.advance()
        back = make_stepper("cnfd", DiracProblem(prob.grid, prob.epsilon, prob.potentials,
                                                 st.phi.copy(), T0=prob.T0), -0.01)
        for _ in range(50):
            back.advance()
        err = norm(SpinorField(prob.grid, back._curr - prob.phi0.values), "l2")
        assert err <= 1e-12 * norm(prob.phi0, "l2")

    def test_residual_diagnostics_reported(self):
        prob = benchmark_problem(N=32)
        st = make_stepper("cnfd", prob, 0.02)
        st.advance()
        assert st.diagnostics.linear_residual <= 1e-12
        assert st.diagnostics.iterations == 1


class TestCNFDLoop:
    """The time-independent CNFD loop hands each step's K Phi^{n+1}, which
    the residual guard computes, to the next step as K Phi^n."""

    @settings(max_examples=12, deadline=None)
    @given(n_nodes=st.sampled_from([64, 128, 300]), eps=st.sampled_from([0.0, 1.0, 0.25]),
           tau=st.sampled_from([0.05, -0.01, 0.3]), n=st.integers(1, 30))
    def test_stepwise_propagate_equals_advance_bit_for_bit(self, n_nodes, eps, tau, n):
        prob = benchmark_problem(N=n_nodes, eps=eps)
        looped, stepped = make_stepper("cnfd", prob, tau), make_stepper("cnfd", prob, tau)
        assert not looped.takes_dense_power(n)  # short runs step
        looped.propagate(n)
        for _ in range(n):
            stepped.advance()
        assert looped.propagation == {"stepwise"} and (looped.n, looped.t) == (n, stepped.t)
        assert np.array_equal(looped.phi.values, stepped.phi.values)
        assert looped.diagnostics == stepped.diagnostics

    def test_guard_failure_raises_at_its_step_inside_the_loop(self, monkeypatch):
        stepper = make_stepper("cnfd", benchmark_problem(N=300), 0.01)
        stepper.propagate(3)
        kept = stepper.phi.copy().values
        monkeypatch.setattr(schemes, "RESIDUAL_TOL", -1.0)  # every solve fails its guard
        with pytest.raises(schemes.SolverError, match="CNFD linear residual") as caught:
            stepper.propagate(5)
        assert caught.value.step == 3 and stepper.n == 3
        assert caught.value.diagnostics is stepper.diagnostics
        assert 0.0 <= caught.value.diagnostics.linear_residual <= 1e-12
        assert caught.value.diagnostics.iterations == 1
        assert np.array_equal(stepper.phi.values, kept)  # the failed step left no trace


class TestGuards:
    @pytest.mark.parametrize("scheme", ["sifd1", "sifp1"])
    def test_si1_runs_up_to_its_step_bound(self, scheme):
        # SI1's pointwise solve sets no step limit of its own: at 0.9 tau_max
        # sifd1 has |tau| (1 + eps (V_max + A_max)) = 1.33
        prob = benchmark_problem(N=16)
        tau = 0.9 * tau_max(scheme, prob.grid.h, *prob.operator_bounds)
        res = run_simulation(prob, SchemeConfig(scheme, tau, t_final=2000 * tau))
        assert not res.blew_up and res.max_norm_ratio <= 1.5

    def test_unknown_scheme(self):
        prob = benchmark_problem(N=16)
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            make_stepper("upwind", prob, 0.01)

    def test_lffd_blows_up_beyond_cfl(self):
        grid = TorusGrid(0.0, 2 * np.pi, 16)
        rng = np.random.default_rng(0)
        prob = free_problem(grid, lambda x: np.exp(1j * np.outer([1, -1], x))
                            + 0.1 * rng.standard_normal((2, len(x))))
        st = make_stepper("lffd", prob, 1.5 * tau_max("lffd", grid.h, 0, 0))
        n0 = norm(st.phi, "l2")
        for _ in range(200):
            st.advance()
        assert norm(st.phi, "l2") > 1e3 * n0


# ---------------------------------------------------------------------------
# single steps from given fields
# ---------------------------------------------------------------------------

class TestStepFunctions:
    def test_zero_states_stay_zero(self):
        grid = TorusGrid(0.0, 2 * np.pi, 16)
        zero = np.zeros((2, 16), dtype=complex)
        prob = free_problem(grid, lambda x: zero)
        for scheme in ("cnfd", "sifd1", "sifd2", "lffd"):
            out = make_stepper(scheme, prob, 0.01)._step(zero, zero, 0.0)
            assert np.abs(out).max() == 0.0

    def test_history_free_state_takes_taylor_step(self):
        prob = benchmark_problem(N=32)
        np.testing.assert_allclose(one_step("sifd1", prob, 0.05).values,
                                   one_step("lffd", prob, 0.05).values, atol=1e-14)
