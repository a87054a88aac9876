"""Observables, potentials and problem presets."""

import warnings

import numpy as np
import pytest

from dirac1d import (
    ConfigurationError,
    DiracProblem,
    PotentialPair,
    SchemeConfig,
    SpinorField,
    TorusGrid,
    check_bounds,
    current,
    density,
    energy,
    mass,
    norm,
    preset,
    run_simulation,
    zero_potentials,
)
from dirac1d.grid import CenteredDifference, FourierDerivative

RNG = np.random.default_rng(7)

# independent quadrature of integral(rho1 + rho2) for the torus benchmark
# initial data (scipy.integrate.quad, abserr ~ 5e-10)
BENCHMARK_MASS = 4.1652027545234676


def random_field(grid, rng=RNG):
    v = rng.standard_normal((2, grid.N)) + 1j * rng.standard_normal((2, grid.N))
    return SpinorField(grid, v)


def energy_fd_oracle(f, pots, eps):
    """Direct O(N^2)-style assembly of the centered-difference energy."""
    g = f.grid
    v = f.values
    total = 0.0 + 0.0j
    vq, aq = pots.evaluate(0.0, g.x)
    for j in range(g.N):
        jp, jm = (j + 1) % g.N, (j - 1) % g.N
        dx = (v[:, jp] - v[:, jm]) / (2 * g.h)
        phi = v[:, j]
        kin = -1j * (np.conj(phi[0]) * dx[1] + np.conj(phi[1]) * dx[0])
        sig3 = abs(phi[0]) ** 2 - abs(phi[1]) ** 2
        rho = abs(phi[0]) ** 2 + abs(phi[1]) ** 2
        j1 = 2 * np.real(np.conj(phi[0]) * phi[1])
        total += kin + sig3 + eps * vq[j] * rho - eps * aq[j] * j1
    return float((g.h * total).real)


class TestMass:
    def test_zero_field(self):
        g = TorusGrid(0.0, 2 * np.pi, 8)
        assert mass(SpinorField(g, np.zeros((2, 8)))) == 0.0

    def test_constant_spinor(self):
        g = TorusGrid(0.0, 2 * np.pi, 32)
        f = SpinorField(g, np.ones((2, 32), dtype=complex))
        assert mass(f) == pytest.approx(4 * np.pi, rel=1e-14)

    def test_benchmark_data_matches_quadrature(self):
        setup = preset("periodic-s51", 1.0)
        prob = setup.discretize(N=256)
        assert mass(prob.phi0) == pytest.approx(BENCHMARK_MASS, abs=1e-10)

    def test_equals_squared_l2_norm(self):
        g = TorusGrid(-1.0, 4.0, 16)
        f = random_field(g)
        assert mass(f) == pytest.approx(norm(f, "l2") ** 2, rel=1e-14)

    def test_density_integrates_to_mass(self):
        g = TorusGrid(0.0, 2 * np.pi, 16)
        f = random_field(g)
        assert g.h * density(f).sum() == pytest.approx(mass(f), rel=1e-14)


class TestDensityCurrent:
    def test_up_spinor(self):
        g = TorusGrid(0.0, 2 * np.pi, 8)
        f = SpinorField(g, np.stack((np.ones(8, complex), np.zeros(8, complex))))
        np.testing.assert_allclose(density(f), 1.0)
        np.testing.assert_allclose(current(f), 0.0)

    def test_sigma1_eigenvector(self):
        g = TorusGrid(0.0, 2 * np.pi, 8)
        f = SpinorField(g, np.full((2, 8), 1 / np.sqrt(2), dtype=complex))
        np.testing.assert_allclose(density(f), 1.0, rtol=1e-14)
        np.testing.assert_allclose(current(f), 1.0, rtol=1e-14)

    def test_phase_quadrature_kills_current(self):
        g = TorusGrid(0.0, 2 * np.pi, 8)
        f = SpinorField(g, np.stack((np.ones(8, complex), 1j * np.ones(8, complex))))
        np.testing.assert_allclose(density(f), 2.0, rtol=1e-14)
        np.testing.assert_allclose(current(f), 0.0, atol=1e-14)

    def test_current_bounded_by_density(self):
        g = TorusGrid(0.0, 2 * np.pi, 64)
        for _ in range(5):
            f = random_field(g)
            assert np.all(current(f) ** 2 <= density(f) ** 2 * (1 + 1e-12))


class TestEnergies:
    def test_zero_field(self):
        g = TorusGrid(0.0, 2 * np.pi, 8)
        z = SpinorField(g, np.zeros((2, 8)))
        assert energy(z, CenteredDifference(g), zero_potentials(), 1.0) == 0.0
        assert energy(z, FourierDerivative(g), zero_potentials(), 1.0) == 0.0

    def test_constant_up_spinor_free(self):
        g = TorusGrid(0.0, 2 * np.pi, 16)
        f = SpinorField(g, np.stack((np.ones(16, complex), np.zeros(16, complex))))
        for space in (CenteredDifference(g), FourierDerivative(g)):
            assert energy(f, space, zero_potentials(), 1.0) == pytest.approx(2 * np.pi, rel=1e-13)

    def test_single_mode_spectral_energy(self):
        # (e^{ix}, 0): sigma1 swaps components, so the kinetic term vanishes
        # and only the sigma3 term contributes 2*pi
        g = TorusGrid(0.0, 2 * np.pi, 16)
        f = SpinorField(g, np.stack((np.exp(1j * g.x), np.zeros_like(g.x, complex))))
        fp = FourierDerivative(g)
        assert energy(f, fp, zero_potentials(), 1.0) == pytest.approx(2 * np.pi, rel=1e-12)
        # (e^{ix}, e^{ix}): kinetic 4*pi, sigma3 term cancels
        f2 = SpinorField(g, np.stack((np.exp(1j * g.x), np.exp(1j * g.x))))
        assert energy(f2, fp, zero_potentials(), 1.0) == pytest.approx(4 * np.pi, rel=1e-12)

    def test_fd_energy_matches_direct_assembly(self):
        setup = preset("periodic-s51", 1.0)
        prob = setup.discretize(N=64)
        got = energy(prob.phi0, CenteredDifference(prob.grid), setup.potentials, 1.0)
        assert got == pytest.approx(energy_fd_oracle(prob.phi0, setup.potentials, 1.0),
                                    rel=1e-12)

    def test_requires_time_independent(self):
        g = TorusGrid(0.0, 2 * np.pi, 8)
        pots = PotentialPair(lambda t, x: np.cos(t) * np.ones_like(x),
                             lambda t, x: np.zeros_like(x), False, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            energy(random_field(g), CenteredDifference(g), pots, 1.0)

    def test_eps_zero_switches_time_dependence_off(self):
        # the rule of DiracProblem.time_independent: at eps = 0 the energy is
        # defined and equals the one run_simulation records at step 0
        g = TorusGrid(0.0, 2 * np.pi, 16)
        pots = PotentialPair(lambda t, x: np.cos(t) + np.sin(x),
                             lambda t, x: 0.5 * np.cos(x + t), False, 2.0, 0.5)
        phi0 = SpinorField(g, np.stack((np.exp(1j * g.x) / (2 + np.cos(g.x)),
                                        np.exp(-2j * g.x) / (3 + np.sin(g.x)))))
        prob = DiracProblem(g, 0.0, pots, phi0, T0=2.0)
        res = run_simulation(prob, SchemeConfig("cnfd", 0.1, t_final=0.5, record="mass+energy"))
        fd = CenteredDifference(g)
        assert energy(phi0, fd, pots, 0.0) == pytest.approx(res.energy_series[0], rel=1e-13)
        with pytest.raises(ConfigurationError, match="time-independent"):
            energy(phi0, fd, pots, 0.5)

    def test_fd_and_fp_agree_at_second_order(self):
        # complex-phased data so the kinetic term is active; |E_fd - E_fp|
        # must drop at least 4x per h halving (faster for analytic data)
        setup = preset("periodic-s51", 1.0)

        def data(x):
            return np.stack((np.exp(2j * x) / (1 + np.sin(x) ** 2),
                             np.exp(-1j * x) / (3 + np.cos(x))))

        diffs = []
        for N in (16, 32):
            g = TorusGrid(0.0, 2 * np.pi, N)
            f = SpinorField(g, data(g.x))
            diffs.append(abs(energy(f, CenteredDifference(g), setup.potentials, 1.0)
                             - energy(f, FourierDerivative(g), setup.potentials, 1.0)))
        assert diffs[0] > 0
        assert diffs[1] <= diffs[0] / 4.0 * 1.2


class TestBoundsCheck:
    def test_valid_bounds_quiet(self):
        setup = preset("periodic-s51", 1.0)
        g = TorusGrid(0.0, 2 * np.pi, 32)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert check_bounds(setup.potentials, g, 2.0)
        assert caught == []

    def test_violated_bounds_warn(self):
        g = TorusGrid(0.0, 2 * np.pi, 32)
        lying = PotentialPair(lambda t, x: 2.0 * np.cos(x), lambda t, x: np.zeros_like(x),
                              True, v_max=1.0, a_max=0.0)
        with pytest.warns(UserWarning, match="bounds exceeded"):
            assert not check_bounds(lying, g, 2.0)


class TestProblemAndPresets:
    def test_preset_names(self):
        for name in ("periodic-s51", "whole-space-s52"):
            assert preset(name, 1.0).key == {"preset": name, "epsilon": 1.0}
        with pytest.raises(ConfigurationError, match="periodic-s51"):
            preset("unknown", 1.0)

    def test_epsilon_range_enforced(self):
        setup = preset("periodic-s51", 1.0)
        with pytest.raises(ConfigurationError):
            setup.with_epsilon(1.5).discretize(N=16)

    def test_torus_preset_fields(self):
        setup = preset("periodic-s51", 0.25)
        assert (setup.a, setup.b) == (0.0, 2 * np.pi)
        assert setup.T0 == 2.0
        assert setup.potentials.time_independent
        assert setup.potentials.v_max == 1.0
        prob = setup.discretize(N=64)
        assert prob.t_final == pytest.approx(8.0)

    def test_wavepacket_domain_expands_with_horizon(self):
        assert preset("whole-space-s52", 1.0).domain() == (-8.0, 8.0)
        assert preset("whole-space-s52", 0.25).domain() == (-11.0, 11.0)

    def test_wavepacket_declared_bounds_are_sups(self):
        setup = preset("whole-space-s52", 0.25)
        x = np.linspace(*setup.domain(), 200001)
        assert np.abs(setup.potentials.V(0.0, x)).max() <= setup.potentials.v_max + 1e-9
        assert np.abs(setup.potentials.A1(0.0, x)).max() <= setup.potentials.a_max + 1e-9
        # the declared values are attained (not just upper bounds)
        assert np.abs(setup.potentials.V(0.0, x)).max() == pytest.approx(
            setup.potentials.v_max, rel=1e-6)
        assert np.abs(setup.potentials.A1(0.0, x)).max() == pytest.approx(
            setup.potentials.a_max, rel=1e-6)

    def test_torus_declared_a_max_is_attained(self):
        setup = preset("periodic-s51", 1.0)
        x = np.linspace(0, 2 * np.pi, 200001)
        sampled = np.abs(setup.potentials.A1(0.0, x)).max()
        assert sampled <= setup.potentials.a_max + 1e-9
        assert sampled == pytest.approx(setup.potentials.a_max, rel=1e-8)

    def test_grid_for_mesh_rounds_up_even(self):
        setup = preset("whole-space-s52", 1.0)
        g = setup.grid_for_mesh(1.0 / 16.0)
        assert g.N == 256  # 16 * 16 nodes exactly
        g2 = setup.grid_for_mesh(0.245)  # 16/0.245 = 65.3 -> 66
        assert g2.N == 66

    def test_problem_validation(self):
        setup = preset("periodic-s51", 1.0)
        prob = setup.discretize(N=16)
        other = TorusGrid(0.0, 2 * np.pi, 32)
        with pytest.raises(ConfigurationError):
            DiracProblem(other, 1.0, setup.potentials, prob.phi0)
        with pytest.raises(ConfigurationError):
            DiracProblem(prob.grid, 1.0, setup.potentials, prob.phi0, T0=0.0)
