"""Simulation driver, error measurement, tables and CSV emission."""

import dataclasses
import warnings

import numpy as np
import pytest

import dirac1d.harness as harness
import dirac1d.model as model
from dirac1d import (
    ConfigurationError,
    ErrorSeries,
    ReferenceCache,
    ReferenceConfig,
    SchemeConfig,
    SpinorField,
    StabilityError,
    compare_over_time,
    convergence_table,
    emit_csv,
    emit_plot_data,
    epsilon_sweep_spatial,
    epsilon_sweep_temporal,
    field_from_function,
    make_grid,
    measure_errors,
    preset,
    run_simulation,
    tau_max,
    zero_potentials,
)
from dirac1d.harness import ConvergenceTable

RNG = np.random.default_rng(17)


def bandlimited_free_setup(epsilon=0.0, T0=2.0):
    """Smooth band-limited data on the unit torus with zero potentials."""
    return model.ProblemSetup(
        0.0, 2 * np.pi, epsilon, T0, zero_potentials(), _bandlimited_phi0,
        key={"test": "bandlimited-free", "epsilon": epsilon, "T0": T0},
    )


def _bandlimited_phi0(x):
    c1 = 0.6 * np.exp(1j * x) + 0.25 * np.exp(-2j * x) + 0.1
    c2 = 0.5 * np.exp(-1j * x) + 0.2 * np.exp(2j * x)
    z = np.stack((c1, c2))
    return z / 1.2186057606953941  # unit l2 norm on (0, 2*pi)


class TestRunSimulation:
    def test_zero_steps_returns_initial_data(self):
        prob = preset("periodic-s51", 1.0).discretize(N=32)
        res = run_simulation(prob, SchemeConfig("cnfd", 0.05, t_final=0.0))
        np.testing.assert_array_equal(res.final.values, prob.phi0.values)
        assert res.n_steps == 0

    def test_mass_series_flat_for_cnfd(self):
        prob = preset("periodic-s51", 1.0).discretize(N=32)
        res = run_simulation(prob, SchemeConfig("cnfd", 0.01, t_final=1.0,
                                                record="mass+energy"))
        drift = np.abs(res.mass_series - res.mass_series[0]).max() / res.mass_series[0]
        assert drift <= 1e-11
        e_drift = np.abs(res.energy_series - res.energy_series[0]).max()
        assert e_drift <= 1e-10 * (1 + abs(res.energy_series[0]))

    def test_stability_refusal_and_override(self):
        grid = make_grid(0.0, 2 * np.pi, 32)
        phi0 = field_from_function(grid, _bandlimited_phi0)
        prob = model.DiracProblem(grid, 0.0, zero_potentials(), phi0, T0=2.0)
        bad_tau = 2.0 * tau_max("lffd", grid.h, 0.0, 0.0)
        t_final = 100 * bad_tau
        with pytest.raises(StabilityError):
            run_simulation(prob, SchemeConfig("lffd", bad_tau, t_final=t_final))
        res = run_simulation(prob, SchemeConfig("lffd", bad_tau, t_final=t_final,
                                                override_stability=True,
                                                stop_norm_ratio=1e4))
        assert res.blew_up and res.blowup_step is not None
        assert res.max_norm_ratio > 1e3

    def test_time_step_must_divide_horizon(self):
        prob = preset("periodic-s51", 1.0).discretize(N=32)
        with pytest.raises(ConfigurationError, match="integer"):
            run_simulation(prob, SchemeConfig("cnfd", 0.3, t_final=1.0))

    def test_record_none_skips_series(self):
        prob = preset("periodic-s51", 1.0).discretize(N=32)
        res = run_simulation(prob, SchemeConfig("cnfd", 0.05, t_final=0.5, record="none"))
        assert res.mass_series is None and res.times is None
        assert res.wall_time >= 0.0

    def test_local_nan_reported_at_its_step(self, monkeypatch):
        # node 3 lies between the nodes a stride-N/8 sample would look at;
        # the FD stencil carries the NaN there only steps later
        make = harness.make_stepper

        def poisoned(*args, **kwargs):
            stepper = make(*args, **kwargs)
            advance = stepper.advance

            def advance_then_poison():
                advance()
                if stepper.n == 5:
                    stepper._curr[0, 3] = np.nan
            stepper.advance = advance_then_poison
            return stepper

        monkeypatch.setattr(harness, "make_stepper", poisoned)
        prob = preset("periodic-s51", 1.0).discretize(N=64)
        res = run_simulation(prob, SchemeConfig("lffd", 1e-3, t_final=0.05, record="none"))
        assert res.blew_up and res.blowup_step == 5


class TestMeasureErrors:
    def test_identical_fields_give_zero(self):
        g = make_grid(0.0, 2 * np.pi, 16)
        f = field_from_function(g, _bandlimited_phi0)
        rep = measure_errors(f, f)
        assert rep.e_phi == rep.e_rho == rep.e_j == 0.0

    def test_constant_offset_has_exact_l2(self):
        g = make_grid(0.0, 2 * np.pi, 16)
        f = field_from_function(g, _bandlimited_phi0)
        delta = 1e-3
        shifted = SpinorField(g, f.values + np.array([[delta], [0.0]]))
        rep = measure_errors(shifted, f)
        assert rep.e_phi == pytest.approx(delta * np.sqrt(2 * np.pi), rel=1e-12)
        assert rep.e_rho > 0 and rep.e_j > 0

    def test_grid_mismatch_rejected(self):
        f1 = field_from_function(make_grid(0.0, 2 * np.pi, 16), _bandlimited_phi0)
        f2 = field_from_function(make_grid(0.0, 2 * np.pi, 32), _bandlimited_phi0)
        with pytest.raises(ConfigurationError):
            measure_errors(f1, f2)


class TestTruncatedDomain:
    """Expanding setups pad the interval by T0/eps; grid_for_mesh rounds N up
    to an even count at the requested mesh size."""

    def test_unit_horizon(self):
        g = preset("whole-space-s52", 1.0).grid_for_mesh(1.0 / 16.0)
        assert (g.a, g.b, g.N) == (-8.0, 8.0, 256)

    def test_quarter_epsilon(self):
        g = preset("whole-space-s52", 0.25).grid_for_mesh(1.0 / 16.0)
        assert (g.a, g.b, g.N) == (-11.0, 11.0, 352)

    def test_rounds_up_to_even(self):
        setup = model.ProblemSetup(0.0, 1.0, 1.0, 1.0, zero_potentials(), _bandlimited_phi0,
                                   expand_with_horizon=True)
        g = setup.grid_for_mesh(0.4)  # span 3 -> 7.5 -> 8
        assert (g.a, g.b, g.N) == (-1.0, 2.0, 8)


class TestConvergenceTables:
    def test_free_problem_second_order_with_exact_reference(self):
        setup = bandlimited_free_setup()
        table = convergence_table(setup, "cnfd", [0.0], np.pi / 8, 0.05, 3,
                                  reference=ReferenceConfig(kind="exact"))
        orders = table.orders("e_phi")[0, 1:]
        assert np.all(np.abs(orders - 2.0) < 0.25)

    def test_epsilon_independent_when_potentials_vanish(self):
        # same horizon, different eps: with zero potentials the cells agree
        t1 = convergence_table(bandlimited_free_setup(epsilon=1.0, T0=2.0), "lffd",
                               [1.0], np.pi / 8, 0.05, 2,
                               reference=ReferenceConfig(kind="exact"))
        t2 = convergence_table(bandlimited_free_setup(epsilon=0.5, T0=1.0), "lffd",
                               [0.5], np.pi / 8, 0.05, 2,
                               reference=ReferenceConfig(kind="exact"))
        for k in range(2):
            assert t1.cell(0, k).e_phi == pytest.approx(t2.cell(0, k).e_phi, rel=1e-10)

    def test_failed_cells_recorded_as_nan(self):
        # lffd above its CFL bound at every level: cells must be NaN, table intact
        setup = bandlimited_free_setup()
        h0 = np.pi / 8
        bad_tau = 4.0 * tau_max("lffd", h0 / 2, 0.0, 0.0)
        table = convergence_table(setup, "lffd", [0.0], h0, bad_tau, 2,
                                  reference=ReferenceConfig(kind="exact"))
        assert not table.cell(0, 0).is_finite()
        assert not table.cell(0, 1).is_finite()
        text = emit_csv(table)
        assert "nan" in text

    def test_diagonal_index_follows_quarter_powers(self):
        table = ConvergenceTable("cnfd", [1.0, 0.25, 0.0625], 4, "space-time")
        assert [table.diagonal_index(e) for e in table.eps_list] == [0, 1, 2]

    def test_temporal_sweep_shares_h(self):
        setup = bandlimited_free_setup()
        table = epsilon_sweep_temporal(setup, "cnfp", [0.0], 0.02, 2, np.pi / 8,
                                       reference=ReferenceConfig(kind="exact"))
        assert table.cell(0, 0).h == table.cell(0, 1).h
        assert table.cell(0, 0).tau == 2 * table.cell(0, 1).tau
        orders = table.orders("e_phi")[0, 1:]
        assert np.all(np.abs(orders - 2.0) < 0.3)

    def test_spatial_sweep_shares_tau(self):
        setup = bandlimited_free_setup()
        table = epsilon_sweep_spatial(setup, "lffd", [0.0], np.pi / 8, 2, 1e-3,
                                      reference=ReferenceConfig(kind="exact"))
        assert table.cell(0, 0).tau == table.cell(0, 1).tau
        assert table.cell(0, 0).h == 2 * table.cell(0, 1).h

    def test_reference_time_ratio_enforced(self):
        setup = preset("periodic-s51", 1.0)
        with pytest.raises(ConfigurationError, match="finer"):
            convergence_table(setup, "cnfd", [1.0], np.pi / 8, 0.1, 1,
                              reference=ReferenceConfig(tau_e=0.05))

    @pytest.mark.parametrize("kind", ["exact", "tsfp"])
    def test_reference_space_ratio_enforced_for_both_kinds(self, kind):
        # h_e = h/2 is only 2x finer than the test grid; the default guard asks 4x
        with pytest.raises(ConfigurationError, match="4x finer"):
            convergence_table(bandlimited_free_setup(), "cnfd", [0.0], np.pi / 8, 0.05, 1,
                              reference=ReferenceConfig(kind=kind, h_e=np.pi / 16))

    def test_worker_pool_matches_serial(self):
        setup = bandlimited_free_setup()
        kw = dict(reference=ReferenceConfig(kind="exact"))
        serial = convergence_table(setup, "cnfd", [0.0], np.pi / 8, 0.05, 2, **kw)
        parallel = convergence_table(setup, "cnfd", [0.0], np.pi / 8, 0.05, 2,
                                     workers=2, **kw)
        for k in range(2):
            assert serial.cell(0, k).e_phi == parallel.cell(0, k).e_phi

    @pytest.mark.parametrize("workers", [1, 2])
    def test_declared_bounds_checked_once_per_row(self, workers):
        setup = preset("periodic-s51", 1.0)
        # |A1| = |cos x + sin 2x| reaches 1.76
        low = dataclasses.replace(setup, potentials=dataclasses.replace(setup.potentials,
                                                                        a_max=1.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            epsilon_sweep_spatial(low, "lffp", [1.0, 0.5], np.pi / 4, 1, 0.02,
                                  reference=ReferenceConfig(tau_e=0.005), workers=workers)
        exceeded = [w for w in caught if "declared potential bounds exceeded" in str(w.message)]
        assert len(exceeded) == 2

    def test_cached_and_uncached_tables_agree(self, tmp_path):
        setup = preset("periodic-s51", 1.0)
        run = dict(eps_list=[1.0, 0.5], h0=np.pi / 4, levels=2, tau=0.02)
        plain = epsilon_sweep_spatial(setup, "lffp", **run,
                                      reference=ReferenceConfig(tau_e=0.0025))
        cache = ReferenceConfig(tau_e=0.0025, cache=ReferenceCache(str(tmp_path)))
        first = epsilon_sweep_spatial(setup, "lffp", **run, reference=cache)
        again = epsilon_sweep_spatial(setup, "lffp", **run, reference=cache)
        for table in (first, again):
            for which in ("e_phi", "e_rho", "e_j"):
                np.testing.assert_allclose(table.errors(which), plain.errors(which),
                                           rtol=1e-14, atol=0)


class TestEmission:
    def test_empty_table_is_header_only(self):
        table = ConvergenceTable("cnfd", [], 0, "space-time")
        assert emit_csv(table) == (
            "epsilon,level,h,tau,e_phi,e_rho,e_J,order_phi,order_rho,order_J,diagonal\n")

    def test_row_layout_and_determinism(self, tmp_path):
        setup = preset("periodic-s51", 1.0)
        cache = ReferenceCache(str(tmp_path))
        kw = dict(reference=ReferenceConfig(tau_e=5e-3, cache=cache))
        t1 = convergence_table(setup, "cnfd", [1.0, 0.25], np.pi / 8, 0.05, 2, **kw)
        t2 = convergence_table(setup, "cnfd", [1.0, 0.25], np.pi / 8, 0.05, 2, **kw)
        csv1, csv2 = emit_csv(t1), emit_csv(t2)
        assert csv1 == csv2  # byte-identical with the cached reference
        lines = csv1.strip().split("\n")
        assert len(lines) == 1 + 2 * 2
        assert lines[0].startswith("epsilon,level,h,tau,e_phi")
        assert "\r" not in csv1
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0" and first[10] == "1"

    def test_plot_data_layout(self):
        s1 = ErrorSeries("cnfd", np.array([0.5, 1.0]), np.array([1e-2, 2e-2]))
        s2 = ErrorSeries("lffp", np.array([0.5, 1.0]), np.array([1e-5, 2e-5]))
        text = emit_plot_data([s1, s2])
        lines = text.strip().split("\n")
        assert lines[0] == "t,cnfd,lffp"
        assert lines[1].startswith("0.5,0.01,")

    def test_plot_data_requires_shared_times(self):
        s1 = ErrorSeries("a", np.array([0.5]), np.array([1.0]))
        s2 = ErrorSeries("b", np.array([0.7]), np.array([1.0]))
        with pytest.raises(ConfigurationError):
            emit_plot_data([s1, s2])

    def test_compare_over_time_shapes(self):
        setup = bandlimited_free_setup()
        series = compare_over_time(setup, ["cnfd", "lffp"], np.pi / 8, 0.02, 4,
                                   reference=ReferenceConfig(kind="exact"))
        assert [s.label for s in series] == ["cnfd", "lffp"]
        assert all(len(s.times) == 4 for s in series)
        # the free solution is band-limited: the spectral scheme is far more
        # accurate in space, and both errors grow along the run
        assert series[1].values[-1] < series[0].values[-1]

    def test_compare_over_time_refuses_unstable_steps(self):
        # tau = 0.5 is ~4x the lffd bound at h = pi/16; run_simulation refuses it too
        with pytest.raises(StabilityError):
            compare_over_time(preset("periodic-s51", 1.0), ["lffd"], np.pi / 16, 0.5, 4)


class TestBenchmarkOrders:
    @pytest.mark.parametrize("scheme", ["sifd1", "sifd2"])
    def test_semi_implicit_second_order_on_benchmark(self, scheme):
        # eps = 1, refinement (h, tau) -> (h/2, tau/2) at t = 2
        setup = preset("periodic-s51", 1.0)
        table = convergence_table(setup, scheme, [1.0], np.pi / 32, 0.02, 2,
                                  reference=ReferenceConfig(tau_e=0.00125))
        order = table.orders("e_phi")[0, 1]
        assert order == pytest.approx(2.0, abs=0.15)

    def test_lffp_temporal_error_plateaus_at_spatial_floor(self):
        # fixed h: once tau is small the error is the h-dependent floor
        setup = preset("periodic-s51", 1.0)
        table = epsilon_sweep_temporal(setup, "lffp", [1.0], 0.01, 3, np.pi / 8,
                                       reference=ReferenceConfig(tau_e=0.01 / 32))
        e = table.errors("e_phi")[0]
        assert e.max() / e.min() < 1.2  # flat: spatial error dominates
        assert e[0] == pytest.approx(1.43e-2, rel=0.5)


class TestErrorOrdersAgainstOracle:
    def test_fdtd_schemes_second_order_on_free_problem(self):
        # fitted spatial+temporal order over a 3-level ladder for every
        # finite-difference-in-space scheme, exact free-flow reference
        setup = bandlimited_free_setup()
        for scheme in ("cnfd", "sifd1", "sifd2", "lffd"):
            table = convergence_table(setup, scheme, [0.0], np.pi / 16, 0.02, 3,
                                      reference=ReferenceConfig(kind="exact"))
            e = table.errors("e_phi")[0]
            slope = np.polyfit(np.arange(3) * np.log(2.0), -np.log(e), 1)[0]
            assert abs(slope - 2.0) < 0.1, (scheme, e)
