"""Simulation driver, error measurement, tables and CSV emission."""

import ctypes
import dataclasses
import glob
import math
import pickle
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

import dirac1d.harness as harness
import dirac1d.model as model
from dirac1d import (
    ConfigurationError,
    DiracProblem,
    ErrorSeries,
    PotentialPair,
    ReferenceCache,
    ReferenceConfig,
    SchemeConfig,
    SpinorField,
    StabilityError,
    TorusGrid,
    compare_over_time,
    convergence_table,
    emit_csv,
    emit_plot_data,
    energy,
    epsilon_sweep_spatial,
    epsilon_sweep_temporal,
    make_stepper,
    measure_errors,
    norm,
    preset,
    run_simulation,
    tau_max,
    zero_potentials,
)
from dirac1d.grid import CenteredDifference
from dirac1d.harness import ConvergenceTable
from dirac1d.stepping import whole_steps

RNG = np.random.default_rng(17)
# fitted slope of log e_phi against log eps for TSFP at a fixed step; 1.04
# measured (tau = 0.01, eps = 2^-4 .. 2^-10), single-row slopes 0.72 .. 1.22
TSFP_EPS_SLOPE_BAND = (0.9, 1.15)
# e / (eps tau^2) of TSFP at eps = 2^-10 stays within TSFP_FLAT_BAND times its
# smallest value at the five sampled steps up to TSFP_FLAT_TAU: measured 0.80 at
# tau = 0.05, 0.84 at 0.5 and 0.87 at 2/3 (max / min 1.09); 1.68 at tau = 1
# (2.09).  Not at every step below TSFP_FLAT_TAU: resonant steps spike
TSFP_FLAT_TAU = 2 / 3
TSFP_FLAT_BAND = 1.15
# e / (eps tau^2) of TSFP at the resonant step nearest 2 pi / (delta_2 + delta_3)
# over its value 20 steps either side: measured 42.8 and 40.9 (92.7 against 2.16
# and 2.26); cnfp on the same steps 0.72 and 1.04
TSFP_SPIKE = 10.0
# spatial resolution capacity (exfd, exfp at N = 8 .. 256 against exfp at
# N_e = 512, eps = 1 .. 1/64): the smallest N with e_phi <= RESOLVED_FD_TOL is
# 64, 64, 128, 256 for FD (the same for any tol in [0.0893, 0.218)); its
# slope in eps over eps <= 1/4 is -0.5, and 0.25 for FP's 16, 8, 8
RESOLUTION_EPS = [1.0, 1 / 4, 1 / 16, 1 / 64]
RESOLVED_FD_TOL = 0.1
FD_NMIN_SLOPE_BAND = (-0.6, -0.4)
# the smallest N with e_phi <= RESOLVED_FP_TOL is 32 in every row for FP
# (e_phi 1.45e-6 .. 6.35e-6 at N = 32, 1.4e-3 .. 1.4e-2 at N = 16), down to
# eps = 2^-10: at most FP_NMIN_FACTOR times its eps = 1 value (measured 1)
RESOLVED_FP_TOL = 1e-4
FP_NMIN_FACTOR = 2


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


def _bandlimited_field(grid):
    return SpinorField(grid, _bandlimited_phi0(grid.x))


class SyncPool:
    """Runs each task at submission, in this process, and records it and
    the worker count the pool was asked for."""

    def __init__(self, pools, max_workers):
        self.tasks = []
        self.max_workers = max_workers
        pools.append(self)

    def submit(self, fn, task):
        self.tasks.append(task)
        future = Future()
        future.set_result(fn(task))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def sync_pools(monkeypatch):
    """The harness's process pools replaced by SyncPools; the list of the
    pools made, one per table run with workers > 1."""
    pools = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        lambda max_workers, initializer=None: SyncPool(pools, max_workers))
    return pools


def reference_tasks(pools):
    return [[task for task in pool.tasks if task[0] == "reference"] for pool in pools]


def _poison_step_5(monkeypatch):
    """Make every stepper of the harness write a NaN into node 3 right after
    its fifth step."""
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

    def test_tsfp_runs_at_a_large_step_and_keeps_its_mass(self):
        prob = preset("periodic-s51", 0.25).discretize(N=32)
        res = run_simulation(prob, SchemeConfig("tsfp", 0.4, record="mass+energy"))
        assert res.scheme == "tsfp" and res.n_steps == 20 and not res.blew_up
        assert np.abs(res.mass_series - res.mass_series[0]).max() <= 1e-12 * res.mass_series[0]

    def test_stability_refusal_and_override(self):
        grid = TorusGrid(0.0, 2 * np.pi, 32)
        phi0 = _bandlimited_field(grid)
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

    def test_propagation_records_the_path(self):
        # a run that records every step still steps by M once M repays its
        # build; a short one, recording or not, keeps the scheme's own step
        prob = preset("periodic-s51", 0.25).discretize(N=16)
        dense = run_simulation(prob, SchemeConfig("lffp", 1e-3, t_final=4.0, record="none"))
        recorded = run_simulation(prob, SchemeConfig("lffp", 1e-3, t_final=4.0))
        assert (dense.propagation, recorded.propagation) == ("dense-power", "dense-step")
        assert dense.n_steps == recorded.n_steps == 4_000
        dist = norm(SpinorField(prob.grid, dense.final.values - recorded.final.values), "l2")
        assert dist <= 1e-15 * 4_000 * norm(prob.phi0, "l2")
        for record in ("none", "mass"):
            short = run_simulation(prob, SchemeConfig("lffp", 1e-3, t_final=0.01,
                                                      record=record))
            assert short.propagation == "stepwise"

    def test_override_picks_no_path(self):
        # the stability override lifts the verdict only: an override run
        # that records and watches nothing powers M where that pays
        prob = preset("periodic-s51", 0.25).discretize(N=16)
        plain, forced = (run_simulation(prob, SchemeConfig("lffp", 1e-3, t_final=4.0,
                                                           record="none", override_stability=o))
                         for o in (False, True))
        assert plain.propagation == forced.propagation == "dense-power"
        np.testing.assert_array_equal(forced.final.values, plain.final.values)

    def test_unrecorded_exact_flow_is_one_propagate_at_any_size(self):
        # m = 2N = 1024 prices the one-step matrix out, yet the flow never
        # builds it: one eigh flow instead of 200 steps of two mat-vecs
        prob = preset("periodic-s51", 1.0).discretize(N=512)
        res = run_simulation(prob, SchemeConfig("exfp", 0.01, t_final=2.0, record="none"))
        stepper = make_stepper("exfp", prob, 0.01)
        stepper.propagate(200)
        assert res.propagation == "eigh" and res.n_steps == 200
        np.testing.assert_array_equal(res.final.values, stepper.phi.values)

    def test_local_nan_reported_at_its_step(self, monkeypatch):
        # node 3 lies between the nodes a stride-N/8 sample would look at;
        # the FD stencil carries the NaN there only steps later
        _poison_step_5(monkeypatch)
        prob = preset("periodic-s51", 1.0).discretize(N=64)
        res = run_simulation(prob, SchemeConfig("lffd", 1e-3, t_final=0.05, record="none"))
        assert res.blew_up and res.blowup_step == 5

    def test_blowup_between_records_ends_every_series_at_its_step(self):
        # the mass passes 10^2 times its start at step 16, between the
        # records at 14 and 21: that step is recorded in all three series
        prob = preset("periodic-s51", 1.0).discretize(N=64)
        pots = prob.potentials
        tau = 1.5 * tau_max("lffd", prob.grid.h, pots.v_max, pots.a_max)
        res = run_simulation(prob, SchemeConfig("lffd", tau, t_final=100 * tau,
                                                record="mass+energy", record_every=7,
                                                override_stability=True, stop_norm_ratio=10))
        assert res.blew_up and res.blowup_step == 16 == res.n_steps
        assert len(res.times) == len(res.mass_series) == len(res.energy_series) == 4
        np.testing.assert_allclose(res.times, np.array([0, 7, 14, 16]) * tau, rtol=1e-14)
        assert res.mass_series[-1] > 100 * res.mass_series[0] > res.mass_series[-2]


SCHEMES = ["cnfd", "sifd1", "sifd2", "lffd", "cnfp", "sifp1", "sifp2", "lffp"]


class TestDenseSteps:
    """Recording runs whose steps are mat-vecs with the one-step matrix."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_recording_run_stays_with_the_loop(self, scheme):
        prob = preset("periodic-s51", 0.5).discretize(N=32)
        tau, n_steps = 1e-2, 200
        res = run_simulation(prob, SchemeConfig(scheme, tau, t_final=n_steps * tau,
                                                record="mass+energy"))
        assert res.propagation == "dense-step" and res.n_steps == n_steps
        loop = make_stepper(scheme, prob, tau)
        for _ in range(n_steps):
            loop.advance()
        dist = norm(SpinorField(prob.grid, res.final.values - loop._curr), "l2")
        assert dist <= 1e-15 * n_steps * norm(prob.phi0, "l2")
        assert len(res.mass_series) == len(res.energy_series) == n_steps + 1

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matrix_energy_equals_discrete_energy(self, scheme):
        # the same states as the run, each energy through apply_k
        prob = preset("periodic-s51", 0.5).discretize(N=32)
        tau, n_steps, every = 1e-2, 200, 40
        res = run_simulation(prob, SchemeConfig(scheme, tau, t_final=n_steps * tau,
                                                record="mass+energy", record_every=every))
        assert res.propagation == "dense-step"
        stepper = make_stepper(scheme, prob, tau)
        stepper.step_by_matrix()
        want = [energy(stepper.phi, stepper.space, prob.potentials, prob.epsilon)]
        for k in range(1, n_steps + 1):
            stepper.advance()
            if k % every == 0:
                want.append(energy(stepper.phi, stepper.space, prob.potentials, prob.epsilon))
        assert len(res.energy_series) == len(want) == 6
        np.testing.assert_allclose(res.energy_series, want, rtol=1e-13, atol=0)

    def test_imaginary_part_guard_fires(self, monkeypatch):
        def one_sided(op, v):
            return (np.roll(v, -1, axis=-1) - v) / op.grid.h

        monkeypatch.setattr(CenteredDifference, "apply", one_sided)
        prob = preset("periodic-s51", 1.0).discretize(N=32)
        assert make_stepper("lffd", prob, 1e-2).takes_dense_steps(200)
        with pytest.raises(ConfigurationError, match="imaginary part"):
            run_simulation(prob, SchemeConfig("lffd", 1e-2, t_final=2.0, record="mass+energy"))

    def test_local_nan_reported_at_its_step(self, monkeypatch):
        _poison_step_5(monkeypatch)
        prob = preset("periodic-s51", 1.0).discretize(N=64)
        res = run_simulation(prob, SchemeConfig("lffd", 1e-3, t_final=1.0, record="mass"))
        assert res.propagation == "dense-step"
        assert res.blew_up and res.blowup_step == 5 == res.n_steps
        assert len(res.mass_series) == 6 and np.isnan(res.mass_series[-1])


class TestRecordedEnergy:
    """The recorded energy is h Re<Phi, K Phi> through the stepper's own K."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_series_equals_the_energy_of_each_recorded_state(self, scheme):
        prob = preset("periodic-s51", 0.5).discretize(N=32)
        tau, n_steps, every = 1e-2, 50, 7
        res = run_simulation(prob, SchemeConfig(scheme, tau, t_final=n_steps * tau,
                                                record="mass+energy", record_every=every))
        stepper = make_stepper(scheme, prob, tau)
        want = [energy(stepper.phi, stepper.space, prob.potentials, prob.epsilon)]
        for k in range(1, n_steps + 1):
            stepper.advance()
            if k % every == 0 or k == n_steps:
                want.append(energy(stepper.phi, stepper.space, prob.potentials, prob.epsilon))
        assert len(res.energy_series) == len(want) == 9
        np.testing.assert_allclose(res.energy_series, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_potentials_sampled_a_bounded_number_of_times(self, scheme):
        calls = []

        def counted_v(t, x):
            calls.append(t)
            return 1.0 / (1.0 + np.sin(x) ** 2)

        grid = TorusGrid(0.0, 2 * np.pi, 16)
        pots = PotentialPair(counted_v, lambda t, x: 0.5 * np.cos(x), True, 1.0, 0.5)
        prob = DiracProblem(grid, 0.5, pots, _bandlimited_field(grid))
        counts = []
        for n_steps in (10, 1_000):
            calls.clear()
            run_simulation(prob, SchemeConfig(scheme, 1e-3, t_final=n_steps * 1e-3,
                                              record="mass+energy"))
            counts.append(len(calls))
        # the bounds check and the stepper's cache: not one per step or record
        assert counts[0] == counts[1] <= 2

    def test_imaginary_part_guard_fires_on_a_non_skew_operator(self, monkeypatch):
        # a one-sided difference is not skew-adjoint, so K is not Hermitian
        # and <Phi, K Phi> has an imaginary part far above rounding
        def one_sided(op, v):
            return (np.roll(v, -1, axis=-1) - v) / op.grid.h

        monkeypatch.setattr(CenteredDifference, "apply", one_sided)
        prob = preset("periodic-s51", 1.0).discretize(N=32)
        with pytest.raises(ConfigurationError, match="imaginary part"):
            energy(prob.phi0, CenteredDifference(prob.grid), prob.potentials, prob.epsilon)
        with pytest.raises(ConfigurationError, match="imaginary part"):
            run_simulation(prob, SchemeConfig("lffd", 1e-2, t_final=0.1, record="mass+energy"))


def _nan_potential(t, x):
    return np.where(x > 3.0, np.nan, 0.0)


def _energy_run_with_time_dependent_potentials():
    grid = TorusGrid(0.0, 2 * np.pi, 16)
    pots = PotentialPair(lambda t, x: np.cos(t) + 0 * x, model._zero_evaluator, False, 1.0, 0.0)
    prob = DiracProblem(grid, 0.5, pots, _bandlimited_field(grid))
    run_simulation(prob, SchemeConfig("cnfd", 0.1, t_final=0.2, record="mass+energy"))


class TestConfigurationErrors:
    """Each documented ConfigurationError of the library, raised by its check."""

    @pytest.mark.parametrize("make, message", [
        (lambda: SchemeConfig("cnfd", 0.1, record="all"), "unknown record mode 'all'"),
        (lambda: SchemeConfig("cnfd", 0.1, record_every=0), "record_every must be >= 1"),
        (lambda: SchemeConfig("cnfd", 0.1, record_every=1.5),
         "record_every must be >= 1 and an integer, got 1.5"),
        (lambda: SchemeConfig("cnfd", 0.1, record_every=True),
         "record_every must be >= 1 and an integer, got True"),
        (lambda: SchemeConfig("cnfd", 0.1, stop_norm_ratio=math.nan),
         "stop_norm_ratio must be above 1, got nan"),
        (lambda: SchemeConfig("cnfd", 0.1, stop_norm_ratio=0.5),
         "stop_norm_ratio must be above 1, got 0.5"),
        (lambda: SchemeConfig("cnfd", 0.1, stop_norm_ratio=1.0),
         "stop_norm_ratio must be above 1, got 1.0"),
        (lambda: ReferenceConfig(kind="spline"), "unknown reference kind 'spline'"),
        (lambda: ReferenceConfig(kind="exact"), "unknown reference kind 'exact'"),
        (lambda: PotentialPair(model._zero_evaluator, model._zero_evaluator, True, -1.0, 0.0),
         "potential bounds must be nonnegative"),
        (lambda: PotentialPair(model._zero_evaluator, model._zero_evaluator, True, 1.0, math.nan),
         "potential bounds must be nonnegative"),
        (lambda: PotentialPair(_nan_potential, model._zero_evaluator, True, 1.0, 0.0)
         .evaluate(0.5, np.linspace(0.0, 6.0, 7)), "non-finite values at t=0.5"),
        (lambda: preset("periodic-s51", 1.0).discretize(), "exactly one of h or N"),
        (lambda: harness.reference_solution(preset("periodic-s51", 1.0), np.pi / 8, 0.0, [0.0]),
         "tau_e must be positive"),
        (lambda: harness.reference_solution(bandlimited_free_setup(), np.pi / 8, "exfp", [0.5])
         .snapshot(0.25), "no reference snapshot at t=0.25"),
        (lambda: harness.reference_solution(bandlimited_free_setup(), np.pi / 8, "exfd", [0.5])
         .restricted(0.5, TorusGrid(0.0, np.pi, 4)), "same interval"),
        (_energy_run_with_time_dependent_potentials, "needs time-independent potentials"),
        (lambda: ReferenceConfig(kind="exfd", tau_e=1e-3), "the exfd reference takes no tau_e"),
        # a non-finite step or horizon, refused before the stability verdict
        (lambda: run_simulation(preset("periodic-s51", 1.0).discretize(N=16),
                                SchemeConfig("cnfd", math.inf, t_final=0.2)),
         "horizon 0.2 and tau=inf must be finite"),
        (lambda: run_simulation(preset("periodic-s51", 1.0).discretize(N=16),
                                SchemeConfig("lffp", math.nan, t_final=0.2)),
         "horizon 0.2 and tau=nan must be finite"),
        (lambda: run_simulation(preset("periodic-s51", 1.0).discretize(N=16),
                                SchemeConfig("cnfd", 0.1, t_final=math.nan)),
         "horizon nan and tau=0.1 must be finite"),
        (lambda: whole_steps(math.inf, 0.1), "horizon inf and tau=0.1 must be finite"),
        (lambda: whole_steps(0.2, 0.0), "horizon 0.2 and tau=0.0 must be finite, tau nonzero"),
        (lambda: whole_steps(0.2, -0.0, "snapshot time", "tau_e"),
         "snapshot time 0.2 and tau_e=-0.0 must be finite, tau_e nonzero"),
    ], ids=["record-mode", "record-every", "record-every-float", "record-every-bool",
            "nan-stop-norm", "stop-norm-below-1", "stop-norm-1", "reference-kind",
            "no-exact-alias", "negative-bound", "nan-bound", "non-finite-potential",
            "mesh-and-nodes", "zero-tau_e", "snapshot-lookup", "other-interval",
            "time-dependent-energy", "exact-tau_e", "infinite-tau", "nan-tau", "nan-horizon",
            "infinite-whole-steps", "zero-whole-steps", "negative-zero-whole-steps"])
    def test_raises_with_its_message(self, make, message):
        with pytest.raises(ConfigurationError, match=message):
            make()


class TestMeasureErrors:
    def test_identical_fields_give_zero(self):
        g = TorusGrid(0.0, 2 * np.pi, 16)
        f = _bandlimited_field(g)
        rep = measure_errors(f, f)
        assert rep.e_phi == rep.e_rho == rep.e_j == 0.0

    def test_constant_offset_has_exact_l2(self):
        g = TorusGrid(0.0, 2 * np.pi, 16)
        f = _bandlimited_field(g)
        delta = 1e-3
        shifted = SpinorField(g, f.values + np.array([[delta], [0.0]]))
        rep = measure_errors(shifted, f)
        assert rep.e_phi == pytest.approx(delta * np.sqrt(2 * np.pi), rel=1e-12)
        assert rep.e_rho > 0 and rep.e_j > 0

    def test_grid_mismatch_rejected(self):
        f1 = _bandlimited_field(TorusGrid(0.0, 2 * np.pi, 16))
        f2 = _bandlimited_field(TorusGrid(0.0, 2 * np.pi, 32))
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
                                  reference=ReferenceConfig(kind="exfp"))
        orders = table.orders("e_phi")[0, 1:]
        assert np.all(np.abs(orders - 2.0) < 0.25)

    def test_epsilon_independent_when_potentials_vanish(self):
        # same horizon, different eps: with zero potentials the cells agree
        t1 = convergence_table(bandlimited_free_setup(epsilon=1.0, T0=2.0), "lffd",
                               [1.0], np.pi / 8, 0.05, 2,
                               reference=ReferenceConfig(kind="exfp"))
        t2 = convergence_table(bandlimited_free_setup(epsilon=0.5, T0=1.0), "lffd",
                               [0.5], np.pi / 8, 0.05, 2,
                               reference=ReferenceConfig(kind="exfp"))
        for k in range(2):
            assert t1.cell(0, k).e_phi == pytest.approx(t2.cell(0, k).e_phi, rel=1e-10)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_cells_recorded_as_nan(self, workers):
        # lffd above its CFL bound at every level: cells must be NaN, table intact
        setup = bandlimited_free_setup()
        h0 = np.pi / 8
        bad_tau = 4.0 * tau_max("lffd", h0 / 2, 0.0, 0.0)
        table = convergence_table(setup, "lffd", [0.0], h0, bad_tau, 2,
                                  reference=ReferenceConfig(kind="exfp"), workers=workers)
        for k in range(2):
            cell = table.cell(0, k)
            assert np.isnan([cell.e_phi, cell.e_rho, cell.e_j]).all()
        text = emit_csv(table)
        assert "nan" in text

    def test_tsfp_time_error_falls_with_eps(self):
        # TSFP against the FP flow at the same N, so only its time error is
        # left: at tau = 0.1 it falls like eps, and the order in tau is 2
        table = epsilon_sweep_temporal(preset("periodic-s51", 1.0), "tsfp",
                                       [1.0, 1 / 4, 1 / 16, 1 / 64], 0.2, 3, 2 * np.pi / 32,
                                       reference=ReferenceConfig(kind="exfp", h_e=2 * np.pi / 32,
                                                                 min_space_ratio=1.0))
        np.testing.assert_allclose(table.errors("e_phi")[:, 1],
                                   [7.17e-3, 1.74e-3, 6.43e-4, 1.19e-4], rtol=5e-3)
        np.testing.assert_allclose(table.orders("e_phi")[:, 1:], 2.0, atol=0.01)

    def test_tsfp_time_error_slope_in_eps_is_one(self):
        # Bao, Feng & Yin (MMS 2022): TSFP's error is O(eps tau^2) to t = T0/eps
        # at a fixed step.  At tau = 0.01 and N = 32, against the FP flow, tsfp
        # reads e_phi 6.42e-6 .. 7.83e-8 for eps = 2^-4 .. 2^-10 (slope 1.04);
        # cnfp on the same cells grows like 1/eps (slope -0.97) and is rejected
        eps_list = [2.0 ** -k for k in (4, 6, 8, 10)]

        def table(scheme):
            return epsilon_sweep_temporal(
                preset("periodic-s51", 1.0), scheme, eps_list, 0.01, 1, 2 * np.pi / 32,
                reference=ReferenceConfig("exfp", h_e=2 * np.pi / 32, min_space_ratio=1))

        def slope_in_band(table):
            slope = np.polyfit(np.log(eps_list), np.log(table.errors("e_phi")[:, 0]), 1)[0]
            return TSFP_EPS_SLOPE_BAND[0] <= slope <= TSFP_EPS_SLOPE_BAND[1]

        tsfp = table("tsfp")
        assert slope_in_band(tsfp)
        assert not slope_in_band(table("cnfp"))
        # the smallest error, at eps = 2^-10 (t = 2048, 204,800 steps), is far
        # above the rounding budget 2.5 n 1.1e-16 of those steps
        last = tsfp.cell(len(eps_list) - 1, 0)
        assert last.e_phi > 1000 * 2.5 * whole_steps(last.t, last.tau) * 1.1e-16

    def test_tsfp_time_error_over_eps_tau_squared_is_flat_up_to_a_threshold(self):
        # Bao, Feng & Yin (MMS 2022): TSFP's error is O(eps tau^2) for steps below
        # a non-resonance threshold.  At N = 32, eps = 2^-10 (t = 2048), against
        # the FP flow, e / (eps tau^2) is flat at the five sampled steps up to
        # TSFP_FLAT_TAU, though not at every step between them (resonant steps
        # spike, as at tau = 0.4776), and not at tau = 1; cnfp at the same
        # steps reads 8.2e3 .. 4.4e5 and is rejected
        eps, h = 2.0 ** -10, 2 * np.pi / 32
        reference = ReferenceConfig("exfp", h_e=h, min_space_ratio=1)  # one eigh for all
        taus = [0.05, 0.1, 0.25, 0.5, 2 / 3, 1.0]

        def cells(scheme):
            return [epsilon_sweep_temporal(preset("periodic-s51", 1.0), scheme, [eps], tau, 1, h,
                                           reference=reference).cell(0, 0) for tau in taus]

        def flat(cells):
            ratios = [cell.e_phi / (eps * cell.tau ** 2) for cell in cells]
            return max(ratios) <= TSFP_FLAT_BAND * min(ratios)

        tsfp = cells("tsfp")
        below = [cell for cell in tsfp if cell.tau <= TSFP_FLAT_TAU]
        assert len(below) == len(taus) - 1
        assert flat(below)
        assert not flat(tsfp)  # where it stops being flat: tau = 1
        assert not flat(cells("cnfp")[:len(below)])
        # every error is far above the rounding budget 2.5 n 1.1e-16 of its steps
        for cell in tsfp:
            assert cell.e_phi > 10 * 2.5 * whole_steps(cell.t, cell.tau) * 1.1e-16

    def test_tsfp_error_spikes_at_a_resonant_step(self):
        # the non-resonance condition of Bao, Feng & Yin (MMS 2022) is needed:
        # at N = 32, eps = 2^-10 (t = 2048), against the FP flow, e / (eps tau^2)
        # spikes at the step nearest 2 pi / (delta_2 + delta_3), delta_l =
        # sqrt(1 + l^2) the free frequency of mode l, over the steps 20 either
        # side (demos/tsfp_resonance.py scans n = 600 .. 5996); cnfp on the
        # same steps has no spike and is rejected
        eps, h = 2.0 ** -10, 2 * np.pi / 32
        t = 2 / eps
        n = round(t * np.sqrt([5.0, 10.0]).sum() / (2 * np.pi))
        reference = ReferenceConfig("exfp", h_e=h, min_space_ratio=1)  # one eigh for all

        def ratios(scheme):
            cells = [epsilon_sweep_temporal(preset("periodic-s51", 1.0), scheme, [eps], t / m,
                                            1, h, reference=reference).cell(0, 0)
                     for m in (n - 20, n, n + 20)]
            return [cell.e_phi / (eps * cell.tau ** 2) for cell in cells]

        def spike(ratios):
            return ratios[1] >= TSFP_SPIKE * max(ratios[0], ratios[2])

        assert n == 1760
        assert spike(ratios("tsfp"))
        assert not spike(ratios("cnfp"))

    def test_diagonal_index_follows_quarter_powers(self):
        table = ConvergenceTable("cnfd", [1.0, 0.25, 0.0625], 4)
        assert [table.diagonal_index(e) for e in table.eps_list] == [0, 1, 2]

    def test_first_row_of_zero_marks_no_level_above_it(self):
        # log4(0 / eps) has no value: a row above a first eps of 0 gets -1, as
        # rows above any first eps get a negative level, and no "1" in the CSV
        table = convergence_table(preset("periodic-s51", 1.0), "cnfd", [0.0, 0.25],
                                  np.pi / 8, 0.05, 2,
                                  reference=ReferenceConfig(h_e=np.pi / 64, tau_e=0.005))
        assert [table.diagonal_index(e) for e in table.eps_list] == [0, -1]
        assert ConvergenceTable("cnfd", [0.25, 1.0], 2).diagonal_index(1.0) == -1
        rows = [line.split(",") for line in emit_csv(table).splitlines()[1:]]
        assert [(row[0], row[1], row[-1]) for row in rows] == [
            ("0", "0", "1"), ("0", "1", "0"), ("0.25", "0", "0"), ("0.25", "1", "0")]

    def test_temporal_sweep_shares_h(self):
        setup = bandlimited_free_setup()
        table = epsilon_sweep_temporal(setup, "cnfp", [0.0], 0.02, 2, np.pi / 8,
                                       reference=ReferenceConfig(kind="exfp"))
        assert table.cell(0, 0).h == table.cell(0, 1).h
        assert table.cell(0, 0).tau == 2 * table.cell(0, 1).tau
        orders = table.orders("e_phi")[0, 1:]
        assert np.all(np.abs(orders - 2.0) < 0.3)

    def test_spatial_sweep_shares_tau(self):
        setup = bandlimited_free_setup()
        table = epsilon_sweep_spatial(setup, "lffd", [0.0], np.pi / 8, 2, 1e-3,
                                      reference=ReferenceConfig(kind="exfp"))
        assert table.cell(0, 0).tau == table.cell(0, 1).tau
        assert table.cell(0, 0).h == 2 * table.cell(0, 1).h

    def test_reference_time_ratio_enforced(self):
        setup = preset("periodic-s51", 1.0)
        with pytest.raises(ConfigurationError, match="finer"):
            convergence_table(setup, "cnfd", [1.0], np.pi / 8, 0.1, 1,
                              reference=ReferenceConfig(tau_e=0.05))

    @pytest.mark.parametrize("kind", ["exfp", "tsfp"], ids=["exact", "tsfp"])
    def test_reference_space_ratio_enforced_for_both_kinds(self, kind, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the guard")

        # the guard runs in the parent before any reference or cell is started
        for name in ("make_stepper", "run_simulation", "reference_solution"):
            monkeypatch.setattr(harness, name, no_work)
        # h_e = h/2 is only 2x finer than the test grid; the default guard asks 4x
        with pytest.raises(ConfigurationError, match="4x finer"):
            convergence_table(bandlimited_free_setup(), "cnfd", [0.0], np.pi / 8, 0.05, 1,
                              reference=ReferenceConfig(kind=kind, h_e=np.pi / 16))

    @pytest.mark.parametrize("kind", ["exfp", "tsfp"], ids=["exact", "tsfp"])
    @pytest.mark.parametrize("h_e, min_space_ratio, message", [
        (np.pi / 32, 4.0, "reference grid N=64 is not 4x finer than the test grid N=32"),
        (np.pi / 48, 4.0, "reference grid N=96 is not 4x finer than the test grid N=32"),
        (np.pi / 40, 2.0, "grids do not nest"),
    ], ids=["2x-finer", "3x-finer", "not-nesting"])
    def test_compare_refuses_reference_grid_before_any_work(self, kind, h_e, min_space_ratio,
                                                            message, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the guard")

        # as a table does: no stepper made and no reference built before the guard
        for name in ("make_stepper", "reference_solution", "build_reference"):
            monkeypatch.setattr(harness, name, no_work)
        with pytest.raises(ConfigurationError, match=message):
            compare_over_time(preset("periodic-s51", 0.25), ["cnfd"], np.pi / 16, 0.01, 2,
                              reference=ReferenceConfig(kind=kind, h_e=h_e,
                                                        min_space_ratio=min_space_ratio))

    @pytest.mark.parametrize("setup, h0, message", [
        (dataclasses.replace(bandlimited_free_setup(epsilon=1.0), key=None,
                             potentials=PotentialPair(lambda t, x: np.cos(t) + 0 * x,
                                                      model._zero_evaluator, False, 1.0, 0.0)),
         np.pi / 8, "time-independent potentials"),
        (bandlimited_free_setup(), np.pi / 256, "N <= 1024, got N=2048"),
    ], ids=["time-dependent", "too-many-nodes"])
    def test_exact_reference_refused_before_any_task(self, setup, h0, message, monkeypatch,
                                                     sync_pools):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the guard")

        for name in ("make_stepper", "run_simulation", "reference_solution"):
            monkeypatch.setattr(harness, name, no_work)
        with pytest.raises(ConfigurationError, match=message):
            convergence_table(setup, "cnfd", [setup.epsilon], h0, 0.05, 1,
                              reference=ReferenceConfig(kind="exfp"), workers=2)
        assert sync_pools == []  # no pool was started

    def test_reference_error_same_for_any_worker_count(self):
        # tau_e = 0.003 divides neither horizon (t = 2 and 8); the eps = 1/4
        # reference is the longest task, so its error is the one raised
        messages = []
        for workers in (1, 2):
            with pytest.raises(ConfigurationError, match="tau_e=0.003") as caught:
                convergence_table(preset("periodic-s51", 1.0), "cnfd", [1.0, 0.25],
                                  np.pi / 8, 0.05, 1,
                                  reference=ReferenceConfig(tau_e=0.003), workers=workers)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert "snapshot time 8.0" in messages[0]

    def test_worker_pool_matches_serial(self, tmp_path):
        setup = preset("periodic-s51", 1.0)
        # a config of its own per table: the pool builds (or reads the disk
        # cache) instead of reusing what the serial table kept
        for cache in (None, ReferenceCache(str(tmp_path))):
            serial, parallel = (
                convergence_table(setup, "cnfd", [1.0, 0.5], np.pi / 8, 0.05, 2,
                                  reference=ReferenceConfig(tau_e=0.005, cache=cache),
                                  workers=workers)
                for workers in (1, 2))
            for which in ("e_phi", "e_rho", "e_j"):
                np.testing.assert_array_equal(serial.errors(which), parallel.errors(which))
            assert emit_csv(serial) == emit_csv(parallel)

    def test_pool_has_at_most_one_worker_per_task(self, sync_pools):
        # one reference and two cells: a pool of 5000 would fork 5000 workers
        table = convergence_table(bandlimited_free_setup(), "cnfp", [0.0], np.pi / 8, 0.05, 2,
                                  reference=ReferenceConfig(kind="exfp"), workers=5000)
        assert np.all(np.isfinite(table.errors("e_phi")))
        [pool] = sync_pools
        assert len(pool.tasks) == pool.max_workers == 3

    def test_pooled_task_runs_one_blas_thread(self, monkeypatch):
        libs = glob.glob(np.__path__[0] + "/../numpy.libs/libscipy_openblas*.so")
        if not libs:
            pytest.skip("numpy has no bundled scipy-openblas library to read the count from")
        threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
        before = threads()
        # the workers are forked, so they run this task in place of a table's
        monkeypatch.setattr(harness, "_run_row", lambda *task: [threads()])
        assert harness._run_tasks([("a",), ("b",)], workers=2) == [[1], [1]]
        assert threads() == before  # the parent keeps its own count

    def test_pool_tasks_submitted_once_longest_first(self, sync_pools):
        setup, eps_list, h0, tau = preset("periodic-s51", 1.0), [1.0, 0.5, 0.25], np.pi / 4, 0.02
        tau_e = 0.005
        table = epsilon_sweep_spatial(setup, "lffp", eps_list, h0, 2, tau,
                                      reference=ReferenceConfig(tau_e=tau_e), workers=2)
        assert np.all(np.isfinite(table.errors("e_phi")))
        [pool] = sync_pools
        refs = [task for task in pool.tasks if task[0] == "reference"]
        cells = [task for task in pool.tasks if task[0] == "cell"]
        assert len(refs) + len(cells) == len(pool.tasks)
        assert sorted(task[1].epsilon for task in refs) == sorted(eps_list)
        assert sorted((task[1].epsilon, task[3]) for task in cells) == sorted(
            (eps, h) for eps in eps_list for h in (h0, h0 / 2))
        assert pool.tasks[0][0] == "reference" and pool.tasks[0][1].epsilon == 0.25

        def steps_times_nodes(task):
            # (t / tau_e) N_e for a reference on h_e = (finest h) / 4, (t / tau) N for a cell
            s_eps = task[1]
            t = s_eps.T0 / s_eps.epsilon
            if task[0] == "reference":
                return t / tau_e * s_eps.grid_for_mesh(h0 / 2 / 4).N
            return t / task[4] * s_eps.grid_for_mesh(task[3]).N

        estimates = [steps_times_nodes(task) for task in pool.tasks]
        assert estimates == sorted(estimates, reverse=True)

    def test_exact_reference_priced_by_its_eigh(self, sync_pools):
        # cells of 40 x 16 and 40 x 32 steps x nodes; the eigh at N_e = 256
        # (about 0.2 s) counts as 256^3 / 8, not as one step, so it goes first
        h0, h_e = np.pi / 8, np.pi / 128
        table = epsilon_sweep_spatial(bandlimited_free_setup(), "cnfd", [0.0], h0, 2, 0.05,
                                      reference=ReferenceConfig(kind="exfp", h_e=h_e),
                                      workers=2)
        assert np.all(np.isfinite(table.errors("e_phi")))
        [pool] = sync_pools
        assert [(task[0], task[3]) for task in pool.tasks] == [
            ("reference", h0 / 2), ("cell", h0 / 2), ("cell", h0)]

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
        cache = ReferenceCache(str(tmp_path))
        # a config of its own per table, so that the second reads the disk
        first, again = (epsilon_sweep_spatial(setup, "lffp", **run,
                                              reference=ReferenceConfig(tau_e=0.0025,
                                                                        cache=cache))
                        for _ in range(2))
        for table in (first, again):
            for which in ("e_phi", "e_rho", "e_j"):
                np.testing.assert_allclose(table.errors(which), plain.errors(which),
                                           rtol=1e-14, atol=0)


def _smallest_resolved_n(table, tol):
    """Per eps row of a spatial sweep, the smallest N with e_phi <= tol, else None."""
    return [next((round(2 * np.pi / table.cell(i, k).h) for k in range(table.levels)
                  if table.cell(i, k).e_phi <= tol), None)
            for i in range(len(table.eps_list))]


@pytest.fixture(scope="module")
def resolution_tables():
    """(FD, FP) sweeps of exfd and exfp at N = 8 .. 256 against exfp at
    N_e = 512 for RESOLUTION_EPS; tau = 2 is a whole step of every horizon
    2/eps.  One config for both, so the FP sweep reuses the four references."""
    reference = ReferenceConfig("exfp", h_e=2 * np.pi / 512, min_space_ratio=2)
    return tuple(epsilon_sweep_spatial(preset("periodic-s51", 1.0), scheme, RESOLUTION_EPS,
                                       2 * np.pi / 8, 6, 2.0, reference=reference, workers=2)
                 for scheme in ("exfd", "exfp"))


class TestSpatialResolution:
    """The paper's title claim: to stay accurate to t = T0/eps, FD needs
    h = O(eps^(1/2)), while FP's spatial error is uniform in eps.  Both
    operators step exactly in time here, so a cell's error is spatial."""

    def test_fd_needs_n_growing_like_eps_to_the_minus_half(self, resolution_tables):
        def grows_like_sqrt(table):
            n_min = _smallest_resolved_n(table, RESOLVED_FD_TOL)[1:]  # eps <= 1/4
            if None in n_min:
                return False
            slope = np.polyfit(np.log(RESOLUTION_EPS[1:]), np.log(n_min), 1)[0]
            return FD_NMIN_SLOPE_BAND[0] <= slope <= FD_NMIN_SLOPE_BAND[1]

        fd, fp = resolution_tables
        np.testing.assert_allclose(fd.errors("e_phi")[:, -1],  # N = 256
                                   [4.75e-3, 6.03e-3, 2.04e-2, 7.43e-2], rtol=5e-3)
        assert _smallest_resolved_n(fd, RESOLVED_FD_TOL) == [64, 64, 128, 256]
        assert grows_like_sqrt(fd)
        assert not grows_like_sqrt(fp)  # 16, 16, 8, 8

    def test_fp_needs_the_same_n_for_every_eps(self, resolution_tables):
        def uniform(n_min):
            return None not in n_min and max(n_min) <= FP_NMIN_FACTOR * n_min[0]

        fd, fp = resolution_tables
        # down to eps = 2^-10, where N_e = 128 suffices (the reading at 1/64
        # matches N_e = 512 to 1e-12)
        smaller = epsilon_sweep_spatial(
            preset("periodic-s51", 1.0), "exfp", [2.0 ** -8, 2.0 ** -10], 2 * np.pi / 8, 4, 2.0,
            reference=ReferenceConfig("exfp", h_e=2 * np.pi / 128, min_space_ratio=2))
        n_min = [*_smallest_resolved_n(fp, RESOLVED_FP_TOL),
                 *_smallest_resolved_n(smaller, RESOLVED_FP_TOL)]
        assert n_min == [32] * 6
        assert uniform(n_min)
        assert not uniform(_smallest_resolved_n(fd, RESOLVED_FP_TOL))  # none up to 256
        assert not uniform(_smallest_resolved_n(fd, RESOLVED_FD_TOL))  # 64 .. 256


def _counted_builds(monkeypatch):
    """The epsilon of each reference the harness builds, in call order
    (same-process tables only: workers=1 or SyncPool)."""
    built = []
    build = harness.build_reference

    def counted(setup, *args):
        built.append(setup.epsilon)
        return build(setup, *args)

    monkeypatch.setattr(harness, "build_reference", counted)
    return built


def _sweep(scheme, reference, workers):
    return epsilon_sweep_spatial(preset("periodic-s51", 1.0), scheme, [1.0, 0.5], np.pi / 4,
                                 2, 0.02, reference=reference, workers=workers)


def _fd_then_fp(reference, workers):
    return [_sweep(scheme, reference, workers) for scheme in ("lffd", "lffp")]


class TestSharedReferences:
    """A ReferenceConfig keeps the references its tables built; a later call
    with the same object reuses them."""

    def test_second_sweep_submits_no_reference_task(self, sync_pools):
        cfg = ReferenceConfig(tau_e=0.005)
        _fd_then_fp(cfg, workers=2)
        first, second = reference_tasks(sync_pools)
        assert sorted(task[1].epsilon for task in first) == [0.5, 1.0]
        assert second == []
        assert len(sync_pools[1].tasks) == 2 * 2  # the lffp cells alone

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_tables_bit_identical_to_fresh_ones(self, workers):
        shared = _fd_then_fp(ReferenceConfig(tau_e=0.005), workers)
        fresh = [_sweep(scheme, ReferenceConfig(tau_e=0.005), workers)
                 for scheme in ("lffd", "lffp")]
        for got, want in zip(shared, fresh):
            for which in ("e_phi", "e_rho", "e_j"):
                np.testing.assert_array_equal(got.errors(which), want.errors(which))
            assert emit_csv(got) == emit_csv(want)

    def test_every_part_of_the_key_misses(self, monkeypatch):
        built = _counted_builds(monkeypatch)
        cfg = ReferenceConfig()  # h_e and tau_e derived from the finest mesh

        def table(setup, eps_list=(1.0,), h0=np.pi / 4, tau0=0.02):
            before = len(built)
            convergence_table(setup, "cnfd", list(eps_list), h0, tau0, 1, reference=cfg)
            return len(built) - before

        def compare(n_snapshots):
            before = len(built)
            compare_over_time(setup, ["cnfd"], np.pi / 4, 0.02, n_snapshots, reference=cfg)
            return len(built) - before

        setup = bandlimited_free_setup(epsilon=1.0)
        assert table(setup) == 1
        assert table(setup) == 0
        assert table(setup, [0.5]) == 1                             # eps (and its horizon)
        assert table(setup, h0=np.pi / 8) == 1                      # the derived h_e
        assert table(setup, tau0=0.01) == 1                         # the derived tau_e
        assert compare(1) == 0                                      # the table's horizon
        assert compare(2) == 1                                      # the target times
        assert table(bandlimited_free_setup(epsilon=1.0, T0=4.0)) == 1  # T0 and horizon
        assert table(setup) == table(bandlimited_free_setup(epsilon=1.0)) == 0

    @pytest.mark.parametrize("make, field, value", [
        (lambda: ReferenceConfig(tau_e=0.0025), "kind", "exfp"),
        (lambda: ReferenceConfig(kind="exfp"), "kind", "spline"),
        (lambda: SchemeConfig("cnfd", 0.1, record="mass"), "record", "energy"),
    ], ids=["reference-drops-tau_e", "reference-unknown-kind", "scheme-unknown-record"])
    def test_configs_refuse_assignment(self, make, field, value):
        # a changed field would skip the checks made at construction
        config = make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, value)

    def test_target_times_miss(self, monkeypatch):
        built = _counted_builds(monkeypatch)
        cfg, setup = ReferenceConfig(kind="exfp"), bandlimited_free_setup()
        for n_snapshots in (2, 4, 2):
            compare_over_time(setup, ["cnfd"], np.pi / 8, 0.05, n_snapshots, reference=cfg)
        assert len(built) == 2

    def test_compare_over_time_builds_once(self, monkeypatch):
        built = _counted_builds(monkeypatch)
        cfg, setup = ReferenceConfig(tau_e=0.0025), preset("periodic-s51", 1.0)
        first, again = (compare_over_time(setup, ["lffd", "lffp"], np.pi / 8, 0.02, 4,
                                          reference=cfg) for _ in range(2))
        assert built == [1.0]
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a.values, b.values)

    def test_setup_without_key_rebuilt_every_call(self, monkeypatch):
        built = _counted_builds(monkeypatch)
        keyed = bandlimited_free_setup(epsilon=1.0)
        anonymous = dataclasses.replace(keyed, key=None)
        cfg = ReferenceConfig(tau_e=0.005)
        for _ in range(2):
            convergence_table(anonymous, "cnfd", [1.0], np.pi / 4, 0.02, 1, reference=cfg)
        assert len(built) == 2

    def test_failed_reference_raises_again(self, monkeypatch):
        built = _counted_builds(monkeypatch)
        cfg = ReferenceConfig(tau_e=0.003)  # divides no horizon
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="tau_e=0.003"):
                convergence_table(preset("periodic-s51", 1.0), "cnfd", [1.0], np.pi / 8,
                                  0.05, 1, reference=cfg)
        assert len(built) == 2

    def test_kept_references_are_never_pickled(self):
        cfg = ReferenceConfig(tau_e=0.005)
        size = len(pickle.dumps(cfg))
        _fd_then_fp(cfg, workers=1)
        assert len(pickle.dumps(cfg)) == size
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert "_kept" not in repr(cfg)

    def test_fresh_config_over_warm_disk_cache_matches(self, tmp_path, sync_pools):
        # a fresh config reads the warm cache through its reference tasks;
        # within each config the lffp sweep reuses what the lffd sweep kept
        cache = ReferenceCache(str(tmp_path))
        warm, again = (_fd_then_fp(ReferenceConfig(tau_e=0.005, cache=cache), workers=2)
                       for _ in range(2))
        assert [len(tasks) for tasks in reference_tasks(sync_pools)] == [2, 0, 2, 0]
        plain = _fd_then_fp(ReferenceConfig(tau_e=0.005), workers=1)
        for table in (*warm, *again):
            want = plain[table.scheme == "lffp"]
            for which in ("e_phi", "e_rho", "e_j"):
                np.testing.assert_array_equal(table.errors(which), want.errors(which))
            assert emit_csv(table) == emit_csv(want)


class TestEmission:
    def test_empty_table_is_header_only(self):
        table = ConvergenceTable("cnfd", [], 0)
        assert emit_csv(table) == (
            "epsilon,level,h,tau,e_phi,e_rho,e_J,order_phi,order_rho,order_J,diagonal\n")

    def test_row_layout_and_determinism(self, tmp_path):
        setup = preset("periodic-s51", 1.0)
        cache = ReferenceCache(str(tmp_path))
        # a config of its own per table, so that t2 reads the disk cache
        t1, t2 = (convergence_table(setup, "cnfd", [1.0, 0.25], np.pi / 8, 0.05, 2,
                                    reference=ReferenceConfig(tau_e=5e-3, cache=cache))
                  for _ in range(2))
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
                                   reference=ReferenceConfig(kind="exfp"))
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
                                      reference=ReferenceConfig(kind="exfp"))
            e = table.errors("e_phi")[0]
            slope = np.polyfit(np.arange(3) * np.log(2.0), -np.log(e), 1)[0]
            assert abs(slope - 2.0) < 0.1, (scheme, e)
