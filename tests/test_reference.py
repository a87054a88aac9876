"""Exact free flow, TSFP splitting, the exact flow (exfd, exfp), reference
snapshots and the disk cache."""

import ast
import dataclasses
import importlib.util
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dirac1d.harness as harness
import dirac1d.reference as reference
import dirac1d.stepping as stepping
from dirac1d import (
    ConfigurationError,
    DiracProblem,
    PotentialPair,
    ReferenceCache,
    SchemeConfig,
    SpinorField,
    TorusGrid,
    free_dirac_exact,
    load_reference,
    make_stepper,
    mass,
    norm,
    preset,
    reference_cache_key,
    reference_solution,
    run_simulation,
    save_reference,
    zero_potentials,
)
from dirac1d.grid import CenteredDifference, FourierDerivative
from dirac1d.stepping import dense_power_pays

from test_fdtd import free_problem
from test_grid import assert_bitwise_equal, stacked_products

RNG = np.random.default_rng(23)


def random_field(grid, rng=RNG):
    v = rng.standard_normal((2, grid.N)) + 1j * rng.standard_normal((2, grid.N))
    return SpinorField(grid, v)


class TestFreeExact:
    def test_mode_zero_rotates_by_mass_phases(self):
        g = TorusGrid(0.0, 2 * np.pi, 16)
        f = SpinorField(g, np.stack((np.full(16, 0.7 + 0.1j), np.full(16, -0.2 + 0.4j))))
        t = 0.83
        out = free_dirac_exact(f, t)
        np.testing.assert_allclose(out.values[0], np.exp(-1j * t) * f.values[0], atol=1e-14)
        np.testing.assert_allclose(out.values[1], np.exp(+1j * t) * f.values[1], atol=1e-14)

    def test_single_mode_matches_matrix_exponential(self):
        # dense eigendecomposition oracle for exp(-i t (mu*sigma1 + sigma3))
        g = TorusGrid(0.0, 2 * np.pi, 16)
        u = np.array([0.3 - 0.5j, 0.8 + 0.2j])
        f = SpinorField(g, np.outer(u, np.exp(1j * g.x)))
        t = 1.37
        gamma = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)  # mu = 1
        w, V = np.linalg.eigh(gamma)
        expm = (V * np.exp(-1j * t * w)) @ V.conj().T
        out = free_dirac_exact(f, t)
        np.testing.assert_allclose(out.values, np.outer(expm @ u, np.exp(1j * g.x)),
                                   atol=1e-13)

    def test_unitary_on_random_data(self):
        g = TorusGrid(0.0, 2 * np.pi, 32)
        f = random_field(g)
        for t in (0.1, 2.7, 40.0):
            assert norm(free_dirac_exact(f, t), "l2") == pytest.approx(
                norm(f, "l2"), rel=1e-13)

    def test_composition(self):
        g = TorusGrid(0.0, 2 * np.pi, 32)
        f = random_field(g)
        once = free_dirac_exact(f, 0.7 + 1.9)
        twice = free_dirac_exact(free_dirac_exact(f, 0.7), 1.9)
        assert norm(SpinorField(g, once.values - twice.values), "l2") <= \
            1e-12 * norm(f, "l2")

    def test_negative_time_inverts(self):
        g = TorusGrid(0.0, 2 * np.pi, 32)
        f = random_field(g)
        back = free_dirac_exact(free_dirac_exact(f, 1.3), -1.3)
        np.testing.assert_allclose(back.values, f.values, atol=1e-13)


class TestTSFP:
    def test_free_case_degenerates_to_exact(self):
        grid = TorusGrid(0.0, 2 * np.pi, 32)
        prob = free_problem(grid, lambda x: np.stack((np.exp(1j * x) / (2 + np.sin(x)),
                                                      np.cos(x) + 0j)))
        st = make_stepper("tsfp", prob, 0.05)
        st.advance()
        want = free_dirac_exact(prob.phi0, 0.05)
        np.testing.assert_allclose(st._curr, want.values, atol=1e-13)

    def test_constant_electric_potential_is_global_phase(self):
        # with V = c, A1 = 0 the potential flow commutes with the free flow
        grid = TorusGrid(0.0, 2 * np.pi, 32)
        c, eps, tau = 0.8, 0.5, 0.04
        pots = PotentialPair(lambda t, x: np.full_like(x, c),
                             lambda t, x: np.zeros_like(x), True, c, 0.0)
        phi0 = random_field(grid)
        prob = DiracProblem(grid, eps, pots, phi0, T0=2.0)
        st = make_stepper("tsfp", prob, tau)
        st.advance()
        want = np.exp(-1j * tau * eps * c) * free_dirac_exact(phi0, tau).values
        np.testing.assert_allclose(st._curr, want, atol=1e-13)

    def test_mass_exactly_conserved(self):
        prob = preset("periodic-s51", 1.0).discretize(N=32)
        st = make_stepper("tsfp", prob, 0.05)
        m0 = mass(st.phi)
        for _ in range(400):
            st.advance()
        assert abs(mass(st.phi) - m0) <= 1e-13 * m0

    def test_self_convergence_is_second_order(self):
        setup = preset("periodic-s51", 1.0)
        prob = setup.discretize(N=64)
        t_final = 1.0
        sols = {}
        for tau in (0.01, 0.005, 0.0025):
            st = make_stepper("tsfp", prob, tau)
            for _ in range(int(round(t_final / tau))):
                st.advance()
            sols[tau] = st._curr.copy()
        e1 = norm(SpinorField(prob.grid, sols[0.01] - sols[0.0025]), "l2")
        e2 = norm(SpinorField(prob.grid, sols[0.005] - sols[0.0025]), "l2")
        # errors vs the finest run behave like tau^2: ratio (1 - 1/16)/(1/4 - 1/16)= 5
        assert e1 / e2 == pytest.approx(5.0, abs=1.0)

    def test_propagate_matches_stepwise(self):
        prob = preset("periodic-s51", 1.0).discretize(N=32)
        a = make_stepper("tsfp", prob, 0.05)
        b = make_stepper("tsfp", prob, 0.05)
        a.propagate(40)
        for _ in range(40):
            b.advance()
        np.testing.assert_allclose(a._curr, b._curr, atol=1e-12)
        assert a.n == b.n == 40

    @settings(max_examples=30, deadline=None)
    @given(half_n=st.integers(4, 128), n=st.integers(1, 3000),
           eps=st.sampled_from([0.0, 0.25, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
    @example(half_n=8, n=2000, eps=1.0, seed=0)     # dense power
    @example(half_n=128, n=500, eps=0.25, seed=1)   # step loop
    def test_propagate_equals_advance_loop(self, half_n, n, eps, seed):
        N = 2 * half_n
        prob = preset("periodic-s51", eps).discretize(N=N)
        phi0 = random_field(prob.grid, np.random.default_rng(seed))
        prob = dataclasses.replace(prob, phi0=phi0)
        a = make_stepper("tsfp", prob, 1e-3)
        b = make_stepper("tsfp", prob, 1e-3)
        a.propagate(n)
        for _ in range(n):
            b.advance()
        dense = n > 1 and dense_power_pays(2 * N, n, N)
        assert a.propagation == {"dense-power" if dense else "stepwise"}
        assert (a.n, a.t) == (b.n, pytest.approx(b.t))
        dist = norm(SpinorField(prob.grid, a._curr - b._curr), "l2")
        assert dist <= 1e-15 * n * norm(phi0, "l2") + 1e-13

    def test_dense_power_matches_loop_on_long_run(self, monkeypatch):
        prob = preset("periodic-s51", 0.25).discretize(N=64)
        n = 20_000
        assert dense_power_pays(128, n, 64)
        dense = make_stepper("tsfp", prob, 1e-4)
        dense.propagate(n)
        monkeypatch.setattr(stepping, "dense_power_pays", lambda size, n_steps, n_nodes: False)
        loop = make_stepper("tsfp", prob, 1e-4)
        loop.propagate(n)
        assert dense.propagation == {"dense-power"} and loop.propagation == {"stepwise"}
        dist = norm(SpinorField(prob.grid, dense._curr - loop._curr), "l2")
        assert dist <= 1e-15 * n * norm(prob.phi0, "l2")

    def test_successive_propagations_compose(self):
        prob = preset("periodic-s51", 0.25).discretize(N=64)
        split = make_stepper("tsfp", prob, 1e-4)
        split.propagate(3_000)
        split.propagate(5_000)
        whole = make_stepper("tsfp", prob, 1e-4)
        whole.propagate(8_000)
        assert split.propagation == whole.propagation == {"dense-power"}
        assert split.n == whole.n == 8_000
        dist = norm(SpinorField(prob.grid, split._curr - whole._curr), "l2")
        assert dist <= 1e-15 * 8_000 * norm(prob.phi0, "l2")

    def test_time_dependent_potential_keeps_the_loop(self):
        grid = TorusGrid(0.0, 2 * np.pi, 16)
        pots = PotentialPair(lambda t, x: np.cos(t) / (1 + np.sin(x) ** 2),
                             lambda t, x: np.sin(2 * t) * np.cos(x), False, 1.0, 1.0)
        prob = DiracProblem(grid, 1.0, pots, random_field(grid), T0=2.0)
        a = make_stepper("tsfp", prob, 1e-3)
        b = make_stepper("tsfp", prob, 1e-3)
        a.propagate(2_000)
        for _ in range(2_000):
            b.advance()
        assert a.propagation == {"stepwise"}
        np.testing.assert_array_equal(a._curr, b._curr)

    def test_time_dependent_step_is_second_order(self):
        # the potential half steps sample V and A1 at t + tau/4 and t + 3 tau/4.
        # Measured: errors 2.41e-5, 5.96e-6, 1.42e-6 (orders 2.02, 2.07); both
        # halves at t_n give orders 1.10, 1.22; the midpoints swapped keep
        # order 2 at an error of 4.6e-5 for tau = 0.005
        phi0 = preset("periodic-s51", 1.0).discretize(N=32).phi0
        grid = phi0.grid
        pots = PotentialPair(lambda t, x: np.cos(t) / (1 + np.sin(x) ** 2),
                             lambda t, x: np.sin(2 * t) * np.cos(x), False, 1.0, 1.0)
        prob = DiracProblem(grid, 1.0, pots, phi0, T0=2.0)

        def solve(tau):
            stepper = make_stepper("tsfp", prob, tau)
            stepper.propagate(round(2.0 / tau))
            return stepper._curr

        fine = solve(0.01 / 16)
        errors = [norm(SpinorField(grid, solve(tau) - fine), "l2")
                  for tau in (0.01, 0.005, 0.0025)]
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert np.all(np.abs(orders - 2.0) <= 0.15), (errors, orders)
        assert errors[1] <= 1.2e-5, errors

    def test_single_step_function(self):
        prob = preset("periodic-s51", 1.0).discretize(N=32)
        st = make_stepper("tsfp", prob, 0.05)
        out = st._step(None, prob.phi0.values, 0.0)
        st.advance()
        np.testing.assert_allclose(out, st._curr, atol=1e-15)


class TestBitIdentity:
    """The buffered loop and kernel against the recurrence written out with
    fresh arrays: four products and one np.stack per 2x2 multiply."""

    @staticmethod
    def free_multipliers(grid, t):
        delta = np.sqrt(1.0 + grid.mu_fft ** 2)
        c = np.cos(t * delta)
        s = np.sin(t * delta) / delta
        return c - 1j * s, -1j * s * grid.mu_fft, c + 1j * s

    @staticmethod
    def free_flow(f, v):
        return np.fft.ifft(stacked_products(*f, np.fft.fft(v, axis=-1)), axis=-1)

    def test_stepwise_propagate_equals_the_merged_recurrence(self):
        # in the sigma1 eigenbasis, sqrt2 psi = (phi1 + phi2, phi1 - phi2): the
        # potential flow is diagonal, exp(-i s eps (V -+ A1)), the free flow is
        # c I - i s (mu sigma3 + sigma1), and the transforms are scipy.fft's
        from scipy.fft import fft, ifft

        prob = preset("periodic-s51", 0.25).discretize(N=1024)
        tau = 1e-3
        stepper = make_stepper("tsfp", prob, tau)
        ev, ea = stepper._eps_potentials(0.0)
        half, full = (np.stack((np.exp(-1j * s * (ev - ea)), np.exp(-1j * s * (ev + ea))))
                      for s in (0.5 * tau, tau))
        delta = np.sqrt(1.0 + prob.grid.mu_fft ** 2)
        c, s = np.cos(tau * delta), np.sin(tau * delta) / delta
        free = (c - 1j * s * prob.grid.mu_fft, -1j * s, c + 1j * s * prob.grid.mu_fft)

        def rotate(v):
            return np.stack((v[0] + v[1], v[0] - v[1]))

        phi = prob.phi0.values
        for n in (150, 1, 49):  # each call merges its interior half steps
            stepper.propagate(n)
            # x * m, not m * x: numpy's complex product need not commute bitwise
            x = rotate(phi) * half
            for _ in range(n - 1):
                x = ifft(stacked_products(*free, fft(x, axis=-1)), axis=-1) * full
            x = ifft(stacked_products(*free, fft(x, axis=-1)), axis=-1) * half
            phi = 0.5 * rotate(x)
            assert_bitwise_equal(stepper.phi.values, phi)
        assert stepper.propagation == {"stepwise"} and stepper.n == 200

    def test_free_dirac_exact_equals_the_stacked_products(self):
        grid = TorusGrid(0.0, 2 * np.pi, 1024)
        phi0 = random_field(grid)
        for t in (3.7, -0.25):
            assert_bitwise_equal(free_dirac_exact(phi0, t).values,
                                 self.free_flow(self.free_multipliers(grid, t), phi0.values))


def test_scipy_fft_is_imported_by_the_stepwise_tsfp_loop_alone():
    # importing scipy.fft costs about 64 ms, which every pool worker of a
    # table whose references are dense-powered would pay
    code = """if True:
        import sys
        import dirac1d
        from dirac1d import make_stepper, preset
        assert not any(name.split(".")[0] == "scipy" for name in sys.modules)
        dense = make_stepper("tsfp", preset("periodic-s51", 1.0).discretize(N=16), 0.01)
        dense.propagate(1000)
        assert dense.propagation == {"dense-power"} and "scipy.fft" not in sys.modules
        loop = make_stepper("tsfp", preset("periodic-s51", 1.0).discretize(N=512), 0.01)
        loop.propagate(3)
        assert loop.propagation == {"stepwise"} and "scipy.fft" in sys.modules
    """
    src = str(Path(reference.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr


class TestNoAliasing:
    @pytest.mark.parametrize("scheme", ["tsfp", "cnfd"])
    def test_phi_taken_before_a_second_propagate_keeps_its_values(self, scheme):
        # N = 512: the one-step matrix exceeds DENSE_MAX_SIZE, so both run stepwise
        stepper = make_stepper(scheme, preset("periodic-s51", 0.25).discretize(N=512), 1e-3)
        stepper.propagate(20)
        taken = stepper.phi.values
        kept = taken.copy()
        stepper.propagate(20)
        assert stepper.propagation == {"stepwise"}
        assert not np.shares_memory(taken, stepper.phi.values)
        assert_bitwise_equal(taken, kept)

    def test_reference_snapshots_are_distinct_arrays_that_keep_their_values(self):
        setup = preset("periodic-s51", 0.25)
        h_e = np.pi / 256  # N_e = 512: stepwise
        ref = reference_solution(setup, h_e, 1e-3, [0.02, 0.05])
        assert ref.manifest["propagation"] == "stepwise"
        early, late = ref.snapshot(0.02).values, ref.snapshot(0.05).values
        assert not np.shares_memory(early, late)
        alone = reference_solution(setup, h_e, 1e-3, [0.02])
        assert_bitwise_equal(early, alone.snapshot(0.02).values)


class TestReferenceSolution:
    def test_time_zero_returns_sampled_data(self):
        setup = preset("periodic-s51", 1.0)
        ref = reference_solution(setup, np.pi / 32, 1e-3, [0.0])
        expected = setup.discretize(h=np.pi / 32).phi0
        np.testing.assert_allclose(ref.snapshot(0.0).values, expected.values, atol=1e-15)

    def test_free_problem_matches_exact_oracle(self):
        import dirac1d.model as model

        setup = model.ProblemSetup(
            0.0, 2 * np.pi, 0.0, 2.0, zero_potentials(),
            lambda x: np.stack((np.exp(1j * x) / (2 + np.sin(x)), np.cos(2 * x) + 0j)),
        )
        ref = reference_solution(setup, np.pi / 64, 1e-4, [2.0])
        exact = free_dirac_exact(SpinorField(ref.grid, setup.phi0_func(ref.grid.x)), 2.0)
        err = norm(SpinorField(ref.grid, ref.snapshot(2.0).values - exact.values), "l2")
        assert err <= 1e-8

    def test_restriction_by_subsampling(self):
        setup = preset("periodic-s51", 1.0)
        ref = reference_solution(setup, np.pi / 64, 1e-3, [0.5])
        coarse = TorusGrid(0.0, 2 * np.pi, 16)
        r = ref.restricted(0.5, coarse)
        np.testing.assert_array_equal(r.values, ref.snapshot(0.5).values[:, ::8])

    def test_min_space_ratio_enforced(self):
        setup = preset("periodic-s51", 1.0)
        ref = reference_solution(setup, np.pi / 16, 1e-3, [0.5])  # N = 32
        coarse = TorusGrid(0.0, 2 * np.pi, 16)
        with pytest.raises(ConfigurationError, match="finer"):
            ref.restricted(0.5, coarse, min_space_ratio=4.0)
        assert ref.restricted(0.5, coarse, min_space_ratio=2.0).grid.N == 16

    def test_non_nesting_needs_interpolation_flag(self):
        setup = preset("periodic-s51", 1.0)
        ref = reference_solution(setup, np.pi / 64, 1e-3, [0.5])
        odd = TorusGrid(0.0, 2 * np.pi, 24)
        # references are only subsampled: a grid that does not nest is refused
        with pytest.raises(ConfigurationError, match="interpolation"):
            ref.restricted(0.5, odd)

    def test_rejects_misaligned_snapshot_times(self):
        setup = preset("periodic-s51", 1.0)
        with pytest.raises(ConfigurationError, match="multiple"):
            reference_solution(setup, np.pi / 32, 1e-3, [0.0015])

    def test_snapshot_off_a_whole_step_refused_like_the_run(self):
        # 0.5 + 5e-9 is 5e-9 from step 500: a reference may not file the
        # state at 0.5 under it, and a run refuses the same horizon
        setup, late = preset("periodic-s51", 1.0), 0.5 + 5e-9
        with pytest.raises(ConfigurationError) as ref_error:
            reference_solution(setup, np.pi / 32, 1e-3, [late])
        with pytest.raises(ConfigurationError) as run_error:
            run_simulation(setup.discretize(h=np.pi / 32), SchemeConfig("cnfd", 1e-3, t_final=late))
        assert str(ref_error.value) == (
            f"snapshot time {late} is not a nonnegative integer multiple of tau_e=0.001")
        assert str(run_error.value) == (
            f"horizon {late} is not a nonnegative integer multiple of tau=0.001")

    def test_manifest_records_propagation(self):
        setup = preset("periodic-s51", 1.0)
        long = reference_solution(setup, np.pi / 32, 1e-3, [0.0, 2.0])
        short = reference_solution(setup, np.pi / 32, 1e-3, [0.003])
        assert long.manifest["propagation"] == "dense-power"
        assert short.manifest["propagation"] == "stepwise"
        assert reference_solution(setup, np.pi / 32, 1e-3, [0.0]).manifest["propagation"] == "none"

    def test_exact_reference_refuses_time_dependent_potentials(self):
        pots = PotentialPair(lambda t, x: np.cos(t) + 0 * x, lambda t, x: 0 * x,
                             False, 1.0, 0.0)
        setup = dataclasses.replace(preset("periodic-s51", 1.0), potentials=pots, key=None)
        with pytest.raises(ConfigurationError, match="time-independent"):
            reference_solution(setup, np.pi / 32, "exfp", [1.0])
        # eps = 0 switches the potentials off, and the flow serves it
        assert reference_solution(setup.with_epsilon(0.0), np.pi / 32, "exfp", [1.0])

    def test_exact_reference_is_the_free_flow_at_eps_zero(self):
        setup = preset("periodic-s51", 0.0)
        ref = reference_solution(setup, np.pi / 32, "exfp", [0.5, 2.0])
        phi0 = setup.discretize(h=np.pi / 32).phi0
        assert ref.manifest == {
            "kind": "exfp", "propagation": "eigh", "h_e": np.pi / 32, "tau_e": None,
            "N": 64, "epsilon": 0.0, "problem": setup.key, "times": [0.5, 2.0]}
        assert ref.times == [0.5, 2.0]
        for t in ref.times:
            np.testing.assert_allclose(ref.snapshot(t).values,
                                       free_dirac_exact(phi0, t).values, rtol=0, atol=1e-13)
        coarse = TorusGrid(*setup.domain(), 16)
        np.testing.assert_array_equal(ref.restricted(2.0, coarse).values,
                                      ref.snapshot(2.0).values[:, ::4])

    def test_exact_reference_takes_snapshot_times_that_share_no_step(self):
        # 0.5 is no whole multiple of 0.3: each snapshot is the flow at its
        # own time, bit-equal to the reference of that time alone
        setup, h_e = preset("periodic-s51", 0.5), 2 * np.pi / 32
        ref = reference_solution(setup, h_e, "exfp", [0.5, 0.3])
        assert ref.times == [0.3, 0.5] and ref.manifest["propagation"] == "eigh"
        for t in ref.times:
            assert_bitwise_equal(ref.snapshot(t).values,
                                 reference_solution(setup, h_e, "exfp", [t]).snapshot(t).values)
            assert_bitwise_equal(ref.snapshot(t).values,
                                 _flow(setup.discretize(h=h_e), FourierDerivative, t))
        with pytest.raises(ConfigurationError, match="finite"):
            reference_solution(setup, h_e, "exfd", [0.3, -0.5])


ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"


def _oracle():
    """perfbench's independent eigh solver, loaded from its file alone."""
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _l2(u, v, h):
    return float(np.sqrt(h * np.sum(np.abs(u - v) ** 2)))


def _flow(problem, space, t):
    stepper = make_stepper("ex" + space.name, problem, t)
    stepper.propagate(1)
    return stepper.phi.values


class TestSemiDiscreteFlow:
    """Q exp(-i w t) Q^H Phi0 for the steppers' own K: the exfd and exfp
    steppers, which build the exact references."""

    @pytest.mark.parametrize("n_e", [64, 128, 256])
    def test_is_the_free_flow_at_eps_zero(self, n_e):
        problem = preset("periodic-s51", 0.0).discretize(N=n_e)
        want = free_dirac_exact(problem.phi0, 2.0).values
        assert _l2(_flow(problem, FourierDerivative, 2.0), want, problem.grid.h) <= 1e-12

    @pytest.mark.parametrize("space, name", [(CenteredDifference, "fd"),
                                             (FourierDerivative, "fp")])
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_matches_the_independent_oracle(self, space, name, n):
        oracle = _oracle()
        problem = preset("periodic-s51", 0.25).discretize(N=n)
        want = oracle.SemiDiscreteFlow(problem, name).at(8.0)
        assert oracle.l2_distance(_flow(problem, space, 8.0), want, problem.grid.h) <= 1e-12

    def test_tsfp_converges_to_it_at_order_two(self):
        setup, h_e = preset("periodic-s51", 0.25), 2 * np.pi / 128
        exact = reference_solution(setup, h_e, "exfp", [8.0]).snapshot(8.0).values
        errors = [_l2(reference_solution(setup, h_e, tau_e, [8.0]).snapshot(8.0).values,
                      exact, h_e) for tau_e in (0.05, 0.1, 0.2)]
        orders = np.log2(np.array(errors[1:]) / errors[:-1])
        np.testing.assert_allclose(orders, 2.0, atol=0.05)

    def test_refuses_more_than_1024_nodes_before_any_eigh(self, monkeypatch):
        def no_eigh(*args):
            raise AssertionError("eigh started before the guard")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        problem = preset("periodic-s51", 0.25).discretize(N=1026)
        with pytest.raises(ConfigurationError, match="N <= 1024, got N=1026"):
            _flow(problem, FourierDerivative, 8.0)


class TestExactFlowProperties:
    """exfd and exfp over random even N in 8..64, eps and t."""

    @settings(max_examples=25, deadline=None)
    @given(half_n=st.integers(4, 32), eps=st.floats(0.0, 1.0), t=st.floats(0.01, 50.0),
           space=st.sampled_from(["fd", "fp"]))
    def test_unitary_and_reversible(self, half_n, eps, t, space):
        prob = preset("periodic-s51", eps).discretize(N=2 * half_n)
        forward = make_stepper("ex" + space, prob, t)
        forward.propagate(1)
        assert mass(forward.phi) == pytest.approx(mass(prob.phi0), rel=1e-13)
        back = make_stepper("ex" + space, dataclasses.replace(prob, phi0=forward.phi.copy()), -t)
        back.propagate(1)
        np.testing.assert_allclose(back.phi.values, prob.phi0.values, rtol=0, atol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(half_n=st.integers(4, 32), t=st.floats(0.01, 10.0))
    def test_exfp_is_the_free_flow_at_eps_zero(self, half_n, t):
        # the phase rounding grows like t: up to 6e-14 at t <= 10, 2.7e-13 at t = 50
        prob = preset("periodic-s51", 0.0).discretize(N=2 * half_n)
        stepper = make_stepper("exfp", prob, t)
        stepper.propagate(1)
        np.testing.assert_allclose(stepper.phi.values, free_dirac_exact(prob.phi0, t).values,
                                   rtol=0, atol=1e-13)

    @settings(max_examples=15, deadline=None)
    @given(half_n=st.integers(4, 32), eps=st.floats(0.0, 1.0), tau=st.floats(0.01, 1.0),
           n=st.integers(1, 200))
    def test_recorded_run_ends_where_propagate_does(self, half_n, eps, tau, n):
        prob = preset("periodic-s51", eps).discretize(N=2 * half_n)
        res = run_simulation(prob, SchemeConfig("exfp", tau, t_final=n * tau, record="mass"))
        stepper = make_stepper("exfp", prob, tau)
        stepper.propagate(n)
        assert res.n_steps == n and res.propagation in ("stepwise", "dense-step")
        np.testing.assert_allclose(res.final.values, stepper.phi.values, rtol=0,
                                   atol=1e-14 * n + 1e-13)
        np.testing.assert_allclose(res.mass_series, mass(prob.phi0), rtol=1e-12)


class TestCache:
    def _small_ref(self):
        setup = preset("periodic-s51", 1.0)
        return setup, reference_solution(setup, np.pi / 16, 1e-2, [0.1, 0.2])

    def test_roundtrip_is_bit_exact(self, tmp_path):
        setup, ref = self._small_ref()
        path = str(tmp_path / "snap.dref")
        save_reference(path, ref, config_hash="abc")
        back = load_reference(path)
        assert back.grid == ref.grid
        assert back.times == ref.times
        assert back.manifest == dict(ref.manifest, config_hash="abc")
        assert back.manifest["substep_order"] == "potential-first"
        assert back.manifest["tau_e"] == 1e-2 and "propagation" in back.manifest
        for t in ref.times:
            np.testing.assert_array_equal(back.snapshot(t).values, ref.snapshot(t).values)
            assert back.snapshot(t).values.flags.writeable

    def test_dref1_refused_by_name(self, tmp_path):
        for magic in (b"DREF1", b"DREF2"):
            p = tmp_path / "old.dref"
            p.write_bytes(magic + b"\0" * 64)
            with pytest.raises(ConfigurationError, match=r"old\.dref is not a reference cache"):
                load_reference(str(p))

    def test_written_by_one_replace_onto_the_path(self, tmp_path, monkeypatch):
        _, ref = self._small_ref()
        path = str(tmp_path / "snap.dref")
        replaced = []
        real_replace = os.replace

        def record(src, dst):
            replaced.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", record)
        save_reference(path, ref)
        assert replaced == [path]
        assert os.listdir(tmp_path) == ["snap.dref"]

    def test_magic_bytes_checked(self, tmp_path):
        p = tmp_path / "junk.dref"
        p.write_bytes(b"NOTDR" + b"\0" * 64)
        with pytest.raises(ConfigurationError, match=r"junk\.dref is not a reference cache"):
            load_reference(str(p))

    @pytest.mark.parametrize("size", [0, 3, 30, -1])
    def test_truncated_file_refused_by_name(self, tmp_path, size):
        _, ref = self._small_ref()
        path = tmp_path / "cut.dref"
        save_reference(str(path), ref)
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ConfigurationError, match=r"cut\.dref is not a reference cache"):
            load_reference(str(path))

    def test_missing_member_refused_by_name(self, tmp_path):
        path = tmp_path / "partial.dref"
        with open(path, "wb") as fh:
            np.savez(fh, snapshots=np.zeros((1, 2, 8), dtype=complex))
        with pytest.raises(ConfigurationError, match=r"partial\.dref is not a reference cache"):
            load_reference(str(path))

    def test_key_is_stable_and_discriminating(self):
        setup = preset("periodic-s51", 1.0)
        k1 = reference_cache_key(setup, 0.1, 1e-3, [2.0])
        k2 = reference_cache_key(setup, 0.1, 1e-3, [2.0])
        assert k1 == k2 and len(k1) == 64
        assert k1 != reference_cache_key(setup, 0.1, 1e-3, [4.0])
        assert k1 != reference_cache_key(setup.with_epsilon(0.5), 0.1, 1e-3, [2.0])

    def test_tsfp_key_is_pinned(self, monkeypatch):
        # the digest of the npz format and the sigma1-basis TSFP loop; a file
        # of the earlier loop (b09b9ef9...) or of DREF2 is never found under it
        setup = preset("periodic-s51", 1.0)
        pinned = "65984e72069b2ba65f25aa15f5bf78d76fc481757ac1fed69622712e369f195e"
        assert reference_cache_key(setup, 0.1, 1e-3, [2.0]) == pinned
        # exfp keeps the digest of the former "exact" kind, and exfd its own,
        # so warm caches of the exact flows still hit
        exact = "a9cca81028e9980a3af3aa11b938beb37ad1e11232a8a768f8604effb6d767a8"
        assert reference_cache_key(setup.with_epsilon(0.0), 0.1, "exfp", [2.0]) == exact
        exfd = "ba597e0c1c52fe5892aeb061a5f61f20202d50e1afa50fec7b782a85be3ccdbf"
        assert reference_cache_key(setup.with_epsilon(0.0), 0.1, "exfd", [2.0]) == exfd
        monkeypatch.setattr(reference, "FORMAT", "DREF2")
        dref2 = "4cacc3bdcd436afbfb9f4a1b77a99f258a68d8695a7200ed61cf46c5b492bb4c"
        assert reference_cache_key(setup, 0.1, 1e-3, [2.0]) == dref2

    def test_key_names_the_kind(self):
        # the scheme follows from tau_e: a step is TSFP, a name is that exact flow
        setup = preset("periodic-s51", 0.0)
        keys = {reference_cache_key(setup, 0.1, tau_e, [2.0]) for tau_e in ("exfp", "exfd", 1e-3)}
        assert len(keys) == 3 and all(len(key) == 64 for key in keys)
        for tau_e, kind in (("exfp", "exfp"), ("exfd", "exfd"), (1e-3, "tsfp")):
            assert reference_solution(setup, 0.1 * np.pi, tau_e, [2.0]).manifest["kind"] == kind

    def test_key_names_the_file_format(self, monkeypatch):
        setup = preset("periodic-s51", 1.0)
        k2 = reference_cache_key(setup, 0.1, 1e-3, [2.0])
        monkeypatch.setattr(reference, "FORMAT", "npz9")
        assert reference_cache_key(setup, 0.1, 1e-3, [2.0]) != k2

    def test_key_requires_description(self):
        grid_free = free_problem(TorusGrid(0.0, 2 * np.pi, 16),
                                 lambda x: np.zeros((2, len(x)), dtype=complex))
        import dirac1d.model as model

        anonymous = model.ProblemSetup(0.0, 2 * np.pi, 0.5, 2.0, grid_free.potentials,
                                       lambda x: np.zeros((2, len(x)), dtype=complex))
        with pytest.raises(ConfigurationError, match="key"):
            reference_cache_key(anonymous, 0.1, 1e-3, [2.0])

    def test_one_file_with_the_umask_mode(self, tmp_path):
        setup = preset("periodic-s51", 1.0)
        umask = os.umask(0o027)
        try:
            ReferenceCache(str(tmp_path)).fetch(setup, np.pi / 16, 1e-2, [0.1])
        finally:
            os.umask(umask)
        name = reference_cache_key(setup, np.pi / 16, 1e-2, [0.1]) + ".dref"
        assert os.listdir(tmp_path) == [name]
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o640

    def test_fetch_uses_disk_on_second_call(self, tmp_path):
        setup = preset("periodic-s51", 1.0)
        cache = ReferenceCache(str(tmp_path))
        r1 = cache.fetch(setup, np.pi / 16, 1e-2, [0.1])
        key = reference_cache_key(setup, np.pi / 16, 1e-2, [0.1])
        assert (tmp_path / (key + ".dref")).exists()
        r2 = cache.fetch(setup, np.pi / 16, 1e-2, [0.1])
        np.testing.assert_array_equal(r2.snapshot(0.1).values, r1.snapshot(0.1).values)

    def test_exact_reference_cached_bit_identical(self, tmp_path, monkeypatch):
        setup, cache = preset("periodic-s51", 0.25), ReferenceCache(str(tmp_path))
        key = reference_cache_key(setup, np.pi / 32, "exfp", [4.0, 8.0])
        built = reference_solution(setup, np.pi / 32, "exfp", [4.0, 8.0])
        first = cache.fetch(setup, np.pi / 32, "exfp", [4.0, 8.0])
        assert os.listdir(tmp_path) == [key + ".dref"]

        def no_build(*args):
            raise AssertionError("a cached reference was built again")

        monkeypatch.setattr(reference, "reference_solution", no_build)
        again = cache.fetch(setup, np.pi / 32, "exfp", [4.0, 8.0])
        assert again.manifest == first.manifest == dict(built.manifest, config_hash=key)
        for t in (4.0, 8.0):
            assert_bitwise_equal(first.snapshot(t).values, built.snapshot(t).values)
            assert_bitwise_equal(again.snapshot(t).values, first.snapshot(t).values)


def test_one_module_decides_a_reference():
    # the harness asks for a reference through ReferenceConfig alone: the
    # kinds of exact flow and the restriction rule are named in reference.py
    source = Path(reference.__file__).resolve().parent
    imported = {alias.name
                for node in ast.walk(ast.parse((source / "harness.py").read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "reference"
                for alias in node.names}
    assert imported == {"ReferenceConfig", "ReferenceSolution", "reference_solution"}
    for path in sorted(source.glob("*.py")):
        if path.name == "reference.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        assert not names & {"EXACT_FLOWS", "check_restriction"}, path.name
    assert harness.ReferenceConfig is reference.ReferenceConfig
