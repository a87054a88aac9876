"""Exact free flow, TSFP splitting, reference snapshots and the disk cache."""

import json
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dirac1d.reference as reference
from dirac1d import (
    ConfigurationError,
    DiracProblem,
    PotentialPair,
    ReferenceCache,
    SpinorField,
    StepperState,
    field_from_function,
    free_dirac_exact,
    load_reference,
    make_grid,
    make_stepper,
    mass,
    norm,
    preset,
    reference_cache_key,
    reference_solution,
    save_reference,
    zero_potentials,
)
from dirac1d.reference import TSFPStepper, dense_power_pays, exact_free_reference

from test_fdtd import free_problem

RNG = np.random.default_rng(23)


def random_field(grid, rng=RNG):
    v = rng.standard_normal((2, grid.N)) + 1j * rng.standard_normal((2, grid.N))
    return SpinorField(grid, v)


class TestFreeExact:
    def test_mode_zero_rotates_by_mass_phases(self):
        g = make_grid(0.0, 2 * np.pi, 16)
        f = SpinorField(g, np.stack((np.full(16, 0.7 + 0.1j), np.full(16, -0.2 + 0.4j))))
        t = 0.83
        out = free_dirac_exact(f, t)
        np.testing.assert_allclose(out.values[0], np.exp(-1j * t) * f.values[0], atol=1e-14)
        np.testing.assert_allclose(out.values[1], np.exp(+1j * t) * f.values[1], atol=1e-14)

    def test_single_mode_matches_matrix_exponential(self):
        # dense eigendecomposition oracle for exp(-i t (mu*sigma1 + sigma3))
        g = make_grid(0.0, 2 * np.pi, 16)
        u = np.array([0.3 - 0.5j, 0.8 + 0.2j])
        f = field_from_function(g, lambda x: np.outer(u, np.exp(1j * x)))
        t = 1.37
        gamma = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)  # mu = 1
        w, V = np.linalg.eigh(gamma)
        expm = (V * np.exp(-1j * t * w)) @ V.conj().T
        out = free_dirac_exact(f, t)
        np.testing.assert_allclose(out.values, np.outer(expm @ u, np.exp(1j * g.x)),
                                   atol=1e-13)

    def test_unitary_on_random_data(self):
        g = make_grid(0.0, 2 * np.pi, 32)
        f = random_field(g)
        for t in (0.1, 2.7, 40.0):
            assert norm(free_dirac_exact(f, t), "l2") == pytest.approx(
                norm(f, "l2"), rel=1e-13)

    def test_composition(self):
        g = make_grid(0.0, 2 * np.pi, 32)
        f = random_field(g)
        once = free_dirac_exact(f, 0.7 + 1.9)
        twice = free_dirac_exact(free_dirac_exact(f, 0.7), 1.9)
        assert norm(SpinorField(g, once.values - twice.values), "l2") <= \
            1e-12 * norm(f, "l2")

    def test_negative_time_inverts(self):
        g = make_grid(0.0, 2 * np.pi, 32)
        f = random_field(g)
        back = free_dirac_exact(free_dirac_exact(f, 1.3), -1.3)
        np.testing.assert_allclose(back.values, f.values, atol=1e-13)


class TestTSFP:
    def test_free_case_degenerates_to_exact(self):
        grid = make_grid(0.0, 2 * np.pi, 32)
        prob = free_problem(grid, lambda x: np.stack((np.exp(1j * x) / (2 + np.sin(x)),
                                                      np.cos(x) + 0j)))
        st = make_stepper("tsfp", prob, 0.05)
        st.advance()
        want = free_dirac_exact(prob.phi0, 0.05)
        np.testing.assert_allclose(st._curr, want.values, atol=1e-13)

    def test_constant_electric_potential_is_global_phase(self):
        # with V = c, A1 = 0 the potential flow commutes with the free flow
        grid = make_grid(0.0, 2 * np.pi, 32)
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
        a = TSFPStepper(prob, 1e-3, state=StepperState(phi0))
        b = TSFPStepper(prob, 1e-3, state=StepperState(phi0))
        a.propagate(n)
        for _ in range(n):
            b.advance()
        dense = n > 1 and dense_power_pays(N, n)
        assert a.propagation == {"dense-power" if dense else "stepwise"}
        assert (a.n, a.t) == (b.n, pytest.approx(b.t))
        dist = norm(SpinorField(prob.grid, a._curr - b._curr), "l2")
        assert dist <= 1e-15 * n * norm(phi0, "l2") + 1e-13

    def test_dense_power_matches_loop_on_long_run(self, monkeypatch):
        prob = preset("periodic-s51", 0.25).discretize(N=64)
        n = 20_000
        assert dense_power_pays(64, n)
        dense = TSFPStepper(prob, 1e-4)
        dense.propagate(n)
        monkeypatch.setattr(reference, "dense_power_pays", lambda n_nodes, n_steps: False)
        loop = TSFPStepper(prob, 1e-4)
        loop.propagate(n)
        assert dense.propagation == {"dense-power"} and loop.propagation == {"stepwise"}
        dist = norm(SpinorField(prob.grid, dense._curr - loop._curr), "l2")
        assert dist <= 1e-15 * n * norm(prob.phi0, "l2")

    def test_successive_propagations_compose(self):
        prob = preset("periodic-s51", 0.25).discretize(N=64)
        split = TSFPStepper(prob, 1e-4)
        split.propagate(3_000)
        split.propagate(5_000)
        whole = TSFPStepper(prob, 1e-4)
        whole.propagate(8_000)
        assert split.propagation == whole.propagation == {"dense-power"}
        assert split.n == whole.n == 8_000
        dist = norm(SpinorField(prob.grid, split._curr - whole._curr), "l2")
        assert dist <= 1e-15 * 8_000 * norm(prob.phi0, "l2")

    def test_time_dependent_potential_keeps_the_loop(self):
        grid = make_grid(0.0, 2 * np.pi, 16)
        pots = PotentialPair(lambda t, x: np.cos(t) / (1 + np.sin(x) ** 2),
                             lambda t, x: np.sin(2 * t) * np.cos(x), False, 1.0, 1.0)
        prob = DiracProblem(grid, 1.0, pots, random_field(grid), T0=2.0)
        a = TSFPStepper(prob, 1e-3)
        b = TSFPStepper(prob, 1e-3)
        a.propagate(2_000)
        for _ in range(2_000):
            b.advance()
        assert a.propagation == {"stepwise"}
        np.testing.assert_array_equal(a._curr, b._curr)

    def test_single_step_function(self):
        prob = preset("periodic-s51", 1.0).discretize(N=32)
        from_state = make_stepper("tsfp", prob, 0.05, state=StepperState(prob.phi0))
        from_state.advance()
        out = from_state.phi
        st = make_stepper("tsfp", prob, 0.05)
        st.advance()
        np.testing.assert_allclose(out.values, st._curr, atol=1e-15)


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
        exact = free_dirac_exact(
            field_from_function(ref.grid, setup.phi0_func), 2.0)
        err = norm(SpinorField(ref.grid, ref.snapshot(2.0).values - exact.values), "l2")
        assert err <= 1e-8

    def test_restriction_by_subsampling(self):
        setup = preset("periodic-s51", 1.0)
        ref = reference_solution(setup, np.pi / 64, 1e-3, [0.5])
        coarse = make_grid(0.0, 2 * np.pi, 16)
        r = ref.restricted(0.5, coarse)
        np.testing.assert_array_equal(r.values, ref.snapshot(0.5).values[:, ::8])

    def test_min_space_ratio_enforced(self):
        setup = preset("periodic-s51", 1.0)
        ref = reference_solution(setup, np.pi / 16, 1e-3, [0.5])  # N = 32
        coarse = make_grid(0.0, 2 * np.pi, 16)
        with pytest.raises(ConfigurationError, match="finer"):
            ref.restricted(0.5, coarse, min_space_ratio=4.0)
        assert ref.restricted(0.5, coarse, min_space_ratio=2.0).grid.N == 16

    def test_non_nesting_needs_interpolation_flag(self):
        setup = preset("periodic-s51", 1.0)
        ref = reference_solution(setup, np.pi / 64, 1e-3, [0.5])
        odd = make_grid(0.0, 2 * np.pi, 24)
        with pytest.raises(ConfigurationError, match="interpolation"):
            ref.restricted(0.5, odd)
        r = ref.restricted(0.5, odd, allow_interpolation=True)
        assert r.grid.N == 24

    def test_rejects_misaligned_snapshot_times(self):
        setup = preset("periodic-s51", 1.0)
        with pytest.raises(ConfigurationError, match="multiple"):
            reference_solution(setup, np.pi / 32, 1e-3, [0.0015])

    def test_manifest_records_propagation(self):
        setup = preset("periodic-s51", 1.0)
        long = reference_solution(setup, np.pi / 32, 1e-3, [0.0, 2.0])
        short = reference_solution(setup, np.pi / 32, 1e-3, [0.003])
        assert long.manifest["propagation"] == "dense-power"
        assert short.manifest["propagation"] == "stepwise"
        assert reference_solution(setup, np.pi / 32, 1e-3, [0.0]).manifest["propagation"] == "none"

    def test_exact_free_reference_requires_free_problem(self):
        with pytest.raises(ConfigurationError, match="free"):
            exact_free_reference(preset("periodic-s51", 1.0), np.pi / 32, [1.0])

    def test_exact_free_reference_is_snapshots_of_the_free_flow(self):
        setup = preset("periodic-s51", 0.0)
        ref = exact_free_reference(setup, np.pi / 32, [0.5, 2.0])
        phi0 = setup.discretize(h=np.pi / 32).phi0
        assert ref.manifest == {"kind": "exact-free", "N": 64}
        assert ref.times == [0.5, 2.0]
        for t in ref.times:
            np.testing.assert_array_equal(ref.snapshot(t).values,
                                          free_dirac_exact(phi0, t).values)
        coarse = setup.grid_with_nodes(16)
        np.testing.assert_array_equal(ref.restricted(2.0, coarse).values,
                                      ref.snapshot(2.0).values[:, ::4])


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
        assert back.manifest["config_hash"] == "abc"
        assert back.manifest["substep_order"] == "potential-first"
        for t in ref.times:
            np.testing.assert_array_equal(back.snapshot(t).values, ref.snapshot(t).values)

    def test_dref1_refused_by_name(self, tmp_path):
        p = tmp_path / "old.dref"
        p.write_bytes(b"DREF1" + b"\0" * 64)
        with pytest.raises(ConfigurationError, match=r"old\.dref is a DREF1"):
            load_reference(str(p))

    def test_manifest_written_before_binary(self, tmp_path, monkeypatch):
        _, ref = self._small_ref()
        path = str(tmp_path / "snap.dref")
        replaced = []
        real_replace = os.replace

        def record(src, dst):
            replaced.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", record)
        save_reference(path, ref)
        assert replaced == [path + ".json", path]
        with open(path + ".json") as fh:
            assert json.load(fh)["tau_e"] == ref.tau_e

    def test_magic_bytes_checked(self, tmp_path):
        p = tmp_path / "junk.dref"
        p.write_bytes(b"NOTDR" + b"\0" * 64)
        with pytest.raises(ConfigurationError, match="reference cache"):
            load_reference(str(p))

    def test_key_is_stable_and_discriminating(self):
        setup = preset("periodic-s51", 1.0)
        k1 = reference_cache_key(setup, 0.1, 1e-3, [2.0])
        k2 = reference_cache_key(setup, 0.1, 1e-3, [2.0])
        assert k1 == k2 and len(k1) == 64
        assert k1 != reference_cache_key(setup, 0.1, 1e-3, [4.0])
        assert k1 != reference_cache_key(setup.with_epsilon(0.5), 0.1, 1e-3, [2.0])

    def test_key_names_the_file_format(self, monkeypatch):
        setup = preset("periodic-s51", 1.0)
        k2 = reference_cache_key(setup, 0.1, 1e-3, [2.0])
        monkeypatch.setattr(reference, "MAGIC", b"DREF9")
        assert reference_cache_key(setup, 0.1, 1e-3, [2.0]) != k2

    def test_key_requires_description(self):
        grid_free = free_problem(make_grid(0.0, 2 * np.pi, 16),
                                 lambda x: np.zeros((2, len(x)), dtype=complex))
        import dirac1d.model as model

        anonymous = model.ProblemSetup(0.0, 2 * np.pi, 0.5, 2.0, grid_free.potentials,
                                       lambda x: np.zeros((2, len(x)), dtype=complex))
        with pytest.raises(ConfigurationError, match="key"):
            reference_cache_key(anonymous, 0.1, 1e-3, [2.0])

    def test_binary_gets_the_manifest_file_mode(self, tmp_path):
        setup = preset("periodic-s51", 1.0)
        ReferenceCache(str(tmp_path)).fetch(setup, np.pi / 16, 1e-2, [0.1])
        path = str(tmp_path / (reference_cache_key(setup, np.pi / 16, 1e-2, [0.1]) + ".dref"))
        assert stat.S_IMODE(os.stat(path).st_mode) == stat.S_IMODE(os.stat(path + ".json").st_mode)
        assert sorted(os.listdir(tmp_path)) == sorted([os.path.basename(path),
                                                       os.path.basename(path) + ".json"])

    def test_fetch_uses_disk_on_second_call(self, tmp_path):
        setup = preset("periodic-s51", 1.0)
        cache = ReferenceCache(str(tmp_path))
        r1 = cache.fetch(setup, np.pi / 16, 1e-2, [0.1])
        key = reference_cache_key(setup, np.pi / 16, 1e-2, [0.1])
        assert (tmp_path / (key + ".dref")).exists()
        r2 = cache.fetch(setup, np.pi / 16, 1e-2, [0.1])
        np.testing.assert_array_equal(r2.snapshot(0.1).values, r1.snapshot(0.1).values)
