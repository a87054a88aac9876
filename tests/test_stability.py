"""Closed-form step-size bounds and the run validator."""

import json
import math

import numpy as np
import pytest

from dirac1d import (
    ALL_SCHEMES,
    UNBOUNDED,
    ConfigurationError,
    SchemeConfig,
    StabilityError,
    preset,
    run_simulation,
    tau_max,
    validate,
)
from dirac1d.cli import main
from dirac1d.stability import Unbounded


class TestTauMax:
    @pytest.mark.parametrize("scheme", ["cnfd", "cnfp"])
    def test_crank_nicolson_unconditional(self, scheme):
        assert tau_max(scheme, 0.01, 5.0, 7.0) is UNBOUNDED

    def test_sifd1_is_mesh_size(self):
        assert tau_max("sifd1", 0.125, 3.0, 9.0) == 0.125

    def test_sifp1_is_mesh_over_pi(self):
        assert tau_max("sifp1", np.pi / 64, 1.0, 2.0) == pytest.approx(1 / 64)

    @pytest.mark.parametrize("scheme", ["sifd2", "sifp2"])
    def test_semi_implicit_2_depends_only_on_potentials(self, scheme):
        assert tau_max(scheme, 0.3, 1.0, 2.0) == pytest.approx(1 / 3)
        assert tau_max(scheme, 0.001, 1.0, 2.0) == pytest.approx(1 / 3)
        assert tau_max(scheme, 0.3, 0.0, 0.0) is UNBOUNDED

    def test_lffd_free_case(self):
        h = 0.2
        assert tau_max("lffd", h, 0.0, 0.0) == pytest.approx(h / math.sqrt(h * h + 1.0))

    def test_lffd_with_potentials(self):
        h, v, a = 0.1, 1.5, 2.0
        expected = h / (v * h + math.sqrt(h * h + (1 + h * a) ** 2))
        assert tau_max("lffd", h, v, a) == pytest.approx(expected)

    def test_lffp_free_case(self):
        h = 0.2
        assert tau_max("lffp", h, 0.0, 0.0) == pytest.approx(h / math.sqrt(h * h + np.pi ** 2))

    def test_lffp_with_potentials(self):
        h, v, a = 0.1, 1.5, 2.0
        expected = h / (v * h + math.sqrt(h * h + (np.pi + h * a) ** 2))
        assert tau_max("lffp", h, v, a) == pytest.approx(expected)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            tau_max("tsfp", 0.1, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            tau_max("rk4", 0.1, 0.0, 0.0)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            tau_max("lffd", 0.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            tau_max("lffd", 0.1, -1.0, 0.0)

    @pytest.mark.parametrize("scheme", ["sifd2", "sifp2", "lffd", "lffp"])
    def test_monotone_in_potential_bounds(self, scheme):
        h = 0.07
        grid_vals = [0.0, 0.5, 1.0, 2.0, 4.0]
        for a in grid_vals:
            bounds = [tau_max(scheme, h, v, a) for v in grid_vals]
            bounds = [b if not isinstance(b, Unbounded) else math.inf for b in bounds]
            assert all(x >= y - 1e-15 for x, y in zip(bounds, bounds[1:]))
        for v in grid_vals:
            bounds = [tau_max(scheme, h, v, a) for a in grid_vals]
            bounds = [b if not isinstance(b, Unbounded) else math.inf for b in bounds]
            assert all(x >= y - 1e-15 for x, y in zip(bounds, bounds[1:]))

    def test_unbounded_is_not_a_float(self):
        assert not isinstance(tau_max("cnfd", 0.1, 1.0, 1.0), float)
        assert repr(UNBOUNDED) == "unbounded"


class TestValidate:
    def test_safe_margin(self):
        h = np.pi / 32
        bound = tau_max("lffd", h, 0.0, 0.0)
        v = validate("lffd", h, 0.5 * bound, 0.0, 0.0)
        assert v.ok and v.margin == pytest.approx(0.5)

    def test_violation_detected(self):
        h = np.pi / 32
        bound = tau_max("lffd", h, 0.0, 0.0)
        v = validate("lffd", h, 2.0 * bound, 0.0, 0.0)
        assert not v.ok and v.margin == pytest.approx(2.0)

    def test_unconditional_scheme_margin_zero(self):
        v = validate("cnfd", 0.01, 1e6, 3.0, 2.0)
        assert v.ok and v.margin == 0.0 and v.tau_max is UNBOUNDED

    def test_reversed_time_uses_magnitude(self):
        h = np.pi / 32
        bound = tau_max("lffp", h, 0.0, 0.0)
        assert validate("lffp", h, -0.5 * bound, 0.0, 0.0).ok
        assert not validate("lffp", h, -2.0 * bound, 0.0, 0.0).ok

    def test_verdict_prints_scheme_table_row(self):
        text = str(validate("sifd1", 0.1, 0.05, 1.0, 1.0))
        assert "sifd1" in text and "ok" in text

    def test_all_schemes_validate(self):
        for scheme in ALL_SCHEMES:
            v = validate(scheme, 0.1, 1e-4, 1.0, 2.0)
            assert v.ok, scheme

    def test_declared_bounds_of_a_preset(self):
        pots = preset("periodic-s51", 1.0).potentials
        # 0.5 > 1/(V_max + A_max) ~ 0.362
        assert not validate("sifd2", 0.1, 0.5, pots.v_max, pots.a_max).ok
        assert validate("sifd2", 0.1, 0.3, pots.v_max, pots.a_max).ok

    def test_lffd_verdict_follows_h(self):
        assert validate("lffd", 0.1, 0.2, 0.0, 0.0).ok is False
        assert validate("lffd", 0.5, 0.2, 0.0, 0.0).ok is True


class TestEpsScaledBounds:
    """Runs are judged by the potentials the operator sees, eps*V and eps*A1:
    at eps = 0 LFFD on periodic-s51 (N = 32) keeps the free bound
    h/sqrt(h^2 + 1) = 0.193, not the eps = 1 bound 0.126."""

    def problem(self):
        return preset("periodic-s51", 0.0).discretize(N=32)

    def taus(self, prob):
        pots, h = prob.potentials, prob.grid.h
        return (1.01 * tau_max("lffd", h, pots.v_max, pots.a_max),
                1.01 * tau_max("lffd", h, 0.0, 0.0))

    def test_run_past_the_unscaled_bound_stays_bounded(self):
        prob = self.problem()
        tau, _ = self.taus(prob)
        res = run_simulation(prob, SchemeConfig("lffd", tau, t_final=2000 * tau))
        assert not res.blew_up and res.max_norm_ratio <= 1.5

    def test_free_bound_still_refused(self):
        prob = self.problem()
        _, tau = self.taus(prob)
        with pytest.raises(StabilityError):
            run_simulation(prob, SchemeConfig("lffd", tau, t_final=2000 * tau))

    def test_cli_stability_verdicts(self, tmp_path):
        for tau, code in zip(self.taus(self.problem()), (0, 3)):
            path = tmp_path / "stability.json"
            path.write_text(json.dumps({"problem": "periodic-s51", "epsilon": 0.0,
                                        "N": 32, "tau": tau, "scheme": "lffd"}))
            out = tmp_path / "verdicts.txt"
            assert main(["stability", str(path), "--out", str(out)]) == code
