"""Closed-form step-size bounds and the run validator."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from dirac1d import (
    ALL_SCHEMES,
    UNBOUNDED,
    ConfigurationError,
    SchemeConfig,
    StabilityError,
    make_stepper,
    preset,
    run_simulation,
    tau_max,
    validate,
)
from dirac1d.cli import main
from dirac1d.schemes import SCHEMES


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
        with pytest.raises(ConfigurationError, match="unknown scheme 'rk4'"):
            tau_max("rk4", 0.1, 0.0, 0.0)

    @pytest.mark.parametrize("call, message", [
        (lambda: validate("cnfd", 0.1, math.inf, 0.0, 0.0), "tau must be finite, got inf"),
        (lambda: validate("tsfp", 0.1, math.nan, 0.0, 0.0), "tau must be finite, got nan"),
        (lambda: validate("lffd", math.inf, 0.01, 0.0, 0.0), "h must be positive and finite"),
        (lambda: tau_max("sifd1", math.nan, 0.0, 0.0), "h must be positive and finite, got nan"),
        (lambda: tau_max("lffd", 0.1, math.nan, 0.0), "potential bounds must be nonnegative"),
        (lambda: tau_max("sifp2", 0.1, 1.0, math.nan), "potential bounds must be nonnegative"),
    ], ids=["cn-tau-inf", "tsfp-tau-nan", "lf-h-inf", "si1-h-nan", "lf-v-nan", "si2-a-nan"])
    def test_non_finite_h_or_tau_refused(self, call, message):
        with pytest.raises(ConfigurationError, match=message):
            call()

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
            assert all(x >= y - 1e-15 for x, y in zip(bounds, bounds[1:]))
        for v in grid_vals:
            bounds = [tau_max(scheme, h, v, a) for a in grid_vals]
            assert all(x >= y - 1e-15 for x, y in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("scheme, v, a", [("cnfd", 5.0, 7.0), ("cnfp", 5.0, 7.0),
                                              ("sifd2", 0.0, 0.0), ("sifp2", 0.0, 0.0),
                                              ("tsfp", 5.0, 7.0)])
    def test_unbounded_is_infinite_with_margin_zero(self, scheme, v, a):
        assert tau_max(scheme, 0.1, v, a) == math.inf
        verdict = validate(scheme, 0.1, -1e6, v, a)
        assert verdict.ok and verdict.margin == 0.0
        assert "tau_max=unbounded " in str(verdict)


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


class TestPinned:
    """The bounds as written out per scheme, and the `dirac1d stability`
    table, which must not move when the code that produces them does."""

    @pytest.mark.parametrize("h, v, a", [(0.125, 0.0, 0.0), (0.2, 0.0, 2.0),
                                         (np.pi / 8, 1.0, 1.7601725930461),
                                         (0.07, 0.5, 4.0), (1e-3, 3.0, 0.25)])
    def test_tau_max_is_the_closed_form(self, h, v, a):
        si2 = UNBOUNDED if v + a == 0 else 1.0 / (v + a)
        want = {
            "cnfd": UNBOUNDED,
            "sifd1": h,
            "sifd2": si2,
            "lffd": h / (v * h + math.sqrt(h * h + (1.0 + h * a) ** 2)),
            "cnfp": UNBOUNDED,
            "sifp1": h / math.pi,
            "sifp2": si2,
            "lffp": h / (v * h + math.sqrt(h * h + (math.pi + h * a) ** 2)),
            "tsfp": UNBOUNDED,
            "exfd": UNBOUNDED,
            "exfp": UNBOUNDED,
        }
        assert ALL_SCHEMES == tuple(want)
        assert {s: tau_max(s, h, v, a) for s in ALL_SCHEMES} == want

    def test_every_bounded_scheme_builds_a_stepper(self):
        prob = preset("periodic-s51", 1.0).discretize(N=16)
        assert [make_stepper(s, prob, 0.01).scheme for s in ALL_SCHEMES] == list(ALL_SCHEMES)

    def test_every_stepper_holds_its_registry_space_operator(self):
        prob = preset("periodic-s51", 1.0).discretize(N=16)
        assert len(SCHEMES) == 11
        for name, (_, space) in SCHEMES.items():
            stepper = make_stepper(name, prob, 0.01)
            assert isinstance(stepper.space, space) and stepper.space.grid == prob.grid

    def test_tsfp_builds_a_stepper_and_is_unbounded(self):
        prob = preset("periodic-s51", 1.0).discretize(N=16)
        assert make_stepper("tsfp", prob, 0.01).scheme == "tsfp"
        assert tau_max("tsfp", 0.1, 5.0, 7.0) is UNBOUNDED

    SI1 = {"problem": "periodic-s51", "epsilon": 1.0, "scheme": "sifd1", "N": 16, "tau": 0.35}
    DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
    TABLES = {
        "si1": """\
cnfd   h=0.392699   tau=0.35       tau_max=unbounded  margin=0        ok
sifd1  h=0.392699   tau=0.35       tau_max=0.392699   margin=0.891    ok <-- requested
sifd2  h=0.392699   tau=0.35       tau_max=0.362296   margin=0.966    ok
lffd   h=0.392699   tau=0.35       tau_max=0.18446    margin=1.9      VIOLATED
cnfp   h=0.392699   tau=0.35       tau_max=unbounded  margin=0        ok
sifp1  h=0.392699   tau=0.35       tau_max=0.125      margin=2.8      VIOLATED
sifp2  h=0.392699   tau=0.35       tau_max=0.362296   margin=0.966    ok
lffp   h=0.392699   tau=0.35       tau_max=0.0924961  margin=3.78     VIOLATED
tsfp   h=0.392699   tau=0.35       tau_max=unbounded  margin=0        ok
exfd   h=0.392699   tau=0.35       tau_max=unbounded  margin=0        ok
exfp   h=0.392699   tau=0.35       tau_max=unbounded  margin=0        ok
""",
        "inline_problem": """\
cnfd   h=0.19635    tau=0.005      tau_max=unbounded  margin=0        ok
sifd1  h=0.19635    tau=0.005      tau_max=0.19635    margin=0.0255   ok
sifd2  h=0.19635    tau=0.005      tau_max=0.724585   margin=0.0069   ok
lffd   h=0.19635    tau=0.005      tau_max=0.152528   margin=0.0328   ok
cnfp   h=0.19635    tau=0.005      tau_max=unbounded  margin=0        ok
sifp1  h=0.19635    tau=0.005      tau_max=0.0625     margin=0.08     ok
sifp2  h=0.19635    tau=0.005      tau_max=0.724585   margin=0.0069   ok
lffp   h=0.19635    tau=0.005      tau_max=0.0574393  margin=0.087    ok <-- requested
tsfp   h=0.19635    tau=0.005      tau_max=unbounded  margin=0        ok
exfd   h=0.19635    tau=0.005      tau_max=unbounded  margin=0        ok
exfp   h=0.19635    tau=0.005      tau_max=unbounded  margin=0        ok
""",
        "torus_run": """\
cnfd   h=0.0981748  tau=0.01       tau_max=unbounded  margin=0        ok
sifd1  h=0.0981748  tau=0.01       tau_max=0.0981748  margin=0.102    ok
sifd2  h=0.0981748  tau=0.01       tau_max=1.44918    margin=0.0069   ok
lffd   h=0.0981748  tau=0.01       tau_max=0.0915507  margin=0.109    ok
cnfp   h=0.0981748  tau=0.01       tau_max=unbounded  margin=0        ok <-- requested
sifp1  h=0.0981748  tau=0.01       tau_max=0.03125    margin=0.32     ok
sifp2  h=0.0981748  tau=0.01       tau_max=1.44918    margin=0.0069   ok
lffp   h=0.0981748  tau=0.01       tau_max=0.0305759  margin=0.327    ok
tsfp   h=0.0981748  tau=0.01       tau_max=unbounded  margin=0        ok
exfd   h=0.0981748  tau=0.01       tau_max=unbounded  margin=0        ok
exfp   h=0.0981748  tau=0.01       tau_max=unbounded  margin=0        ok
""",
        "refinement_table": None,  # no tau: exit 2, no table
        "time_error_cnfd": None,
    }

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_stability_table_is_pinned(self, tmp_path, name):
        if name == "si1":
            config = tmp_path / "si1.json"
            config.write_text(json.dumps(self.SI1))
        else:
            config = self.DEMO_CONFIGS / f"{name}.json"
        out = tmp_path / "verdicts.txt"
        want = self.TABLES[name]
        assert main(["stability", str(config), "--out", str(out)]) == (2 if want is None else 0)
        assert (out.read_text() if out.exists() else None) == want

    def test_every_demo_config_is_pinned(self):
        assert {p.stem for p in self.DEMO_CONFIGS.glob("*.json")} <= set(self.TABLES)
