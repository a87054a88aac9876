"""Command-line interface: subcommands, config parsing, exit codes."""

import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

import dirac1d.harness as harness
import dirac1d.reference as reference
from dirac1d import ReferenceConfig, emit_csv, epsilon_sweep_temporal, preset
from dirac1d.cli import _build_parser, _InitialData, main
from dirac1d.grid import MAX_NODES


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


INLINE_FREE = {
    "domain": [0.0, 6.283185307179586],
    "T0": 1.0,
    "potentials": {"V": "0", "A1": "0", "time_independent": True,
                   "V_max": 0.0, "A_max": 0.0},
    "phi0": [{"re": "cos(x)", "im": "sin(x)"}, "0.5*cos(2*x)"],
}


class TestRun:
    def test_preset_run_emits_observables(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": "periodic-s51", "epsilon": 1.0,
            "scheme": "cnfd", "N": 32, "tau": 0.05, "t_final": 0.5,
        })
        out = tmp_path / "series.csv"
        assert main(["run", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,mass,energy"
        assert len(lines) == 12  # header + 11 recorded steps
        err = capsys.readouterr().err
        assert "relative drift" in err

    def test_tsfp_run_conserves_mass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(RUN, scheme="tsfp", tau=0.5, t_final=50.0))
        out = tmp_path / "series.csv"
        assert main(["run", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,mass,energy" and len(lines) == 102
        masses = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(masses) - min(masses) <= 1e-12 * masses[0]
        assert "scheme=tsfp N=16 tau=0.5 steps=100" in capsys.readouterr().err

    def test_inline_problem_with_expressions(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": INLINE_FREE, "epsilon": 0.5,
            "scheme": "lffp", "N": 16, "tau": 0.01, "t_final": 0.1,
        })
        assert main(["run", cfg]) == 0

    @pytest.mark.parametrize("v, header", [("1/(1+sin(x)^2)", "t,mass,energy"),
                                           ("cos(t)/(1+sin(x)^2)", "t,mass")],
                             ids=["names-no-t", "names-t"])
    def test_time_independence_is_derived(self, tmp_path, capsys, v, header):
        # the energy is recorded exactly when neither V nor A1 names t
        pots = {k: val for k, val in INLINE_FREE["potentials"].items()
                if k != "time_independent"}
        cfg = write_config(tmp_path, {
            "problem": dict(INLINE_FREE, potentials=dict(pots, V=v, V_max=1.0)),
            "epsilon": 0.5, "scheme": "cnfp", "N": 16, "tau": 0.01, "t_final": 0.1,
        })
        assert main(["run", cfg]) == 0
        assert capsys.readouterr().out.split("\n")[0] == header

    def test_si1_near_its_step_bound_runs(self, tmp_path):
        # tau = 0.35 is 0.89 tau_max of sifd1 here
        cfg = write_config(tmp_path, {
            "problem": "periodic-s51", "epsilon": 1.0,
            "scheme": "sifd1", "N": 16, "tau": 0.35, "t_final": 35.0,
        })
        assert main(["run", cfg]) == 0

    def test_cnfp_sweep_cap_exits_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": "periodic-s51", "epsilon": 1.0, "scheme": "cnfp", "N": 64, "tau": 2.0,
        })
        assert main(["run", cfg]) == 4
        err = capsys.readouterr().err
        assert "CNFP fixed point did not converge within its cap of 50 sweeps: last relative" in err

    def test_stability_violation_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": INLINE_FREE, "epsilon": 1.0,
            "scheme": "lffd", "N": 64, "tau": 0.5, "t_final": 1.0,
        })
        assert main(["run", cfg]) == 3

    def test_blowup_exit_code_with_override(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": INLINE_FREE, "epsilon": 1.0,
            "scheme": "lffd", "N": 64, "tau": 0.5, "t_final": 50.0,
        })
        assert main(["run", cfg, "--override-stability"]) == 4

    @pytest.mark.parametrize("ratio", [0.5, 1.0])
    def test_stop_norm_ratio_not_above_1_exits_2(self, tmp_path, capsys, ratio):
        # a stable run, which such a ratio would report as a blow-up at step 1
        cfg = write_config(tmp_path, {
            "problem": "periodic-s51", "epsilon": 1.0, "scheme": "cnfd", "N": 32,
            "tau": 0.01, "t_final": 0.5, "stop_norm_ratio": ratio,
        })
        assert main(["run", cfg]) == 2
        assert f"stop_norm_ratio must be above 1, got {ratio}" in capsys.readouterr().err

    def test_missing_keys_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": "periodic-s51"})
        assert main(["run", cfg]) == 2

    def test_bad_json_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2

    def test_unknown_preset_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": "no-such-preset",
                                      "scheme": "cnfd", "N": 16, "tau": 0.1})
        assert main(["run", cfg]) == 2

    def test_bad_expression_exit_code(self, tmp_path):
        bad = dict(INLINE_FREE, potentials=dict(INLINE_FREE["potentials"], V="1+"))
        cfg = write_config(tmp_path, {"problem": bad, "scheme": "cnfd",
                                      "N": 16, "tau": 0.1})
        assert main(["run", cfg]) == 2

    @pytest.mark.parametrize("potential", ["1/(t-0)", "10^(t+400)", 0, "(-8)^(1/3)"],
                             ids=["division-by-zero", "overflow", "number", "complex"])
    def test_failing_expression_exits_2(self, tmp_path, capsys, potential):
        # no time_independent key: it is derived from V, which may name t
        pots = {k: v for k, v in INLINE_FREE["potentials"].items() if k != "time_independent"}
        bad = dict(INLINE_FREE, potentials=dict(pots, V=potential, V_max=1.0))
        cfg = write_config(tmp_path, {"problem": bad, "epsilon": 1.0, "scheme": "cnfd",
                                      "N": 16, "tau": 0.1})
        assert main(["run", cfg]) == 2
        assert "config error" in capsys.readouterr().err


def _inline(**changes):
    return dict(INLINE_FREE, **changes)


RUN = {"problem": "periodic-s51", "scheme": "cnfd", "N": 16, "tau": 0.1, "t_final": 0.2}
TABLE = {"problem": "periodic-s51", "scheme": "cnfd", "eps_list": [1.0], "h0": np.pi / 4,
         "tau0": 0.05, "levels": 1}
COMPARE = {"problem": "periodic-s51", "schemes": ["cnfd"], "h": np.pi / 4, "tau": 0.05,
           "snapshots": 2}


class TestConfigErrors:
    """Each documented config error of the library and the front end exits 2."""

    @pytest.mark.parametrize("command, config, message", [
        ("run", None, "cannot read config"),
        ("run", {"scheme": "cnfd", "N": 16, "tau": 0.1}, "needs a 'problem' entry"),
        ("run", dict(RUN, problem=5), "preset name or an object"),
        ("run", dict(RUN, problem={k: v for k, v in INLINE_FREE.items() if k != "phi0"}),
         "inline problem is missing key 'phi0'"),
        ("run", dict(RUN, problem=_inline(potentials={"V": "0"})),
         "inline potentials is missing key 'A1'"),
        ("run", dict(RUN, problem=_inline(phi0=[5, "0"])), "initial-data component"),
        ("run", dict(RUN, problem=_inline(phi0=["1"])), "exactly two components"),
        ("run", dict(RUN, problem=_inline(potentials=dict(INLINE_FREE["potentials"],
                                                          V_max=-1.0))), "nonnegative"),
        ("run", {k: v for k, v in RUN.items() if k != "N"}, "give exactly one of h or N"),
        ("run", dict(RUN, record_every=0), "record_every"),
        ("run", dict(RUN, tau=0.0), "tau must be nonzero"),
        ("stability", dict(RUN, scheme="cnxx"), "unknown scheme 'cnxx'"),
        ("converge", dict(TABLE, reference=5), "'reference' must be"),
        ("converge", dict(TABLE, reference={"kind": "spline"}), "unknown reference kind"),
        ("compare", dict(COMPARE, reference={"tau_e": -0.01}), "tau_e must be positive"),
        ("run", {**{k: v for k, v in RUN.items() if k != "N"}, "h": 0}, "h must be positive"),
        ("converge", dict(TABLE, h0=0), "mesh size and time step must be positive, got h=0.0"),
        ("converge", dict(TABLE, tau0=0), "time step must be positive, got h=0.7853981633974483, tau=0.0"),
        ("converge", dict(TABLE, reference={"h_e": 0}), "h_e must be positive"),
        ("converge", dict(TABLE, reference={"tau_e": 0}), "tau_e must be positive"),
        ("converge", dict(TABLE, levels=0), "levels must be >= 1, got 0"),
        ("converge", dict(TABLE, levels=-1), "levels must be >= 1, got -1"),
        ("converge", dict(TABLE, eps_list=[]), "eps_list is empty"),
        ("compare", dict(COMPARE, snapshots=0), "n_snapshots must be >= 1, got 0"),
        ("compare", dict(COMPARE, schemes=[]), "no scheme to compare"),
        ("run", dict(RUN, problem=_inline(potentials=dict(INLINE_FREE["potentials"],
                                                          V="cos(t)", V_max=1.0))),
         "declare time_independent=True, but V and A1 name t"),
        ("run", dict(RUN, problem=_inline(potentials=dict(INLINE_FREE["potentials"],
                                                          time_independent=False))),
         "declare time_independent=False, but V and A1 do not name t"),
        # each value of the wrong JSON type, read by the one typed reader
        ("run", dict(RUN, problem=_inline(T0="abc")),
         "inline problem key 'T0' must be a number, got 'abc'"),
        ("run", dict(RUN, epsilon="abc"), "config key 'epsilon' must be a number, got 'abc'"),
        ("run", dict(RUN, N="abc"), "config key 'N' must be an integer, got 'abc'"),
        ("run", dict(RUN, N=16.5), "config key 'N' must be an integer, got 16.5"),
        ("run", dict(RUN, tau="abc"), "config key 'tau' must be a number, got 'abc'"),
        ("run", dict(RUN, tau=True), "config key 'tau' must be a number, got True"),
        ("run", dict(RUN, t_final="abc"), "config key 't_final' must be a number, got 'abc'"),
        ("run", dict(RUN, scheme=5), "config key 'scheme' must be a string, got 5"),
        ("converge", dict(TABLE, eps_list=5), "config key 'eps_list' must be a list, got 5"),
        ("converge", dict(TABLE, eps_list=["abc"]),
         "an entry of config key 'eps_list' must be a number, got 'abc'"),
        ("converge", dict(TABLE, reference={"h_e": "abc"}),
         "'reference' key 'h_e' must be a number, got 'abc'"),
        ("run", dict(RUN, problem=_inline(phi0=5)),
         "inline problem key 'phi0' must be a list, got 5"),
        ("run", dict(RUN, problem=_inline(phi0="11")),
         "inline problem key 'phi0' must be a list, got '11'"),
        ("run", dict(RUN, problem=_inline(phi0=[{"re": "1", "imag": "1"}, "0"])),
         "initial-data component"),
        ("run", dict(RUN, problem=_inline(expand_with_horizon="false")),
         "inline problem key 'expand_with_horizon' must be true or false, got 'false'"),
        ("run", [RUN], "must be an object, got"),
        # NaN and Infinity, which Python's json reads, are no numbers
        ("run", dict(RUN, tau=math.inf), "config key 'tau' must be a number, got inf"),
        ("run", dict(RUN, tau=math.nan), "config key 'tau' must be a number, got nan"),
        ("run", dict(RUN, scheme="lffp", tau=math.nan),
         "config key 'tau' must be a number, got nan"),
        ("run", dict(RUN, t_final=math.inf), "config key 't_final' must be a number, got inf"),
        ("run", dict(RUN, t_final=math.nan), "config key 't_final' must be a number, got nan"),
        ("run", dict(RUN, problem=_inline(T0=math.inf)),
         "inline problem key 'T0' must be a number, got inf"),
        ("converge", dict(TABLE, tau0=math.inf), "config key 'tau0' must be a number, got inf"),
        ("compare", dict(COMPARE, tau=math.nan), "config key 'tau' must be a number, got nan"),
        ("run", dict(RUN, stop_norm_ratio=math.nan),
         "config key 'stop_norm_ratio' must be a number, got nan"),
        # json writes and reads these as integers; neither allocates anything
        ("run", dict(RUN, tau=10 ** 400), "config key 'tau' is beyond the float range"),
        ("run", dict(RUN, N=10 ** 30), f"N must be even, >= 4 and <= {MAX_NODES}, got {10 ** 30}"),
        ("run", dict(RUN, h=0.5), "give exactly one of h or N"),
    ], ids=["no-file", "no-problem", "problem-type", "inline-fields", "potential-fields",
            "component", "two-components", "negative-bound", "no-mesh", "record-every",
            "zero-tau", "stability-scheme", "reference-type",
            "reference-kind", "negative-tau_e", "zero-h", "zero-h0", "zero-tau0", "zero-h_e",
            "zero-tau_e", "zero-levels", "negative-levels", "no-eps", "zero-snapshots",
            "no-schemes", "declared-time-independent", "declared-time-dependent",
            "T0-type", "epsilon-type", "N-type", "N-fraction", "tau-type", "tau-bool",
            "t_final-type", "scheme-type", "eps_list-type", "eps_list-entry",
            "reference-h_e-type", "phi0-type", "phi0-string", "component-key",
            "expand_with_horizon-type", "config-type", "tau-infinite", "tau-nan",
            "lffp-tau-nan", "t_final-infinite", "t_final-nan", "T0-infinite",
            "tau0-infinite", "compare-tau-nan", "stop_norm_ratio-nan", "tau-overflow",
            "N-overflow", "h-and-N"])
    def test_exits_2_with_its_message(self, tmp_path, capsys, command, config, message):
        path = str(tmp_path / "missing.json") if config is None else write_config(tmp_path, config)
        assert main([command, path]) == 2
        assert message in capsys.readouterr().err

    def test_integer_of_too_many_digits_exits_2(self, tmp_path, capsys):
        # Python's json refuses to read an integer of more than 4300 digits
        path = tmp_path / "config.json"
        path.write_text(json.dumps(RUN)[:-1] + ', "t_final": 1' + "0" * 5000 + "}")
        assert main(["run", str(path)]) == 2
        assert "is not valid JSON: Exceeds the limit" in capsys.readouterr().err

    def test_mesh_size_key_reads_like_the_node_count(self, tmp_path, capsys):
        # h = pi/8 on (0, 2 pi) is the N = 16 grid
        by_h = {k: v for k, v in RUN.items() if k != "N"}
        by_h["h"] = np.pi / 8
        outputs = []
        for config in (RUN, by_h):
            assert main(["run", write_config(tmp_path, config)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].out == outputs[1].out
        assert "N=16 " in outputs[1].err


class TestInitialData:
    def test_components_survive_pickling_and_keep_a_signed_zero(self):
        x = np.linspace(0.0, 1.0, 5)
        phi0 = pickle.loads(pickle.dumps(_InitialData(
            ["-0*x", {"re": "cos(x)", "im": "sin(x)"}])))(x)
        want = np.asarray(np.cos(x), dtype=complex) + 1j * np.asarray(np.sin(x), dtype=complex)
        np.testing.assert_array_equal(phi0[1], want)
        # a component without an im part is not shifted by + 0j, so -0 stays -0
        assert np.array_equal(phi0[0], np.zeros(5)) and np.signbit(phi0[0].real).all()


# the flags each subcommand reads (14 in all); every other flag is refused
FLAGS = {
    "run": {"--out", "--override-stability"},
    "converge": {"--out", "--workers", "--cache-dir"},
    "sweep-spatial": {"--out", "--workers", "--cache-dir"},
    "sweep-temporal": {"--out", "--workers", "--cache-dir"},
    "stability": {"--out"},
    "compare": {"--out", "--cache-dir"},
}
FLAG_ARGS = {"--out": ["o.csv"], "--workers": ["2"], "--cache-dir": ["cache"],
             "--override-stability": []}


class TestFlags:
    @pytest.mark.parametrize("argv", [["converge", "--override-stability"],
                                      ["stability", "--workers", "2"]],
                             ids=["converge-override-stability", "stability-workers"])
    def test_flag_the_command_ignores_exits_2(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, TABLE)
        with pytest.raises(SystemExit) as caught:
            main([argv[0], cfg, *argv[1:]])
        assert caught.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_each_command_takes_only_the_flags_it_reads(self, command):
        parser = _build_parser()
        for flag, value in FLAG_ARGS.items():
            argv = [command, "config.json", flag, *value]
            if flag in FLAGS[command]:
                parser.parse_args(argv)
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)


class TestTables:
    def test_converge_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": "periodic-s51",
            "scheme": "cnfd", "eps_list": [1.0], "h0": np.pi / 8, "tau0": 0.05,
            "levels": 2, "reference": {"tau_e": 0.005},
        })
        out = tmp_path / "table.csv"
        assert main(["converge", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("epsilon,level,h,tau,e_phi")
        assert len(lines) == 3

    def test_converge_with_a_first_row_of_zero(self, tmp_path):
        # the diagonal column of a row above a first eps of 0 is 0 (no level)
        cfg = write_config(tmp_path, {
            "problem": "periodic-s51", "scheme": "cnfd", "eps_list": [0.0, 0.25],
            "h0": np.pi / 8, "tau0": 0.05, "levels": 2,
            "reference": {"h_e": np.pi / 64, "tau_e": 0.005},
        })
        out = tmp_path / "table.csv"
        assert main(["converge", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[-1] for row in rows if row[0] == "0.25"] == ["0", "0"]

    def test_sweep_temporal(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": INLINE_FREE, "epsilon": 0.0,
            "scheme": "cnfp", "eps_list": [0.0], "tau0": 0.02, "levels": 2,
            "h": np.pi / 8, "reference": "exfp",
        })
        out = tmp_path / "sweep.csv"
        assert main(["sweep-temporal", cfg, "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 3

    def test_sweep_spatial_with_cache(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": "periodic-s51",
            "scheme": "lffp", "eps_list": [1.0], "h0": np.pi / 4, "levels": 2,
            "tau": 0.01, "reference": {"tau_e": 0.00125},
        })
        out = tmp_path / "sweep.csv"
        cache_dir = tmp_path / "cache"
        assert main(["sweep-spatial", cfg, "--out", str(out),
                     "--cache-dir", str(cache_dir)]) == 0
        assert any(p.suffix == ".dref" for p in cache_dir.iterdir())
        # second invocation reuses the cached reference and reproduces the CSV
        first = out.read_text()
        assert main(["sweep-spatial", cfg, "--out", str(out),
                     "--cache-dir", str(cache_dir)]) == 0
        assert out.read_text() == first

    def test_unreadable_cache_file_exits_2(self, tmp_path, monkeypatch, capsys):
        def denied(path):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(reference, "load_reference", denied)
        cfg = write_config(tmp_path, {
            "problem": "periodic-s51",
            "scheme": "lffp", "eps_list": [1.0], "h0": np.pi / 4, "levels": 2,
            "tau": 0.01, "reference": {"tau_e": 0.00125},
        })
        cache_dir = tmp_path / "cache"
        assert main(["sweep-spatial", cfg, "--cache-dir", str(cache_dir)]) == 2
        err = capsys.readouterr().err
        assert "Permission denied" in err and str(cache_dir) in err

    def test_truncated_cache_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": "periodic-s51",
            "scheme": "cnfd", "eps_list": [1.0], "h0": np.pi / 8, "tau0": 0.05,
            "levels": 2, "reference": {"tau_e": 0.005},
        })
        cache_dir = tmp_path / "cache"
        assert main(["converge", cfg, "--cache-dir", str(cache_dir)]) == 0
        (cached,) = cache_dir.iterdir()
        cached.write_bytes(cached.read_bytes()[:30])
        capsys.readouterr()
        assert main(["converge", cfg, "--cache-dir", str(cache_dir)]) == 2
        err = capsys.readouterr().err
        assert f"{cached} is not a reference cache file" in err

    def test_unknown_reference_keys_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": "periodic-s51",
            "scheme": "cnfd", "eps_list": [1.0], "h0": np.pi / 8, "tau0": 0.05,
            "levels": 2, "reference": {"tau_e": 0.005, "min_time_ratio": 2.0, "h_E": 0.1,
                                       "allow_interpolation": True},
        })
        assert main(["converge", cfg]) == 2
        err = capsys.readouterr().err
        assert "'h_E'" in err and "'min_time_ratio'" in err and "'allow_interpolation'" in err

    @pytest.mark.parametrize("epsilon, potentials, h0, spec, message", [
        (0.0, {}, np.pi / 8, {"kind": "exfp", "tau_e": 0.001},
         "the exfp reference takes no tau_e"),
        (0.5, {"V": "cos(t)", "V_max": 1.0, "time_independent": False}, np.pi / 8, "exfd",
         "needs time-independent potentials"),
        (0.0, {}, np.pi / 256, "exfp", "N <= 1024, got N=2048"),
    ], ids=["tau_e", "time-dependent", "too-many-nodes"])
    def test_exact_reference_refusals_exit_2(self, tmp_path, capsys, epsilon, potentials, h0,
                                             spec, message):
        problem = dict(INLINE_FREE, potentials=dict(INLINE_FREE["potentials"], **potentials))
        cfg = write_config(tmp_path, {
            "problem": problem, "epsilon": epsilon,
            "scheme": "cnfd", "eps_list": [epsilon], "h0": h0, "tau0": 0.05, "levels": 1,
            "reference": spec,
        })
        assert main(["converge", cfg]) == 2
        assert message in capsys.readouterr().err

    def test_exact_reference_read_from_the_cache(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {
            "problem": INLINE_FREE, "epsilon": 0.0,
            "scheme": "cnfp", "eps_list": [0.0], "tau0": 0.02, "levels": 2,
            "h": np.pi / 8, "reference": "exfp",
        })
        out, cache_dir = tmp_path / "sweep.csv", tmp_path / "cache"
        argv = ["sweep-temporal", cfg, "--out", str(out), "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        (cached,) = cache_dir.iterdir()
        first = out.read_text()

        def no_build(*args):
            raise AssertionError("a cached reference was built again")

        monkeypatch.setattr(reference, "reference_solution", no_build)
        assert main(argv) == 0
        assert out.read_text() == first
        assert reference.load_reference(str(cached)).manifest["kind"] == "exfp"


class TestStabilityCommand:
    def test_prints_all_schemes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": "periodic-s51", "scheme": "lffd", "N": 64, "tau": 0.01,
        })
        assert main(["stability", cfg]) == 0
        text = capsys.readouterr().out
        for scheme in ("cnfd", "sifd1", "sifd2", "lffd", "cnfp", "sifp1", "sifp2", "lffp"):
            assert scheme in text
        assert "<-- requested" in text

    def test_tsfp_is_a_row_and_can_be_requested(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(RUN, scheme="tsfp"))
        assert main(["stability", cfg]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 11
        [tsfp] = [row for row in rows if row.startswith("tsfp ")]
        assert "tau_max=unbounded" in tsfp and tsfp.endswith(" ok <-- requested")

    def test_requested_scheme_violation_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": "periodic-s51", "scheme": "lffd", "N": 64, "tau": 0.5,
        })
        assert main(["stability", cfg]) == 3


class TestCompare:
    def test_emits_wide_series(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": INLINE_FREE, "epsilon": 0.0,
            "schemes": ["cnfd", "lffp"], "h": np.pi / 8, "tau": 0.01,
            "snapshots": 4, "reference": "exfp",
        })
        out = tmp_path / "compare.csv"
        assert main(["compare", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,cnfd,lffp"
        assert len(lines) == 5

    def test_unstable_step_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": "periodic-s51", "epsilon": 1.0,
            "schemes": ["lffd"], "h": np.pi / 16, "tau": 0.5, "snapshots": 4,
        })
        out = tmp_path / "compare.csv"
        assert main(["compare", cfg, "--out", str(out)]) == 3
        assert "stability violation" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("spec, message", [
        ({"kind": "tsfp", "h_e": np.pi / 32}, "not 4x finer than the test grid N=32"),
        ({"kind": "exfp", "h_e": np.pi / 40, "min_space_ratio": 2}, "grids do not nest"),
    ], ids=["tsfp-2x-finer", "exfp-not-nesting"])
    def test_reference_grid_refused_before_any_build_exits_2(self, tmp_path, capsys,
                                                             monkeypatch, spec, message):
        def no_build(*args, **kwargs):
            raise AssertionError("a reference was built before the guard")

        for name in ("reference_solution", "build_reference"):
            monkeypatch.setattr(harness, name, no_build)
        cfg = write_config(tmp_path, dict(COMPARE, h=np.pi / 16, tau=0.01, reference=spec))
        out = tmp_path / "compare.csv"
        assert main(["compare", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestDemoConfigs:
    """Every config shipped in demos/configs runs through the CLI."""

    DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

    @pytest.mark.parametrize("name, command", [("torus_run", "run"),
                                               ("inline_problem", "run"),
                                               ("refinement_table", "converge")])
    def test_demo_config_runs(self, tmp_path, name, command):
        config = self.DEMO_CONFIGS / f"{name}.json"
        assert main([command, str(config), "--out", str(tmp_path / "out.csv")]) == 0
        assert (tmp_path / "out.csv").read_text().strip()

    def test_time_error_table_is_the_library_table(self, tmp_path):
        # cnfd at N = 32 against exfd on the same grid: the time error alone
        out = tmp_path / "out.csv"
        config = self.DEMO_CONFIGS / "time_error_cnfd.json"
        assert main(["sweep-temporal", str(config), "--out", str(out)]) == 0
        h = 2 * np.pi / 32
        table = epsilon_sweep_temporal(
            preset("periodic-s51", 1.0), "cnfd", [4.0 ** -k for k in range(6)], 0.01, 3, h,
            reference=ReferenceConfig("exfd", h_e=h, min_space_ratio=1))
        got, want = out.read_text().splitlines(), emit_csv(table).splitlines()
        assert len(got) == len(want) == 1 + 6 * 3
        for got_row, want_row in zip(got, want):
            assert got_row.split(",") == want_row.split(",")
