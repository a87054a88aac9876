"""Command-line interface: subcommands, config parsing, exit codes."""

import json

import numpy as np

import dirac1d.reference as reference
from dirac1d.cli import main


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

    def test_inline_problem_with_expressions(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": INLINE_FREE, "epsilon": 0.5,
            "scheme": "lffp", "N": 16, "tau": 0.01, "t_final": 0.1,
        })
        assert main(["run", cfg]) == 0

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

    def test_sweep_temporal(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": INLINE_FREE, "epsilon": 0.0,
            "scheme": "cnfp", "eps_list": [0.0], "tau0": 0.02, "levels": 2,
            "h": np.pi / 8, "reference": "exact",
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

    def test_unknown_reference_keys_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": "periodic-s51",
            "scheme": "cnfd", "eps_list": [1.0], "h0": np.pi / 8, "tau0": 0.05,
            "levels": 2, "reference": {"tau_e": 0.005, "min_time_ratio": 2.0, "h_E": 0.1},
        })
        assert main(["converge", cfg]) == 2
        err = capsys.readouterr().err
        assert "'h_E'" in err and "'min_time_ratio'" in err


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
            "snapshots": 4, "reference": "exact",
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
