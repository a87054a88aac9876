"""Command-line front end.

Subcommands: run, converge, sweep-spatial, sweep-temporal, stability,
compare.  Each reads a JSON config file and accepts only the flags it
reads (`_COMMANDS`); results go to stdout or --out.  Exit codes: 0 ok,
2 config, flag or file error, 3 stability violation, 4 solver failure.

Config keys (subcommand-dependent):
    problem    preset name ("periodic-s51", "whole-space-s52") or inline
               {"domain": [a, b], "T0": ..., "epsilon": ...,
                "potentials": {"V": expr, "A1": expr, "V_max": ..., "A_max":
                ..., optional "time_independent": bool, true iff neither names t},
                "phi0": [expr_or_{re,im}, expr_or_{re,im}],
                "expand_with_horizon": bool}
    epsilon    potential strength (top level; inline problems may carry it
               inside the problem object instead)
    scheme     one of cnfd sifd1 sifd2 lffd cnfp sifp1 sifp2 lffp
    h | N      mesh size or node count        tau      time step
    t_final, record_every, stop_norm_ratio   (run) horizon (T0/epsilon),
               record stride (1), norm growth that ends the run (1e6)
    reference  "exact" or an object with only kind, h_e, tau_e,
               min_space_ratio                           (tables/compare)
    eps_list, levels and the step keys named as in the harness function:
               converge h0 tau0, sweep-spatial h0 tau, sweep-temporal tau0 h
    schemes, snapshots                        (compare)

Expression strings: decimal numbers, t, x, pi, + - * / ^ (or **), unary
+ and -, one-argument sin, cos, exp; nothing else (`dirac1d.expressions`).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness, model, stability
from .errors import ConfigurationError, SolverError, StabilityError
from .expressions import Expression
from .reference import ReferenceCache

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_SOLVER = 4


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc


class _ComplexInitial:
    """Initial-data component built from real/imaginary expression strings."""

    def __init__(self, re_expr: Expression, im_expr):
        self.re_expr = re_expr
        self.im_expr = im_expr

    def __call__(self, x):
        out = np.asarray(self.re_expr(0.0, x), dtype=complex)
        if self.im_expr is not None:
            out = out + 1j * np.asarray(self.im_expr(0.0, x), dtype=complex)
        return out


class _SpinorInitial:
    def __init__(self, comp1, comp2):
        self.comp1, self.comp2 = comp1, comp2

    def __call__(self, x):
        return np.stack((self.comp1(x), self.comp2(x)))


def _parse_component(spec) -> _ComplexInitial:
    if isinstance(spec, str):
        return _ComplexInitial(Expression(spec), None)
    if isinstance(spec, dict) and "re" in spec:
        im = Expression(spec["im"]) if "im" in spec else None
        return _ComplexInitial(Expression(spec["re"]), im)
    raise ConfigurationError(f"initial-data component must be an expression string or "
                             f"{{'re': ..., 'im': ...}}, got {spec!r}")


def _build_setup(cfg: dict) -> model.ProblemSetup:
    spec = cfg.get("problem")
    if spec is None:
        raise ConfigurationError("config needs a 'problem' entry")
    if isinstance(spec, str):
        return model.preset(spec, float(cfg.get("epsilon", 1.0)))
    if not isinstance(spec, dict):
        raise ConfigurationError("'problem' must be a preset name or an object")
    # inline problems may carry epsilon inside the object or at the top level
    epsilon = float(spec.get("epsilon", cfg.get("epsilon", 1.0)))
    try:
        a, b = (float(v) for v in spec["domain"])
        pots_spec = spec["potentials"]
        phi0_spec = spec["phi0"]
        v, a1 = Expression(pots_spec["V"]), Expression(pots_spec["A1"])
        pots = model.PotentialPair(v, a1, not (v.names_t or a1.names_t),
                                   float(pots_spec["V_max"]), float(pots_spec["A_max"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"inline problem is missing/invalid fields: {exc}") from exc
    declared = pots_spec.get("time_independent", pots.time_independent)
    if declared != pots.time_independent:
        names = "do not name" if pots.time_independent else "name"
        raise ConfigurationError(
            f"inline potentials declare time_independent={declared}, but V and A1 {names} t")
    if len(phi0_spec) != 2:
        raise ConfigurationError("'phi0' needs exactly two components")
    phi0 = _SpinorInitial(_parse_component(phi0_spec[0]), _parse_component(phi0_spec[1]))
    # the cache key carries the derived declaration, stated or not
    keyed = dict(spec, potentials=dict(pots_spec, time_independent=pots.time_independent))
    return model.ProblemSetup(
        a, b, epsilon, float(spec.get("T0", 2.0)), pots, phi0,
        expand_with_horizon=bool(spec.get("expand_with_horizon", False)),
        key={"inline": keyed, "epsilon": epsilon},
    )


_REFERENCE_KEYS = ("kind", "h_e", "tau_e", "min_space_ratio")


def _reference_config(cfg: dict, args) -> harness.ReferenceConfig:
    spec = cfg.get("reference")
    cache = ReferenceCache(args.cache_dir) if args.cache_dir else None
    if spec is None:
        return harness.ReferenceConfig(cache=cache)
    if spec == "exact":
        return harness.ReferenceConfig(kind="exact", cache=cache)
    if isinstance(spec, dict):
        unknown = sorted(set(spec) - set(_REFERENCE_KEYS))
        if unknown:
            raise ConfigurationError(
                f"unknown 'reference' keys {unknown}; known keys: {list(_REFERENCE_KEYS)}")
        return harness.ReferenceConfig(
            kind=spec.get("kind", "tsfp"),
            h_e=spec.get("h_e"),
            tau_e=spec.get("tau_e"),
            min_space_ratio=float(spec.get("min_space_ratio", 4.0)),
            cache=cache,
        )
    raise ConfigurationError("'reference' must be \"exact\" or an object")


def _discretize(setup: model.ProblemSetup, cfg: dict) -> model.DiracProblem:
    if "h" in cfg:
        return setup.discretize(h=float(cfg["h"]))
    if "N" in cfg:
        return setup.discretize(N=int(cfg["N"]))
    raise ConfigurationError("config needs 'h' or 'N'")


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require(cfg: dict, *keys):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigurationError(f"config is missing keys: {missing}")


def _cmd_run(cfg: dict, args) -> int:
    _require(cfg, "scheme", "tau")
    setup = _build_setup(cfg)
    problem = _discretize(setup, cfg)
    record = "mass+energy" if problem.time_independent else "mass"
    config = harness.SchemeConfig(
        scheme=cfg["scheme"], tau=float(cfg["tau"]),
        t_final=cfg.get("t_final"),
        record=record,
        record_every=int(cfg.get("record_every", 1)),
        override_stability=args.override_stability,
        stop_norm_ratio=float(cfg.get("stop_norm_ratio", 1e6)),
    )
    result = harness.run_simulation(problem, config)
    if result.blew_up:
        raise SolverError(f"solution blew up at step {result.blowup_step}",
                          step=result.blowup_step)
    m0, mn = result.mass_series[0], result.mass_series[-1]
    drift = abs(mn - m0) / m0 if m0 else float("nan")
    print(f"scheme={result.scheme} N={problem.grid.N} tau={result.tau:g} "
          f"steps={result.n_steps} t_final={result.n_steps * result.tau:g}", file=sys.stderr)
    print(f"mass {m0:.12g} -> {mn:.12g} (relative drift {drift:.3e}); "
          f"wall {result.wall_time:.2f}s", file=sys.stderr)
    lines = ["t,mass" + (",energy" if result.energy_series is not None else "")]
    for j, t in enumerate(result.times):
        row = f"{t:.6g},{result.mass_series[j]:.12g}"
        if result.energy_series is not None:
            row += f",{result.energy_series[j]:.12g}"
        lines.append(row)
    _write("\n".join(lines) + "\n", args)
    return EXIT_OK


def _table_command(name: str, *ladder_keys: str):
    """Subcommand running `harness.<name>`; ladder_keys are that function's own
    parameter names, read from the config.  The function is looked up at call
    time so that wrappers installed on the harness module see the call."""
    def command(cfg: dict, args) -> int:
        _require(cfg, "scheme", "eps_list", "levels", *ladder_keys)
        table = getattr(harness, name)(
            _build_setup(cfg), cfg["scheme"], [float(e) for e in cfg["eps_list"]],
            levels=int(cfg["levels"]), reference=_reference_config(cfg, args),
            workers=args.workers, **{k: float(cfg[k]) for k in ladder_keys},
        )
        _write(harness.emit_csv(table), args)
        return EXIT_OK
    return command


def _cmd_stability(cfg: dict, args) -> int:
    _require(cfg, "tau")
    problem = _discretize(_build_setup(cfg), cfg)
    h, tau, bounds = problem.grid.h, float(cfg["tau"]), problem.operator_bounds
    verdicts = {s: stability.validate(s, h, tau, *bounds) for s in stability.ALL_SCHEMES}
    requested = str(cfg.get("scheme", "")).lower()
    # the requested name is refused, if at all, by the scheme registry
    verdict = stability.validate(requested, h, tau, *bounds) if requested else None
    lines = [str(v) + (" <-- requested" if s == requested else "") for s, v in verdicts.items()]
    _write("\n".join(lines) + "\n", args)
    if verdict and not verdict.ok:
        raise StabilityError(f"requested scheme is unstable: {verdict}", verdict=verdict)
    return EXIT_OK


def _cmd_compare(cfg: dict, args) -> int:
    _require(cfg, "schemes", "h", "tau")
    setup = _build_setup(cfg)
    series = harness.compare_over_time(
        setup, list(cfg["schemes"]), float(cfg["h"]), float(cfg["tau"]),
        int(cfg.get("snapshots", 20)), reference=_reference_config(cfg, args),
    )
    _write(harness.emit_plot_data(series), args)
    return EXIT_OK


_FLAGS = {
    "--out": dict(help="write CSV here instead of stdout"),
    "--workers": dict(type=int, default=1, help="worker processes for table cells"),
    "--cache-dir": dict(help="directory for reference snapshot caching"),
    "--override-stability": dict(action="store_true",
                                 help="run even outside the stability region"),
}
_TABLE_FLAGS = ("--out", "--workers", "--cache-dir")

# name -> (command, help, the flags it reads)
_COMMANDS = {
    "run": (_cmd_run, "run one simulation and emit the observable series",
            ("--out", "--override-stability")),
    "converge": (_table_command("convergence_table", "h0", "tau0"),
                 "simultaneous (h, tau) refinement table", _TABLE_FLAGS),
    "sweep-spatial": (_table_command("epsilon_sweep_spatial", "h0", "tau"),
                      "h refinement at fixed tau", _TABLE_FLAGS),
    "sweep-temporal": (_table_command("epsilon_sweep_temporal", "tau0", "h"),
                       "tau refinement at fixed h", _TABLE_FLAGS),
    "stability": (_cmd_stability, "print the stability verdict table", ("--out",)),
    "compare": (_cmd_compare, "error-vs-time series for several schemes",
                ("--out", "--cache-dir")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac1d",
        description="1D Dirac equation solvers and convergence benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="JSON config file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command][0](cfg, args)
    except StabilityError as exc:
        print(f"stability violation: {exc}", file=sys.stderr)
        return EXIT_STABILITY
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # reference cache or output file
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
