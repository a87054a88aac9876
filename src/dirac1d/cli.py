"""Command-line front end.

Subcommands: run, converge, sweep-spatial, sweep-temporal, stability,
compare.  Each reads a JSON config file; results go to stdout or --out.
Exit codes: 0 ok, 2 config or file error, 3 stability violation, 4 solver
failure.

Config keys (subcommand-dependent):
    problem    preset name ("periodic-s51", "whole-space-s52") or inline
               {"domain": [a, b], "T0": ..., "epsilon": ...,
                "potentials": {"V": expr, "A1": expr, "time_independent":
                bool, "V_max": ..., "A_max": ...},
                "phi0": [expr_or_{re,im}, expr_or_{re,im}],
                "expand_with_horizon": bool}
    epsilon    potential strength (top level; inline problems may carry it
               inside the problem object instead)
    scheme     one of cnfd sifd1 sifd2 lffd cnfp sifp1 sifp2 lffp
    h | N      mesh size or node count        tau      time step
    t_final    optional horizon override (default T0/epsilon)
    reference  "exact" or an object with only kind, h_e, tau_e,
               min_space_ratio, allow_interpolation      (tables/compare)
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
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"inline problem is missing/invalid fields: {exc}") from exc
    pots = model.PotentialPair(
        V=Expression(pots_spec["V"]),
        A1=Expression(pots_spec["A1"]),
        time_independent=bool(pots_spec.get("time_independent", False)),
        v_max=float(pots_spec["V_max"]),
        a_max=float(pots_spec["A_max"]),
    )
    if len(phi0_spec) != 2:
        raise ConfigurationError("'phi0' needs exactly two components")
    phi0 = _SpinorInitial(_parse_component(phi0_spec[0]), _parse_component(phi0_spec[1]))
    return model.ProblemSetup(
        a, b, epsilon, float(spec.get("T0", 2.0)), pots, phi0,
        expand_with_horizon=bool(spec.get("expand_with_horizon", False)),
        key={"inline": {k: spec[k] for k in sorted(spec)}, "epsilon": epsilon},
    )


_REFERENCE_KEYS = ("kind", "h_e", "tau_e", "min_space_ratio", "allow_interpolation")


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
            allow_interpolation=bool(spec.get("allow_interpolation", False)),
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
    record = "mass+energy" if problem.potentials.time_independent else "mass"
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
    setup = _build_setup(cfg)
    grid = _discretize(setup, cfg).grid
    tau = float(cfg["tau"])
    pots = setup.potentials
    lines = []
    requested = cfg.get("scheme")
    for scheme in stability.ALL_SCHEMES:
        verdict = stability.validate(scheme, grid.h, tau, pots.v_max, pots.a_max)
        marker = " <-- requested" if requested and scheme == requested.lower() else ""
        lines.append(str(verdict) + marker)
    _write("\n".join(lines) + "\n", args)
    if requested:
        verdict = stability.validate(requested, grid.h, tau, pots.v_max, pots.a_max)
        if not verdict.ok:
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


_COMMANDS = {
    "run": _cmd_run,
    "converge": _table_command("convergence_table", "h0", "tau0"),
    "sweep-spatial": _table_command("epsilon_sweep_spatial", "h0", "tau"),
    "sweep-temporal": _table_command("epsilon_sweep_temporal", "tau0", "h"),
    "stability": _cmd_stability,
    "compare": _cmd_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac1d",
        description="1D Dirac equation solvers and convergence benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "run": "run one simulation and emit the observable series",
        "converge": "simultaneous (h, tau) refinement table",
        "sweep-spatial": "h refinement at fixed tau",
        "sweep-temporal": "tau refinement at fixed h",
        "stability": "print the stability verdict table",
        "compare": "error-vs-time series for several schemes",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("config", help="JSON config file")
        p.add_argument("--out", help="write CSV here instead of stdout")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for table cells")
        p.add_argument("--cache-dir", help="directory for reference snapshot caching")
        p.add_argument("--override-stability", action="store_true",
                       help="run even outside the stability region")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
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
