"""Command-line front end.

Subcommands: run, converge, sweep-spatial, sweep-temporal, stability,
compare.  Each reads a JSON config file and accepts only the flags it
reads (`_COMMANDS`); results go to stdout or --out.  Exit codes: 0 ok,
2 config, flag or file error, 3 stability violation, 4 solver failure.

Config keys (subcommand-dependent; another JSON type, NaN or Infinity exits 2):
    problem    preset name ("periodic-s51", "whole-space-s52") or inline
               {"domain": [a, b], "T0": ..., "epsilon": ...,
                "potentials": {"V": expr, "A1": expr, "V_max": ..., "A_max":
                ..., optional "time_independent": bool, true iff neither names t},
                "phi0": [expr_or_{re,im}, expr_or_{re,im}],
                "expand_with_horizon": bool}
    epsilon    potential strength (top level; inline problems may carry it
               inside the problem object instead)
    scheme     one of cnfd sifd1 sifd2 lffd cnfp sifp1 sifp2 lffp tsfp exfd exfp
    h | N      mesh size or node count        tau      time step
    t_final, record_every, stop_norm_ratio   (run) horizon (T0/epsilon),
               record stride (1), norm growth that ends the run (1e6)
    reference  tsfp | exfp | exfd, or an object with only kind (one of
               these), h_e, tau_e, min_space_ratio       (tables/compare)
    eps_list, levels and the step keys named as in the harness function:
               converge h0 tau0, sweep-spatial h0 tau, sweep-temporal tau0 h
    schemes, snapshots                        (compare)

Expression strings: decimal numbers, t, x, pi, + - * / ^ (or **), unary
+ and -, one-argument sin, cos, exp; nothing else (`dirac1d.expressions`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import harness, model, schemes
from .errors import ConfigurationError, SolverError, StabilityError
from .expressions import Expression
from .reference import ReferenceCache, ReferenceConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_SOLVER = 4


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return _typed(f"config {path}", json.load(fh), dict)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc


_REQUIRED = object()
_KINDS = {float: "a number", int: "an integer", str: "a string", bool: "true or false",
          dict: "an object", list: "a list"}


def _typed(name: str, value, kind):
    """value as kind, refused unless JSON gave that type (a bool, NaN or Infinity is no number)."""
    number = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) < math.inf)
    if kind in (float, int) and number and (kind is float or value % 1 == 0):
        if kind is float and abs(value) > sys.float_info.max:  # an integer no float holds
            raise ConfigurationError(f"{name} is beyond the float range")
        return kind(value)
    if kind not in (float, int) and isinstance(value, kind):
        return value
    raise ConfigurationError(f"{name} must be {_KINDS[kind]}, got {value!r}")


def _read(obj: dict, key: str, kind, default=_REQUIRED, where: str = "config"):
    """obj[key] as kind (float, int, str, bool, dict, list, or [float] / [str] for
    a list of them); default when the key is absent, which no default refuses."""
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigurationError(f"{where} is missing key {key!r}")
        return default
    name = f"{where} key {key!r}"
    if isinstance(kind, list):
        return [_typed(f"an entry of {name}", v, kind[0]) for v in _typed(name, obj[key], list)]
    return _typed(name, obj[key], kind)


class _InitialData:
    """Phi0 of an inline problem: two components, each an expression string or
    {"re": ..., "im": ...}, evaluated at t = 0.  Picklable, for pool workers."""

    def __init__(self, spec: list):
        if len(spec) != 2:
            raise ConfigurationError(f"'phi0' needs exactly two components, got {spec!r}")
        self.parts = []
        for part in spec:
            part = {"re": part} if isinstance(part, str) else part
            if not (isinstance(part, dict) and "re" in part and set(part) <= {"re", "im"}):
                raise ConfigurationError(f"initial-data component must be an expression "
                                         f"string or {{'re': ..., 'im': ...}}, got {part!r}")
            self.parts.append([Expression(part[k]) for k in ("re", "im") if k in part])

    def __call__(self, x):
        def component(re, im=None):
            out = np.asarray(re(0.0, x), dtype=complex)
            # + 1j im only when given, so that a zero real part keeps its sign
            return out if im is None else out + 1j * np.asarray(im(0.0, x), dtype=complex)
        return np.stack([component(*part) for part in self.parts])


def _build_setup(cfg: dict) -> model.ProblemSetup:
    spec = cfg.get("problem")
    if isinstance(spec, str):
        return model.preset(spec, _read(cfg, "epsilon", float, 1.0))
    if not isinstance(spec, dict):
        raise ConfigurationError(
            f"config needs a 'problem' entry, a preset name or an object, got {spec!r}")
    inline = "inline problem"
    # inline problems may carry epsilon inside the object or at the top level
    epsilon = _read(spec, "epsilon", float, _read(cfg, "epsilon", float, 1.0), inline)
    if len(domain := _read(spec, "domain", [float], where=inline)) != 2:
        raise ConfigurationError(f"the inline domain needs two ends [a, b], got {domain!r}")
    pots_spec = _read(spec, "potentials", dict, where=inline)
    phi0 = _InitialData(_read(spec, "phi0", list, where=inline))
    inline_pots = "inline potentials"
    v, a1 = (Expression(_read(pots_spec, k, str, where=inline_pots)) for k in ("V", "A1"))
    pots = model.PotentialPair(v, a1, not (v.names_t or a1.names_t),
                               _read(pots_spec, "V_max", float, where=inline_pots),
                               _read(pots_spec, "A_max", float, where=inline_pots))
    declared = _read(pots_spec, "time_independent", bool, pots.time_independent, inline_pots)
    if declared != pots.time_independent:
        names = "do not name" if pots.time_independent else "name"
        raise ConfigurationError(
            f"inline potentials declare time_independent={declared}, but V and A1 {names} t")
    # the cache key carries the derived declaration, stated or not
    keyed = dict(spec, potentials=dict(pots_spec, time_independent=pots.time_independent))
    return model.ProblemSetup(
        *domain, epsilon, _read(spec, "T0", float, 2.0, inline), pots, phi0,
        expand_with_horizon=_read(spec, "expand_with_horizon", bool, False, inline),
        key={"inline": keyed, "epsilon": epsilon},
    )


_REFERENCE_KEYS = ("kind", "h_e", "tau_e", "min_space_ratio")


def _reference_config(cfg: dict, args) -> ReferenceConfig:
    spec = cfg.get("reference")
    spec = {} if spec is None else {"kind": spec} if isinstance(spec, str) else spec
    if not isinstance(spec, dict):
        raise ConfigurationError(f"'reference' must be a scheme name or an object, got {spec!r}")
    if unknown := sorted(set(spec) - set(_REFERENCE_KEYS)):
        raise ConfigurationError(
            f"unknown 'reference' keys {unknown}; known keys: {list(_REFERENCE_KEYS)}")
    where = "'reference'"
    return ReferenceConfig(
        kind=_read(spec, "kind", str, "tsfp", where),
        h_e=_read(spec, "h_e", float, None, where),
        tau_e=_read(spec, "tau_e", float, None, where),
        min_space_ratio=_read(spec, "min_space_ratio", float, 4.0, where),
        cache=ReferenceCache(args.cache_dir) if args.cache_dir else None,
    )


def _discretize(setup: model.ProblemSetup, cfg: dict) -> model.DiracProblem:
    return setup.discretize(h=_read(cfg, "h", float, None), N=_read(cfg, "N", int, None))


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(cfg: dict, args) -> int:
    scheme, tau = _read(cfg, "scheme", str), _read(cfg, "tau", float)
    problem = _discretize(_build_setup(cfg), cfg)
    config = harness.SchemeConfig(
        scheme=scheme, tau=tau, t_final=_read(cfg, "t_final", float, None),
        record="mass+energy" if problem.time_independent else "mass",
        record_every=_read(cfg, "record_every", int, 1),
        override_stability=args.override_stability,
        stop_norm_ratio=_read(cfg, "stop_norm_ratio", float, 1e6),
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
        table = getattr(harness, name)(
            _build_setup(cfg), _read(cfg, "scheme", str), _read(cfg, "eps_list", [float]),
            levels=_read(cfg, "levels", int), reference=_reference_config(cfg, args),
            workers=args.workers, **{k: _read(cfg, k, float) for k in ladder_keys})
        _write(harness.emit_csv(table), args)
        return EXIT_OK
    return command


def _cmd_stability(cfg: dict, args) -> int:
    tau = _read(cfg, "tau", float)
    problem = _discretize(_build_setup(cfg), cfg)
    h, bounds = problem.grid.h, problem.operator_bounds
    verdicts = {s: schemes.validate(s, h, tau, *bounds) for s in schemes.ALL_SCHEMES}
    requested = _read(cfg, "scheme", str, "").lower()
    # the requested name is refused, if at all, by the scheme registry
    verdict = schemes.validate(requested, h, tau, *bounds) if requested else None
    lines = [str(v) + (" <-- requested" if s == requested else "") for s, v in verdicts.items()]
    _write("\n".join(lines) + "\n", args)
    if verdict and not verdict.ok:
        raise StabilityError(f"requested scheme is unstable: {verdict}", verdict=verdict)
    return EXIT_OK


def _cmd_compare(cfg: dict, args) -> int:
    series = harness.compare_over_time(
        _build_setup(cfg), _read(cfg, "schemes", [str]), _read(cfg, "h", float),
        _read(cfg, "tau", float), _read(cfg, "snapshots", int, 20),
        reference=_reference_config(cfg, args))
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
