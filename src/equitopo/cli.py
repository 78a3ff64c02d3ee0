"""Command-line front end.

Subcommands: topo-build, topo-verify, consensus, size-sweep, dsgd, dsgt
(`build` and `verify` are accepted as short aliases for the first two).
Options may come from flags or a flat `key = value` config file; flags win.
Every command writes a CSV artifact plus a `<out>.meta` sidecar echoing the
fully resolved configuration, so reruns from the sidecar are byte-identical.

Exit codes: 0 success; 2 usage or parameter error, work refused because it would
not fit in physical memory, or memory running out; 3 construction failure;
4 divergence.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import types
import typing
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .consensus import consensus_experiment, size_independence_experiment
from .errors import ConstructionError, ParameterError
from .optim import ALGORITHMS, StepSchedule, make_least_squares, make_logistic_ncvx, run
from .output import atomic_write, atomic_write_text, sidecar_path, sidecar_text
from .seeds import make_rng
from .spectral import consensus_factor, empirical_contraction
from .topology import (EQUI_DYNAMIC_FAMILIES, EQUI_STATIC_FAMILIES, DynSampler,
                       TopologySpec, build_topology, default_basis_count, matrix_csv_text)

ALIASES = {"build": "topo-build", "verify": "topo-verify"}
PROBLEMS = ("least-squares", "logistic")
OUT_DIR_ENV = "EQUITOPO_OUT_DIR"

# sidecars carry measured values on top of the config echo; these keys, and the
# `tol` and `converged` of older sidecars, are skipped when one is read back
OUTPUT_ONLY_KEYS = {"rho_measured", "rho_target", "basis_index", "method", "rho_tolerance",
                    "converged", "tol", "slopes", "diverged_trials", "diverged_at"}


class UsageError(Exception):
    pass


@dataclass
class ExperimentConfig:
    """Every field a command can take; None is unset.  A command's required
    fields and its defaults for the rest are in its `_COMMANDS` entry."""

    command: str
    family: str | None = None
    n: int | None = None
    rho: float = 0.5
    p: float = 0.5
    m: int | None = None
    m_log_scale: float | None = None
    eta: float = 0.5
    seed: int = 0
    iters: int | None = None
    trials: int | None = None
    sizes: tuple[int, ...] | None = None
    problem: str | None = None
    d: int = 10
    samples: int = 50
    sigma_s: float = 0.1
    sigma_n: float = 1.0
    sigma_h: float = 0.2
    reg: float = 0.001
    gamma0: float | None = None
    decay_factor: float = 1.0
    decay_period: int | None = None
    out: str | None = None


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _parser(hint):
    """Parser of one field's raw string, read off its annotation."""
    if isinstance(hint, types.UnionType):   # `X | None`
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:
        return _int_list
    return hint if hint in (int, float) else str


_PARSERS = {name: _parser(hint)
            for name, hint in typing.get_type_hints(ExperimentConfig).items()}

# the checks only the command line makes; TopologySpec alone checks family,
# n, rho, p, m and eta, and StepSchedule gamma0, decay_factor and decay_period
_VALID = {
    **dict.fromkeys(("iters", "trials", "samples", "d"), lambda v: v >= 1),
    "m_log_scale": lambda v: v > 0.0,
    **dict.fromkeys(("sigma_s", "sigma_n", "sigma_h", "reg"), lambda v: v >= 0.0),
    "problem": lambda v: v in PROBLEMS,
}


def _coerce(key: str, raw: str):
    try:
        value = _PARSERS[key](raw)
    except ValueError as exc:
        raise UsageError(f"field {key!r}: {exc}")
    # every float must be finite, on top of the field's own check
    if (isinstance(value, float) and not math.isfinite(value)) or \
            (key in _VALID and not _VALID[key](value)):
        raise UsageError(f"field {key!r}: value {value!r} out of range")
    return value


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")   # as `atomic_write_text` writes it
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("-", "_")
        if key in OUTPUT_ONLY_KEYS:
            continue
        if key not in _PARSERS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every command name gets a subparser, so `topo --help` and an unknown
    command's error list them all; only `command`'s gets its flags, the one
    argparse reads."""
    parser = argparse.ArgumentParser(prog="topo", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS + tuple(ALIASES):
        p = sub.add_parser(name)
        if name != command:
            continue
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output CSV path")
        for key in _COMMON_FLAGS + _COMMANDS[ALIASES.get(name, name)].flags:
            p.add_argument("--" + key.replace("_", "-"))
    return parser


def parse_config(argv) -> ExperimentConfig:
    """Resolve flags over config-file values into a validated ExperimentConfig.

    A `--help` prints its text and raises argparse's SystemExit(0).
    """
    parser = _build_parser(argv[0] if argv else None)
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:
            raise
        raise UsageError("invalid arguments")
    if namespace.command is None:
        raise UsageError(f"missing command; expected one of {COMMANDS}")
    command = ALIASES.get(namespace.command, namespace.command)

    given = _read_config_file(namespace.config) if namespace.config else {}
    file_command = given.pop("command", command)
    if file_command != command:
        raise UsageError(
            f"config file says command = {file_command!r} but {command!r} was invoked")
    flags = {key: _coerce(key, raw) for key, raw in vars(namespace).items()
             if key not in ("command", "config") and raw is not None}

    config = ExperimentConfig(command=command,
                              **{**_COMMANDS[command].defaults, **given, **flags})
    for field_name in _COMMANDS[command].required:
        if getattr(config, field_name) is None:
            raise UsageError(f"missing required field {field_name!r} for {command}")
    # TopologySpec alone judges the topology fields, and StepSchedule the step
    # fields of dsgd and dsgt: every value given, also a file value a flag
    # overrides, at every size named, before any work
    for judged in (config, replace(config, **given)):
        for n in (judged.sizes or ()) + (judged.n,):
            if n is not None:
                _spec_from(judged, n)
        if command in ALGORITHMS:
            _schedule_from(judged)
    return config


def _spec_from(config: ExperimentConfig, n=None) -> TopologySpec:
    return TopologySpec(family=config.family, n=n if n is not None else config.n,
                        rho=config.rho, p=config.p, m=config.m, eta=config.eta,
                        seed=config.seed)


def _schedule_from(config: ExperimentConfig) -> StepSchedule:
    return StepSchedule(config.gamma0, config.decay_factor, config.decay_period)


def _m_for(config: ExperimentConfig, default):
    """M at size n: the set m, else `default(n)` for the equi families, else None."""
    if config.m is None and config.family in EQUI_STATIC_FAMILIES + EQUI_DYNAMIC_FAMILIES:
        return default
    return lambda n: config.m


def _resolved_m(config: ExperimentConfig) -> int | None:
    return _m_for(config, lambda n: default_basis_count(n, config.rho, config.p))(config.n)


def _config_echo(config: ExperimentConfig) -> dict:
    echo = {"command": config.command}
    for f in dataclass_fields(ExperimentConfig):
        if f.name in ("command", "out"):
            continue
        echo[f.name.replace("_", "-")] = getattr(config, f.name)
    if config.command != "size-sweep":
        echo["m"] = _resolved_m(config)
    echo["out"] = config.out
    return echo


def _out_path(config: ExperimentConfig, suffix="") -> Path:
    if config.out:
        base = Path(config.out)
    else:
        out_dir = Path(os.environ.get(OUT_DIR_ENV, "."))
        base = out_dir / f"{config.command}.csv"
    if suffix:
        base = base.with_name(base.stem + suffix + base.suffix)
    return base


def _write(config, path, csv, extra_meta=None):
    atomic_write_text(path, csv)
    _write_sidecar(config, path, extra_meta)


def _write_sidecar(config, path, extra_meta=None):
    meta = _config_echo(config)
    if extra_meta:
        meta.update(extra_meta)
    atomic_write_text(sidecar_path(path), sidecar_text(meta))


def _cmd_topo_build(config: ExperimentConfig) -> int:
    w = build_topology(_spec_from(config)).sample()   # a dynamic family's first draw
    est = consensus_factor(w)
    path = _out_path(config)
    meta = {"rho_target": config.rho, "rho_measured": est.value, "method": est.method,
            "basis_index": w.basis_index, "rho_tolerance": est.tolerance_or_stderr}
    atomic_write(path, matrix_csv_text(w))   # a refused export raises before the temp file
    _write_sidecar(config, path, meta)
    print(f"built {config.family} n={config.n} rho_measured={est.value!r} -> {path}")
    return 0


def _cmd_topo_verify(config: ExperimentConfig) -> int:
    topo = build_topology(_spec_from(config))
    if isinstance(topo, DynSampler):
        est = empirical_contraction(topo, config.trials, rng=make_rng(config.seed, "verify"))
        rho_measured = math.sqrt(est.value)
    else:
        est = consensus_factor(topo)
        rho_measured = est.value
    m = _resolved_m(config)
    path = _out_path(config)
    header = "family,n,M,rho_target,rho_measured,method,trials"
    line = (f"{config.family},{config.n},{'' if m is None else m},"
            f"{config.rho!r},{rho_measured!r},{est.method},{est.iterations_or_trials}")
    _write(config, path, header + "\n" + line + "\n",
           {"rho_target": config.rho, "rho_measured": rho_measured, "method": est.method,
            "rho_tolerance": est.tolerance_or_stderr})
    verdict = "<=" if rho_measured <= config.rho else ">"
    print(f"{config.family} n={config.n} rho_measured={rho_measured!r} "
          f"{verdict} rho_target={config.rho!r}")
    return 0


def _cmd_consensus(config: ExperimentConfig) -> int:
    trace = consensus_experiment(_spec_from(config), config.iters, config.trials)
    path = _out_path(config)
    _write(config, path, trace.csv_text())
    final = trace.residual[:, -1]
    print(f"{config.family} n={config.n} mean final residual {float(final.mean())!r} -> {path}")
    return 0


def _cmd_size_sweep(config: ExperimentConfig) -> int:
    scale = config.m_log_scale if config.m_log_scale is not None else 5.0
    m_for = _m_for(config, lambda n: math.ceil(scale * math.log(n)))
    sweep = size_independence_experiment(config.family, config.sizes, config.iters,
                                         config.trials, master_seed=config.seed,
                                         rho=config.rho, p=config.p, eta=config.eta,
                                         m_for=m_for)
    for entry in sweep.entries:
        _write(config, _out_path(config, suffix=f"-n{entry.n}"), entry.trace.csv_text())
    summary = "family,n,slope\n" + "".join(
        f"{config.family},{e.n},{e.slope!r}\n" for e in sweep.entries)
    path = _out_path(config, suffix="-slopes")
    _write(config, path, summary, {"slopes": tuple(e.slope for e in sweep.entries)})
    slopes = ", ".join(f"n={e.n}: {e.slope:.4f}" for e in sweep.entries)
    print(f"{config.family} decay slopes {slopes} -> {path}")
    return 0


def _make_problem(config: ExperimentConfig):
    rng = make_rng(config.seed, "problem")
    if config.problem == "least-squares":
        return make_least_squares(config.n, config.d, config.samples,
                                  config.sigma_s, config.sigma_n, rng)
    return make_logistic_ncvx(config.n, config.d, config.samples, config.reg,
                              config.sigma_h, config.sigma_n, rng)


def _cmd_optim(config: ExperimentConfig) -> int:
    problem = _make_problem(config)
    trace = run(config.command, problem, _spec_from(config), _schedule_from(config),
                config.iters, config.trials, master_seed=config.seed)
    path = _out_path(config)
    _write(config, path, trace.csv_text(),
           {"diverged_trials": trace.diverged_trials or None,
            "diverged_at": trace.diverged_at or None})
    last = trace.records[0]
    final = (f"final grad_norm_sq={float(last['grad_norm_sq'][-1])!r} final loss="
             f"{float(last['loss'][-1])!r}" if last["loss"].size else "no finite record")
    status = "diverged" if trace.diverged else "ok"
    print(f"{config.command} {config.problem} {config.family} n={config.n} {final} "
          f"[{status}] -> {path}")
    return 4 if trace.diverged else 0


class Command(NamedTuple):
    """What the command line knows of one command."""

    required: tuple[str, ...]
    flags: tuple[str, ...]     # on top of _COMMON_FLAGS
    defaults: dict
    run: Callable[[ExperimentConfig], int]


_COMMON_FLAGS = ("seed", "family", "n", "rho", "p", "m", "eta")
_OPTIM_FLAGS = ("iters", "trials", "problem", "d", "samples", "sigma_s", "sigma_n",
                "sigma_h", "reg", "gamma0", "decay_factor", "decay_period")
_COMMANDS = {
    "topo-build": Command(("family", "n"), (), {"trials": 3}, _cmd_topo_build),
    "topo-verify": Command(("family", "n"), ("trials",), {"trials": 1000}, _cmd_topo_verify),
    "consensus": Command(("family", "n", "iters"), ("iters", "trials"), {"trials": 3},
                         _cmd_consensus),
    "size-sweep": Command(("family", "sizes", "iters"),
                          ("sizes", "iters", "trials", "m_log_scale"), {"trials": 3},
                          _cmd_size_sweep),
    "dsgd": Command(("family", "n", "iters"), _OPTIM_FLAGS,
                    {"trials": 3, "problem": "least-squares", "gamma0": 0.037}, _cmd_optim),
    "dsgt": Command(("family", "n", "iters"), _OPTIM_FLAGS,
                    {"trials": 3, "problem": "logistic", "gamma0": 1.5}, _cmd_optim),
}
COMMANDS = tuple(_COMMANDS)


def main(argv=None) -> int:
    try:
        config = parse_config(argv if argv is not None else sys.argv[1:])
        return _COMMANDS[config.command].run(config)
    except SystemExit as exc:   # a --help, its text printed
        return exc.code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:   # an allocation that no memory check counted
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
