"""Command-line front end.

Subcommands: topo-build, topo-verify, consensus, size-sweep, dsgd, dsgt
(`build` and `verify` are accepted as short aliases for the first two).
Options may come from flags or a flat `key = value` config file; flags win.
Every command writes a CSV artifact plus a `<out>.meta` sidecar echoing the
fully resolved configuration, so reruns from the sidecar are byte-identical.

Exit codes: 0 success, 2 usage error, 3 construction failure, 4 divergence.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

from .consensus import consensus_experiment, size_independence_experiment
from .errors import ConstructionError, ParameterError
from .optim import StepSchedule, make_least_squares, make_logistic_ncvx, run
from .output import atomic_write_text, sidecar_path, sidecar_text
from .seeds import make_rng
from .spectral import consensus_factor, empirical_contraction
from .topology import (EQUI_DYNAMIC_FAMILIES, EQUI_STATIC_FAMILIES, FAMILIES,
                       DynSampler, TopologySpec, build_topology, default_basis_count,
                       matrix_csv_text)

COMMANDS = ("topo-build", "topo-verify", "consensus", "size-sweep", "dsgd", "dsgt")
ALIASES = {"build": "topo-build", "verify": "topo-verify"}
PROBLEMS = ("least-squares", "logistic")
OUT_DIR_ENV = "EQUITOPO_OUT_DIR"

# sidecars carry measured values on top of the config echo; these keys are
# skipped when a sidecar is fed back in as a config file
OUTPUT_ONLY_KEYS = {"rho_measured", "rho_target", "basis_index", "method", "rho_tolerance",
                    "converged", "slopes", "diverged_trials"}


class UsageError(Exception):
    pass


@dataclass
class ExperimentConfig:
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
    tol: float = 1e-10
    sizes: tuple[int, ...] | None = None
    problem: str | None = None
    d: int = 10
    samples: int = 50
    sigma_s: float = 0.1
    sigma_n: float = 1.0
    sigma_h: float = 0.2
    reg: float = 0.001
    gamma0: float | None = None   # resolved per command: dsgd 0.037, dsgt 1.5
    decay_factor: float = 1.0
    decay_period: int | None = None
    out: str | None = None


_INT = ("n", "m", "seed", "iters", "trials", "samples", "d", "decay_period")
_FLOAT = ("rho", "p", "eta", "tol", "sigma_s", "sigma_n", "sigma_h", "reg",
          "gamma0", "decay_factor", "m_log_scale")
_RANGES = {
    "rho": lambda v: 0.0 < v < 1.0,
    "p": lambda v: 0.0 < v < 1.0,
    "eta": lambda v: 0.0 < v < 1.0,
    "n": lambda v: v >= 2,
    "m": lambda v: v >= 1,
    "iters": lambda v: v >= 1,
    "trials": lambda v: v >= 1,
    "tol": lambda v: v > 0.0,
    "sigma_s": lambda v: v >= 0.0,
    "sigma_n": lambda v: v >= 0.0,
    "sigma_h": lambda v: v >= 0.0,
    "reg": lambda v: v >= 0.0,
    "gamma0": lambda v: v > 0.0,
    "decay_factor": lambda v: v >= 1.0,
    "decay_period": lambda v: v >= 1,
    "samples": lambda v: v >= 1,
    "d": lambda v: v >= 1,
    "m_log_scale": lambda v: v > 0.0,
}
_CHOICES = {"family": FAMILIES, "problem": PROBLEMS, "command": COMMANDS}


def _coerce(key: str, raw):
    if raw is None or not isinstance(raw, str):
        value = raw
    elif key in _INT:
        try:
            value = int(raw)
        except ValueError:
            raise UsageError(f"field {key!r}: expected an integer, got {raw!r}")
    elif key in _FLOAT:
        try:
            value = float(raw)
        except ValueError:
            raise UsageError(f"field {key!r}: expected a number, got {raw!r}")
    elif key == "sizes":
        try:
            value = tuple(int(part) for part in raw.split(",") if part.strip())
        except ValueError:
            raise UsageError(f"field 'sizes': expected comma-separated integers, got {raw!r}")
    else:
        value = raw
    if key in _RANGES and value is not None and not _RANGES[key](value):
        raise UsageError(f"field {key!r}: value {value!r} out of range")
    if key in _CHOICES and value is not None and value not in _CHOICES[key]:
        raise UsageError(f"field {key!r}: {value!r} not one of {_CHOICES[key]}")
    return value


def _read_config_file(path: str) -> dict:
    known = {f.name for f in dataclass_fields(ExperimentConfig)}
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("-", "_")
        if key in OUTPUT_ONLY_KEYS:
            continue
        if key not in known:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw)
    return values


_REQUIRED = {
    "topo-build": ("family", "n"),
    "topo-verify": ("family", "n"),
    "consensus": ("family", "n", "iters"),
    "size-sweep": ("family", "sizes", "iters"),
    "dsgd": ("family", "n", "iters"),
    "dsgt": ("family", "n", "iters"),
}
# fields every command takes as flags, then each command's own; values stay
# strings until `_coerce`
_COMMON_FLAGS = ("seed", "family", "n", "rho", "p", "m", "eta")
_OPTIM_FLAGS = ("iters", "trials", "problem", "d", "samples", "sigma_s", "sigma_n",
                "sigma_h", "reg", "gamma0", "decay_factor", "decay_period")
_FLAGS = {
    "topo-build": ("tol",),
    "topo-verify": ("trials", "tol"),
    "consensus": ("iters", "trials"),
    "size-sweep": ("sizes", "iters", "trials", "m_log_scale"),
    "dsgd": _OPTIM_FLAGS,
    "dsgt": _OPTIM_FLAGS,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="topo", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS + tuple(ALIASES):
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output CSV path")
        for key in _COMMON_FLAGS + _FLAGS[ALIASES.get(name, name)]:
            p.add_argument("--" + key.replace("_", "-"))
    return parser


def parse_config(argv) -> ExperimentConfig:
    """Resolve flags over config-file values into a validated ExperimentConfig."""
    parser = _build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit:
        raise UsageError("invalid arguments")
    if namespace.command is None:
        raise UsageError(f"missing command; expected one of {COMMANDS}")
    command = ALIASES.get(namespace.command, namespace.command)

    values = {}
    config_path = getattr(namespace, "config", None)
    if config_path:
        values.update(_read_config_file(config_path))
    if "command" in values and values["command"] != command:
        raise UsageError(
            f"config file says command = {values['command']!r} but {command!r} was invoked")
    values.pop("command", None)
    for key, raw in vars(namespace).items():
        if key in ("command", "config") or raw is None:
            continue
        values[key.replace("-", "_")] = _coerce(key.replace("-", "_"), raw)

    config = ExperimentConfig(command=command, **values)
    for field_name in _REQUIRED[command]:
        if getattr(config, field_name) is None:
            raise UsageError(f"missing required field {field_name!r} for {command}")
    if config.trials is None:
        config.trials = 1000 if command == "topo-verify" else 3
    if command in ("dsgd", "dsgt"):
        if config.problem is None:
            config.problem = "least-squares" if command == "dsgd" else "logistic"
        if config.gamma0 is None:
            config.gamma0 = 0.037 if command == "dsgd" else 1.5
    return config


def _spec_from(config: ExperimentConfig, n=None, m=None, seed=None) -> TopologySpec:
    return TopologySpec(family=config.family, n=n if n is not None else config.n,
                        rho=config.rho, p=config.p, m=m if m is not None else config.m,
                        eta=config.eta, seed=seed if seed is not None else config.seed)


def _resolved_m(config: ExperimentConfig) -> int | None:
    if config.m is not None:
        return config.m
    if config.family in EQUI_STATIC_FAMILIES + EQUI_DYNAMIC_FAMILIES and config.n:
        return default_basis_count(config.n, config.rho, config.p)
    return None


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
    meta = _config_echo(config)
    if extra_meta:
        meta.update(extra_meta)
    atomic_write_text(sidecar_path(path), sidecar_text(meta))


def _accuracy_meta(est) -> dict:
    """How exact `est` is; `converged = False` marks power iteration stopped at its cap."""
    meta = {"rho_tolerance": est.tolerance_or_stderr}
    if not est.converged:
        meta["converged"] = False
    return meta


def _cmd_topo_build(config: ExperimentConfig) -> int:
    topo = build_topology(_spec_from(config))
    # dynamic families export their first realization
    w = topo.sample() if isinstance(topo, DynSampler) else topo
    est = consensus_factor(w, tol=config.tol)
    path = _out_path(config)
    meta = {"rho_target": config.rho, "rho_measured": est.value, "method": est.method}
    if w.basis_index is not None:
        meta["basis_index"] = w.basis_index
    meta.update(_accuracy_meta(est))
    _write(config, path, matrix_csv_text(w), meta)
    print(f"built {config.family} n={config.n} rho_measured={est.value!r} -> {path}")
    return 0


def _cmd_topo_verify(config: ExperimentConfig) -> int:
    topo = build_topology(_spec_from(config))
    if isinstance(topo, DynSampler):
        est = empirical_contraction(topo, config.trials,
                                    rng=make_rng(config.seed, "verify"))
        rho_measured = math.sqrt(est.value)
        trials = est.iterations_or_trials
    else:
        est = consensus_factor(topo, tol=config.tol)
        rho_measured = est.value
        trials = est.iterations_or_trials
    m = _resolved_m(config)
    path = _out_path(config)
    header = "family,n,M,rho_target,rho_measured,method,trials"
    line = (f"{config.family},{config.n},{'' if m is None else m},"
            f"{config.rho!r},{rho_measured!r},{est.method},{trials}")
    _write(config, path, header + "\n" + line + "\n",
           {"rho_target": config.rho, "rho_measured": rho_measured, "method": est.method,
            **_accuracy_meta(est)})
    verdict = "<=" if rho_measured <= config.rho else ">"
    print(f"{config.family} n={config.n} rho_measured={rho_measured!r} "
          f"{verdict} rho_target={config.rho!r}")
    return 0


def _cmd_consensus(config: ExperimentConfig) -> int:
    trace = consensus_experiment(_spec_from(config), config.iters, config.trials,
                                 master_seed=config.seed)
    path = _out_path(config)
    _write(config, path, trace.csv_text())
    final = trace.residual[trace.iteration == config.iters]
    print(f"{config.family} n={config.n} mean final residual {float(final.mean())!r} -> {path}")
    return 0


def _cmd_size_sweep(config: ExperimentConfig) -> int:
    scale = config.m_log_scale if config.m_log_scale is not None else 5.0
    m_for = (lambda n: config.m) if config.m is not None else \
        ((lambda n: math.ceil(scale * math.log(n)))
         if config.family in EQUI_STATIC_FAMILIES + EQUI_DYNAMIC_FAMILIES else None)
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
    schedule = StepSchedule(config.gamma0, config.decay_factor, config.decay_period)
    trace = run(config.command, problem, _spec_from(config), schedule,
                config.iters, config.trials, master_seed=config.seed)
    path = _out_path(config)
    _write(config, path, trace.csv_text(),
           {"diverged_trials": trace.diverged_trials or None})
    last = trace.records[0]
    status = "diverged" if trace.diverged else "ok"
    print(f"{config.command} {config.problem} {config.family} n={config.n} "
          f"final grad_norm_sq={float(last['grad_norm_sq'][-1])!r} "
          f"final loss={float(last['loss'][-1])!r} [{status}] -> {path}")
    return 4 if trace.diverged else 0


_DISPATCH = {
    "topo-build": _cmd_topo_build,
    "topo-verify": _cmd_topo_verify,
    "consensus": _cmd_consensus,
    "size-sweep": _cmd_size_sweep,
    "dsgd": _cmd_optim,
    "dsgt": _cmd_optim,
}


def run_command(config: ExperimentConfig) -> int:
    return _DISPATCH[config.command](config)


def main(argv=None) -> int:
    try:
        config = parse_config(argv if argv is not None else sys.argv[1:])
        return run_command(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
