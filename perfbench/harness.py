"""Timed, checked executions of one workload through `equitopo.cli.main`.

A run draws a sequence of program seeds from the harness seed and executes
the workload's command once per program seed until the time budget is spent.
The work of one command depends strongly on its seed (power iteration needs
from tens to thousands of steps), so `run_s` is the median over many seeds
rather than repeats of one.  The first program seed is executed twice, once
untimed to finish lazy set-up and once timed; every repeat of a seed must
write the same CSV bytes.  Each output is checked outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import equitopo.cli
from spans import SELF_TIME, Tracer, exact_counts, per_layer_metrics, run_summary
from workloads import CheckError, Workload

CALL_TIMEOUT_S = 60
SETUP_STARTS = 5


class CallTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CallTimeout(f"main() did not return within {CALL_TIMEOUT_S} s")


@dataclass
class Outcome:
    seed: int
    elapsed: float | None = None   # None when the execution failed


@dataclass
class Ledger:
    """Every execution attempted, its failures, and the CSV hash per program seed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    hashes: dict[int, str] = field(default_factory=dict)

    def fail(self, outcome: Outcome, message: str) -> Outcome:
        outcome.elapsed = None
        self.failures.append(f"seed {outcome.seed}: {message}")
        return outcome


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def execute(workload: Workload, seed: int, out: Path, ledger: Ledger, call=None) -> Outcome:
    """One `main(argv)` call, timed, then its output checked (outside the timing)."""
    call = call or (lambda fn, argv: fn(argv))
    argv = workload.argv(seed, out)
    outcome = Outcome(seed)
    ledger.attempted += 1
    stdout, stderr = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CALL_TIMEOUT_S)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            code = call(equitopo.cli.main, argv)
            elapsed = time.perf_counter() - start
    except CallTimeout as exc:
        return ledger.fail(outcome, str(exc))
    except Exception:
        return ledger.fail(outcome, "raised\n" + traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if code != 0:
        return ledger.fail(outcome, f"exit code {code}: {stderr.getvalue().strip()}")
    try:
        digest = _sha256(out)
        if seed not in ledger.hashes:
            workload.check(out, workload)
            ledger.hashes[seed] = digest
        elif ledger.hashes[seed] != digest:
            return ledger.fail(outcome, "repeat wrote a different CSV")
    except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
        return ledger.fail(outcome, f"output check failed: {type(exc).__name__}: {exc}")
    outcome.elapsed = elapsed
    return outcome


def timed_sweep(workload: Workload, seed: int, seconds: float, out: Path, ledger: Ledger,
                tracer: Tracer | None = None) -> tuple[list[Outcome], list[Outcome]]:
    """Untimed warm-up, then one execution per program seed until `seconds` have passed.

    With a tracer, each program seed is also executed traced right after its
    untraced execution, so both see the same state of a noisy machine.
    Returns the untraced and the traced outcomes.
    """
    seeds = random.Random(seed)
    program_seed = seeds.getrandbits(32)
    execute(workload, program_seed, out, ledger)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(execute(workload, program_seed, out, ledger))
        if tracer is not None:
            traced.append(execute(workload, program_seed, out, ledger, tracer.call))
        if time.perf_counter() >= deadline:
            return untraced, traced
        program_seed = seeds.getrandbits(32)


def measure_setup(starts: int = SETUP_STARTS) -> list[float]:
    """Seconds from a fresh interpreter's start until `equitopo.cli` is imported.

    The interpreter imports the same source tree as this process.
    """
    src = Path(equitopo.cli.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    code = "import equitopo.cli; print('ready', flush=True)"
    samples = []
    for _ in range(starts):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env,
                              cwd=src.parent, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=CALL_TIMEOUT_S) != 0 or line.strip() != "ready":
                raise RuntimeError(f"interpreter start failed (exit {proc.returncode})")
    return samples


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine_facts() -> dict:
    root = Path(equitopo.cli.__file__).parent.parent.parent
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = None
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        # the ceiling keeps git from searching the directories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
        top, commit = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                                     env=env, capture_output=True, text=True, timeout=10,
                                     check=True).stdout.split()
        commit = commit if Path(top).resolve() == root.resolve() else None
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = None   # not a git checkout: src_sha256 identifies the code
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "equitopo").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": openblas,
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def end_to_end(workload: Workload, seed: int, seconds: float, work: Path,
               ledger: Ledger) -> tuple[dict, dict]:
    setup = measure_setup()
    outcomes, _ = timed_sweep(workload, seed, seconds, work / f"{workload.name}.csv", ledger)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    times = [o.elapsed for o in outcomes if o.elapsed is not None]
    if not times:
        raise RuntimeError("no execution succeeded:\n" + "\n".join(ledger.failures[:3]))
    metrics = {
        "run_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    detail = {"run_s_quartiles": _quartiles(times), "run_s_samples": len(times),
              "setup_s_quartiles": _quartiles(setup), "setup_s_samples": len(setup),
              "program_seeds": len({o.seed for o in outcomes})}
    return metrics, detail


def per_layer(workload: Workload, seed: int, seconds: float, work: Path,
              ledger: Ledger) -> tuple[dict, dict]:
    """Untraced and traced execution of each program seed; the first is traced twice.

    The exact counts of the two traced executions of the first seed must agree.
    """
    out = work / f"{workload.name}.csv"
    tracer = Tracer()
    untraced, traced = timed_sweep(workload, seed, seconds, out, ledger, tracer)
    repeat = execute(workload, traced[0].seed, out, ledger, tracer.call)
    tracer.write(work / f"{workload.name}-seed{seed}.spans.jsonl")
    by_run: dict[int, list] = {}
    for span in tracer.spans:
        by_run.setdefault(span.run, []).append(span)
    summaries = [run_summary(by_run[run]) if o.elapsed is not None else None
                 for run, o in enumerate(traced + [repeat])]
    if summaries[0] is not None and summaries[-1] is not None \
            and exact_counts(summaries[0]) != exact_counts(summaries[-1]):
        ledger.fail(repeat, "exact counts differ between two traced executions")
    ratios = [t.elapsed / u.elapsed for u, t in zip(untraced, traced)
              if u.elapsed is not None and t.elapsed is not None]
    done = [s for s in summaries[:-1] if s is not None]
    if not done or not ratios:
        raise RuntimeError("no traced execution succeeded:\n" + "\n".join(ledger.failures[:3]))
    metrics = per_layer_metrics(done, statistics.median(ratios) - 1.0)
    shares = {name: metrics[name][0] / metrics["trace.run_s"][0]
              for name in (*SELF_TIME.values(), "other.s")}
    return metrics, {"traced_executions": len(done), "shares_of_run_s": shares}


def main(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> int:
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    measure = per_layer if trace else end_to_end
    try:
        metrics, detail = measure(workload, seed, seconds, work, ledger)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = len(ledger.failures)
    result = {
        "correct": failed == 0, "attempted": ledger.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report = {"workload": workload.name, "command": [workload.command, *workload.flags()],
              "seed": seed, "seconds": seconds, "trace": trace,
              "failed_frac": failed / ledger.attempted, "failures": ledger.failures,
              "machine": machine_facts(), **detail, **result}
    (work / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    for message in ledger.failures:
        print(f"failure: {message}", file=sys.stderr)
    print(json.dumps({k: v for k, v in report.items() if k not in result}))
    print(json.dumps(result))
    return 0
