"""Span tracing from outside the program.

For the duration of one `Tracer.call()`, the public functions through which
each layer is entered are replaced with wrappers, at every name a caller
looks up (for example both `equitopo.spectral.consensus_factor` and
`equitopo.cli.consensus_factor`); the originals are put back afterwards.  A
span is (id, name, start, end, parent, run id); spans stay in memory until
`write()`.  Counts are attached to spans after the wrapped call returns, so
computing them is outside the span.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

import numpy as np

import equitopo.cli
import equitopo.consensus
import equitopo.optim
import equitopo.spectral
import equitopo.topology
from equitopo.optim import LeastSquaresProblem, LogisticProblem, OptTrace
from equitopo.topology import OdEquiDynSampler, OnePeerExpSampler, OuEquiDynSampler

ROOT = "cli.main"
CONSTRUCT = "topology.construct"
FACTOR = "spectral.factor"
SAMPLE = "topology.sample"
CONTRACTION = "spectral.contraction"
STEP = "optim.step"
ORACLE = "optim.oracle"
RECORD = "optim.record"
EMIT = "cli.emit"
LAYERS = (CONSTRUCT, FACTOR, SAMPLE, CONTRACTION, STEP, ORACLE, RECORD, EMIT)
# the per-layer metric holding each layer's self time; with other.s they sum to trace.run_s
SELF_TIME = {
    CONSTRUCT: "topology.construct.self_s", FACTOR: "spectral.factor.s",
    SAMPLE: "topology.sample.s", CONTRACTION: "spectral.contraction.self_s",
    STEP: "optim.step.self_s", ORACLE: "optim.oracle.s", RECORD: "optim.record.s",
    EMIT: "cli.emit.s",
}


def _factor_counts(result, args, kwargs):
    return {"iterations": result.iterations_or_trials, "unconverged": int(not result.converged)}


def _matched_frac(result, args, kwargs):
    """Share of rows with a stored off-diagonal entry (every row stores its diagonal)."""
    mat = result.mat
    off = np.diff(mat.indptr) - (mat.diagonal() != 0.0)
    return {"matched": float(np.count_nonzero(off)) / result.n}


def _mix_flops(products):
    def counts(result, args, kwargs):
        state, w = args[0], args[1]
        return {"flops": products * 2 * w.mat.nnz * state.x.shape[1]}
    return counts


def _contraction_trials(result, args, kwargs):
    return {"trials": result.iterations_or_trials}


def _emit_bytes(result, args, kwargs):
    return {"bytes": len(args[1].encode())}


def _accepted(result, args, kwargs):
    return {"accepted": 1}


# (layer, owner, attribute, counts computed from (result, args, kwargs))
TARGETS = (
    (CONSTRUCT, equitopo.cli, "build_topology", None),
    (CONSTRUCT, equitopo.optim, "build_topology", None),
    (CONSTRUCT, equitopo.consensus, "build_topology", None),
    (CONSTRUCT, equitopo.topology, "build_d_equistatic", _accepted),
    (CONSTRUCT, equitopo.topology, "build_u_equistatic", None),
    (FACTOR, equitopo.spectral, "consensus_factor", _factor_counts),
    (FACTOR, equitopo.cli, "consensus_factor", _factor_counts),
    (SAMPLE, OdEquiDynSampler, "sample", _matched_frac),
    (SAMPLE, OuEquiDynSampler, "sample", _matched_frac),
    (SAMPLE, OnePeerExpSampler, "sample", _matched_frac),
    (CONTRACTION, equitopo.spectral, "empirical_contraction", _contraction_trials),
    (CONTRACTION, equitopo.cli, "empirical_contraction", _contraction_trials),
    (STEP, equitopo.optim, "dsgd_step", _mix_flops(1)),
    (STEP, equitopo.optim, "dsgt_step", _mix_flops(2)),
    (ORACLE, LeastSquaresProblem, "stoch_grads_all", None),
    (ORACLE, LogisticProblem, "stoch_grads_all", None),
    (RECORD, LeastSquaresProblem, "loss", None),
    (RECORD, LeastSquaresProblem, "global_grad", None),
    (RECORD, LogisticProblem, "loss", None),
    (RECORD, LogisticProblem, "global_grad", None),
    (EMIT, equitopo.cli, "matrix_csv_text", None),
    (EMIT, OptTrace, "csv_text", None),
    (EMIT, equitopo.cli, "atomic_write_text", _emit_bytes),
)


@dataclass
class Span:
    id: int
    name: str
    start: int
    parent: int | None
    run: int
    end: int = 0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.run = -1

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter_ns(), parent, self.run)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def call(self, fn, *args, **kwargs):
        """Run fn(*args) as one traced execution under a root span; returns its result.

        The wrappers are in place only for the duration of the call.
        """
        self.run += 1
        self._install()
        try:
            root = self.open(ROOT)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(root)
        finally:
            self._uninstall()

    def _wrap(self, layer, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span.counts = counts(result, args, kwargs)
            return result
        return traced

    def _install(self) -> None:
        for layer, owner, attr, counts in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, counts))

    def _uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start_ns": s.start,
                                     "end_ns": s.end, "parent": s.parent, "run": s.run,
                                     **s.counts}) + "\n")


def run_summary(spans: list[Span]) -> dict:
    """Per-layer self time and counts of one traced execution (spans of one run id)."""
    by_id = {s.id: s for s in spans}
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + s.end - s.start
    self_ns, calls = dict.fromkeys(LAYERS, 0), dict.fromkeys(LAYERS, 0)
    totals = dict.fromkeys(("iterations", "unconverged", "accepted", "trials", "flops", "bytes"), 0)
    attempts, sample_ms, matched = 0, [], []
    for s in spans:
        if s.name == ROOT:
            root_ns = s.end - s.start
            continue
        self_ns[s.name] += s.end - s.start - child_ns.get(s.id, 0)
        calls[s.name] += 1
        if s.name == FACTOR and by_id[s.parent].name == CONSTRUCT:
            attempts += 1
        if s.name == SAMPLE:
            sample_ms.append((s.end - s.start) / 1e6)
            matched.append(s.counts["matched"])
        for key, value in s.counts.items():
            if key != "matched":
                totals[key] += value
    layer_s = {layer: ns / 1e9 for layer, ns in self_ns.items()}
    return {
        "run_s": root_ns / 1e9, "self_s": layer_s, "other_s": root_ns / 1e9 - sum(layer_s.values()),
        "calls": calls, "attempts": attempts, "sample_ms": sample_ms, "matched": matched, **totals,
    }


def exact_counts(summary: dict) -> tuple:
    """The counts that must repeat exactly when the same input is executed again."""
    return (summary["attempts"], summary["iterations"], summary["calls"][SAMPLE],
            summary["matched"], summary["bytes"], summary["flops"])


def per_layer_metrics(summaries: list[dict], overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-execution means of self times and counts over the traced executions."""
    k = len(summaries)

    def mean(get):
        return sum(get(s) for s in summaries) / k

    sample_ms = np.array([ms for s in summaries for ms in s["sample_ms"]])
    matched = [m for s in summaries for m in s["matched"]]
    attempts = sum(s["attempts"] for s in summaries)
    metrics = {"trace.run_s": (mean(lambda s: s["run_s"]), "s")}
    for layer, name in SELF_TIME.items():
        metrics[name] = (mean(lambda s: s["self_s"][layer]), "s")
    metrics.update({
        "topology.construct.attempts": (mean(lambda s: s["attempts"]), "count"),
        "topology.construct.accept_ratio": (
            sum(s["accepted"] for s in summaries) / attempts if attempts else 0.0, "ratio"),
        "spectral.factor.calls": (mean(lambda s: s["calls"][FACTOR]), "count"),
        "spectral.factor.iterations": (mean(lambda s: s["iterations"]), "count"),
        "spectral.factor.unconverged": (mean(lambda s: s["unconverged"]), "count"),
        "topology.sample.calls": (mean(lambda s: s["calls"][SAMPLE]), "count"),
        "topology.sample.ms_p50": (
            float(np.percentile(sample_ms, 50)) if sample_ms.size else 0.0, "ms"),
        "topology.sample.ms_p99": (
            float(np.percentile(sample_ms, 99)) if sample_ms.size else 0.0, "ms"),
        "topology.sample.matched_frac": (
            sum(matched) / len(matched) if matched else 0.0, "ratio"),
        "spectral.contraction.trials": (mean(lambda s: s["trials"]), "count"),
        "optim.mix.flops": (mean(lambda s: s["flops"]), "flop"),
        "optim.oracle.calls": (mean(lambda s: s["calls"][ORACLE]), "count"),
        "optim.record.calls": (mean(lambda s: s["calls"][RECORD]), "count"),
        "cli.emit.bytes": (mean(lambda s: s["bytes"]), "B"),
        "other.s": (mean(lambda s: s["other_s"]), "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    })
    return metrics
