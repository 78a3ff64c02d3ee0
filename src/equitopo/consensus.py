"""Gossip averaging runs and the size-independence experiment.

The recursion x <- W x preserves the mean exactly for doubly-stochastic W,
so the disagreement ||x - mean(x0) * 1|| is the quantity tracked per step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteError, ParameterError
from .seeds import derive_seed, make_rng
from .topology import DynSampler, GossipMatrix, TopologySpec, build_topology

RESIDUAL_FLOOR = 1e-13
TRANSIENT_ITERS = 2


@dataclass
class ConsensusTrace:
    """Residuals of one or more trials of one topology: residual[k, t] is trial k at iteration t."""

    family: str
    n: int
    residual: np.ndarray   # (trials, iters + 1)

    def csv_text(self) -> str:
        lines = ["family,n,trial,iter,residual"]
        for k, row in enumerate(self.residual.tolist()):
            lines.extend(f"{self.family},{self.n},{k},{t},{r!r}" for t, r in enumerate(row))
        return "\n".join(lines) + "\n"


def gossip_run(topology: GossipMatrix | DynSampler, x0, iters: int) -> ConsensusTrace:
    """Iterate x <- W^(t) x and record ||x - mean(x0) * 1|| at every step: a one-row trace.

    A step mixes, checks x is finite and takes one norm; the mean is not tracked.
    """
    if iters < 1:
        raise ParameterError(f"iters must be >= 1, got {iters}")
    x = np.array(x0, dtype=float)
    if not np.isfinite(x).all():
        raise ParameterError("x0 must be finite")
    n = topology.n
    if x.shape != (n,):
        raise ParameterError(f"x0 must have shape ({n},), got {x.shape}")
    mean0 = x.mean()
    residuals = np.empty(iters + 1)
    residuals[0] = np.linalg.norm(x - mean0)
    for t in range(1, iters + 1):
        x = topology.sample().mix(x)
        if not np.isfinite(x).all():
            raise NonFiniteError(f"non-finite state at iteration {t}")
        residuals[t] = np.linalg.norm(x - mean0)
    return ConsensusTrace(family=topology.family, n=n, residual=residuals[None, :])


def consensus_experiment(spec: TopologySpec, iters: int, trials: int) -> ConsensusTrace:
    """Independent repetitions from `spec.seed`: fresh topology and fresh x0 per trial."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    residual = np.empty((trials, iters + 1))
    for k in range(trials):
        topology = build_topology(replace(spec, seed=derive_seed(spec.seed, "trial", k)))
        x0 = make_rng(spec.seed, "x0", k).standard_normal(spec.n)
        residual[k] = gossip_run(topology, x0, iters).residual[0]
    return ConsensusTrace(family=spec.family, n=spec.n, residual=residual)


def fit_decay_slope(iterations, residuals) -> float:
    """Least-squares slope of log residual per iteration.

    The first TRANSIENT_ITERS iterations are transients and excluded; the
    series is truncated at the first residual below RESIDUAL_FLOOR to avoid
    fitting the floating-point floor.  Returns -inf when fewer than two usable
    points remain (instant consensus).
    """
    t = np.asarray(iterations, dtype=float)
    r = np.asarray(residuals, dtype=float)
    below = np.nonzero(r < RESIDUAL_FLOOR)[0]
    end = below[0] if below.size else len(r)
    mask = (t[:end] >= TRANSIENT_ITERS)
    if mask.sum() < 2:
        return float("-inf")
    return float(np.polyfit(t[:end][mask], np.log(r[:end][mask]), 1)[0])


@dataclass
class SizeSweepEntry:
    n: int
    slope: float
    trace: ConsensusTrace


@dataclass
class SizeSweep:
    """Per-size decay summary across one family."""

    family: str
    entries: list[SizeSweepEntry]

    @property
    def slopes(self) -> list[float]:
        return [e.slope for e in self.entries]

    def max_deviation(self) -> float:
        """Largest |slope - mean slope| across sizes."""
        s = np.asarray(self.slopes)
        return float(np.abs(s - s.mean()).max())


def size_independence_experiment(family: str, sizes, iters: int, trials: int,
                                 master_seed: int = 0, rho: float = 0.75,
                                 p: float = 0.5, eta: float = 0.5,
                                 m_for=None) -> SizeSweep:
    """Run the gossip experiment at several sizes and fit per-size decay slopes.

    The fitted slope is taken on the geometric mean of the per-trial residual
    curves.  `m_for(n)` chooses the basis count per size (None keeps the
    family default).
    """
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ParameterError("need at least two sizes")
    entries = []
    for n in sizes:
        m = m_for(n) if m_for is not None else None
        spec = TopologySpec(family=family, n=n, rho=rho, p=p, m=m, eta=eta,
                            seed=derive_seed(master_seed, "size", n))
        trace = consensus_experiment(spec, iters, trials)
        geo_mean = np.exp(np.mean(np.log(np.clip(trace.residual, 1e-300, None)), axis=0))
        slope = fit_decay_slope(np.arange(iters + 1), geo_mean)
        entries.append(SizeSweepEntry(n=n, slope=slope, trace=trace))
    return SizeSweep(family=family, entries=entries)
