"""Decentralized SGD and stochastic gradient tracking over gossip topologies.

Local models are stacked row-wise into X (n x d).  One DSGD step is
X <- W (X - gamma G) with fresh stochastic gradients G; gradient tracking
adds an auxiliary Y that follows the average gradient:

    X <- W (X - gamma Y),   Y <- W Y + G_new - G_old,   Y0 = G0.

Both synthetic problem generators expose exact gradients, a noisy gradient
oracle (exact + Gaussian noise), and the global loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .errors import ParameterError
from .seeds import derive_seed, make_rng
from .topology import DYNAMIC_FAMILIES, GossipMatrix, TopologySpec, build_topology

ALGORITHMS = ("dsgd", "dsgt")


class LeastSquaresProblem:
    """n local costs f_i(x) = (1/2K) ||A_i x - b_i||^2 with known global optimum."""

    kind = "least-squares"

    def __init__(self, a: np.ndarray, b: np.ndarray, sigma_n: float, sigma_s: float,
                 x_gen: np.ndarray):
        self.a = a                      # (n, K, d)
        self.b = b                      # (n, K)
        self.n, self.k_samples, self.d = a.shape
        self.sigma_n = float(sigma_n)
        self.heterogeneity = float(sigma_s)
        self.x_gen = x_gen
        # global optimum by normal equations: sum_i A_i^T A_i x = sum_i A_i^T b_i
        h = np.einsum("nkd,nke->de", a, a)
        rhs = np.einsum("nkd,nk->d", a, b)
        self.x_star = np.linalg.solve(h, rhs)

    def local_loss(self, i: int, x: np.ndarray) -> float:
        r = self.a[i] @ x - self.b[i]
        return float(r @ r) / (2.0 * self.k_samples)

    def loss(self, x: np.ndarray) -> float:
        r = np.einsum("nkd,d->nk", self.a, x) - self.b
        return float(np.mean(r * r)) / 2.0

    def grad(self, i: int, x: np.ndarray) -> np.ndarray:
        r = self.a[i] @ x - self.b[i]
        return (self.a[i].T @ r) / self.k_samples

    def grads_all(self, x_rows: np.ndarray) -> np.ndarray:
        r = np.einsum("nkd,nd->nk", self.a, x_rows) - self.b
        return np.einsum("nkd,nk->nd", self.a, r) / self.k_samples

    def stoch_grad(self, i: int, x: np.ndarray, rng) -> np.ndarray:
        g = self.grad(i, x)
        if self.sigma_n > 0.0:
            g = g + self.sigma_n * rng.standard_normal(self.d)
        return g

    def stoch_grads_all(self, x_rows: np.ndarray, rng) -> np.ndarray:
        g = self.grads_all(x_rows)
        if self.sigma_n > 0.0:
            g = g + self.sigma_n * rng.standard_normal((self.n, self.d))
        return g

    def global_grad(self, x: np.ndarray) -> np.ndarray:
        r = np.einsum("nkd,d->nk", self.a, x) - self.b
        return np.einsum("nkd,nk->d", self.a, r) / (self.n * self.k_samples)


def make_least_squares(n: int, d: int, k_samples: int, sigma_s: float, sigma_n: float,
                       rng) -> LeastSquaresProblem:
    """Per node: A_i with standard normal entries, b_i = A_i x* + noise(sigma_s)."""
    x_gen = rng.standard_normal(d)
    a = rng.standard_normal((n, k_samples, d))
    b = np.einsum("nkd,d->nk", a, x_gen)
    if sigma_s > 0.0:
        b = b + sigma_s * rng.standard_normal((n, k_samples))
    return LeastSquaresProblem(a, b, sigma_n, sigma_s, x_gen)


class LogisticProblem:
    """Regularized logistic costs f_i(x) = mean_l ln(1 + exp(-y h.x)) + R sum x^2/(1+x^2)."""

    kind = "logistic"

    def __init__(self, h: np.ndarray, y: np.ndarray, reg: float, sigma_n: float,
                 sigma_h: float, x_gen: np.ndarray):
        self.h = h                      # (n, L, d)
        self.y = y                      # (n, L), labels in {-1, +1}
        self.n, self.l_samples, self.d = h.shape
        self.reg = float(reg)
        self.sigma_n = float(sigma_n)
        self.heterogeneity = float(sigma_h)
        self.x_gen = x_gen
        self.x_star = None              # nonconvex: no closed-form optimum

    def _reg_loss(self, x: np.ndarray) -> float:
        return self.reg * float(np.sum(x * x / (1.0 + x * x)))

    def _reg_grad(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self.reg * x / (1.0 + x * x) ** 2

    def local_loss(self, i: int, x: np.ndarray) -> float:
        margin = self.y[i] * (self.h[i] @ x)
        return float(np.mean(np.logaddexp(0.0, -margin))) + self._reg_loss(x)

    def loss(self, x: np.ndarray) -> float:
        margin = self.y * np.einsum("nld,d->nl", self.h, x)
        return float(np.mean(np.logaddexp(0.0, -margin))) + self._reg_loss(x)

    def grad(self, i: int, x: np.ndarray) -> np.ndarray:
        margin = self.y[i] * (self.h[i] @ x)
        coef = self.y[i] * expit(-margin)
        return -(self.h[i].T @ coef) / self.l_samples + self._reg_grad(x)

    def grads_all(self, x_rows: np.ndarray) -> np.ndarray:
        margin = self.y * np.einsum("nld,nd->nl", self.h, x_rows)
        coef = self.y * expit(-margin)
        data = -np.einsum("nld,nl->nd", self.h, coef) / self.l_samples
        return data + self._reg_grad(x_rows)

    def stoch_grad(self, i: int, x: np.ndarray, rng) -> np.ndarray:
        g = self.grad(i, x)
        if self.sigma_n > 0.0:
            g = g + self.sigma_n * rng.standard_normal(self.d)
        return g

    def stoch_grads_all(self, x_rows: np.ndarray, rng) -> np.ndarray:
        g = self.grads_all(x_rows)
        if self.sigma_n > 0.0:
            g = g + self.sigma_n * rng.standard_normal((self.n, self.d))
        return g

    def global_grad(self, x: np.ndarray) -> np.ndarray:
        margin = self.y * np.einsum("nld,d->nl", self.h, x)
        coef = self.y * expit(-margin)
        data = -np.einsum("nld,nl->d", self.h, coef) / (self.n * self.l_samples)
        return data + self._reg_grad(x)


def make_logistic_ncvx(n: int, d: int, l_samples: int, reg: float, sigma_h: float,
                       sigma_n: float, rng) -> LogisticProblem:
    """Heterogeneous logistic data: node i draws features around its own solution.

    Each node holds x*_i = x* + v_i with v_i ~ N(0, sigma_h^2 I) and features
    h ~ N(0, I).  Labels follow the rule y = +1 iff z <= 1 + exp(-h . x*_i)
    with z ~ U(0,1); the threshold always exceeds 1, so the rule labels every
    sample +1.
    """
    if l_samples < 1:
        raise ParameterError(f"l_samples must be >= 1, got {l_samples}")
    x_gen = rng.standard_normal(d)
    x_local = x_gen + sigma_h * rng.standard_normal((n, d))
    h = rng.standard_normal((n, l_samples, d))
    z = rng.uniform(size=(n, l_samples))
    with np.errstate(over="ignore"):
        threshold = 1.0 + np.exp(-np.einsum("nld,nd->nl", h, x_local))
    y = np.where(z <= threshold, 1.0, -1.0)
    return LogisticProblem(h, y, reg, sigma_n, sigma_h, x_gen)


@dataclass
class OptState:
    """Stacked local models (and tracking variables for DSGT) at iteration t."""

    x: np.ndarray
    y: np.ndarray | None = None
    g_prev: np.ndarray | None = None
    t: int = 0


@dataclass(frozen=True)
class StepSchedule:
    """Constant or staircase step size: gamma0 / decay_factor ** (t // period)."""

    gamma0: float
    decay_factor: float = 1.0
    decay_period: int | None = None

    def gamma(self, t: int) -> float:
        if self.decay_period is None or self.decay_factor == 1.0:
            return self.gamma0
        return self.gamma0 / self.decay_factor ** (t // self.decay_period)


def _check_dims(state: OptState, w: GossipMatrix, problem) -> None:
    if w.n != problem.n or state.x.shape != (problem.n, problem.d):
        raise ParameterError(
            f"dimension mismatch: W is {w.n}x{w.n}, X is {state.x.shape}, "
            f"problem is n={problem.n}, d={problem.d}")


def dsgd_step(state: OptState, w: GossipMatrix, gamma: float, problem, rng) -> OptState:
    """X <- W (X - gamma G) with fresh stochastic gradients G at the current X."""
    _check_dims(state, w, problem)
    if gamma < 0.0:
        raise ParameterError(f"gamma must be >= 0, got {gamma}")
    g = problem.stoch_grads_all(state.x, rng)
    return OptState(x=w.mat @ (state.x - gamma * g), t=state.t + 1)


def dsgt_step(state: OptState, w: GossipMatrix, gamma: float, problem, rng) -> OptState:
    """One tracking step; requires state.y initialized to the first gradients."""
    _check_dims(state, w, problem)
    if state.y is None or state.g_prev is None:
        raise ParameterError("tracking state not initialized (y must start at G0)")
    x_new = w.mat @ (state.x - gamma * state.y)
    g_new = problem.stoch_grads_all(x_new, rng)
    y_new = w.mat @ state.y + g_new - state.g_prev
    return OptState(x=x_new, y=y_new, g_prev=g_new, t=state.t + 1)


def init_state(algorithm: str, problem, x0: np.ndarray, rng) -> OptState:
    x = np.repeat(np.asarray(x0, float)[None, :], problem.n, axis=0)
    if algorithm == "dsgd":
        return OptState(x=x)
    g0 = problem.stoch_grads_all(x, rng)
    return OptState(x=x, y=g0.copy(), g_prev=g0)


@dataclass
class OptTrace:
    """Per-trial, per-iteration optimization metrics."""

    algo: str
    family: str
    n: int
    records: list = field(default_factory=list)  # per trial: dict of 1-d arrays
    diverged_trials: tuple[int, ...] = ()
    config: dict = field(default_factory=dict)

    @property
    def diverged(self) -> bool:
        return len(self.diverged_trials) > 0

    def series(self, key: str, trial: int) -> np.ndarray:
        return self.records[trial][key]

    def csv_text(self) -> str:
        lines = ["algo,family,n,trial,iter,grad_norm_sq,loss,consensus_residual"]
        for trial, rec in enumerate(self.records):
            for t, g, lo, c in zip(rec["iter"], rec["grad_norm_sq"], rec["loss"],
                                   rec["consensus_residual"]):
                lines.append(f"{self.algo},{self.family},{self.n},{trial},{t},{float(g)!r},{float(lo)!r},{float(c)!r}")
        return "\n".join(lines) + "\n"


def _metrics(problem, x_rows: np.ndarray) -> tuple[float, float, float]:
    xbar = x_rows.mean(axis=0)
    g = problem.global_grad(xbar)
    grad_norm_sq = float(g @ g)
    loss = problem.loss(xbar)
    consensus = float(np.linalg.norm(x_rows - xbar))
    return grad_norm_sq, loss, consensus


def run(algorithm: str, problem, spec: TopologySpec, schedule: StepSchedule,
        iters: int, trials: int = 1, master_seed: int = 0,
        record_every: int = 1) -> OptTrace:
    """Drive dsgd/dsgt over fresh topologies, one independent trial per derived seed.

    Metrics use exact gradients at the averaged model and are recorded every
    `record_every` iterations (plus the final one).  A trial that produces
    non-finite values is truncated at its last finite record and flagged
    rather than aborting the sweep.
    """
    if algorithm not in ALGORITHMS:
        raise ParameterError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if iters < 1:
        raise ParameterError(f"iters must be >= 1, got {iters}")
    if record_every < 1:
        raise ParameterError(f"record_every must be >= 1, got {record_every}")
    step = dsgd_step if algorithm == "dsgd" else dsgt_step
    is_dynamic = spec.family in DYNAMIC_FAMILIES
    records, diverged = [], []
    for trial in range(trials):
        tseed = derive_seed(master_seed, "trial", trial)
        topology = build_topology(replace(spec, seed=derive_seed(tseed, "topology")))
        rng = make_rng(tseed, "noise")
        x0 = make_rng(tseed, "init").standard_normal(problem.d)
        state = init_state(algorithm, problem, x0, rng)
        its, gs, ls, cs = [], [], [], []
        # overflow on a diverging trial is expected: it is detected below and
        # the trial is truncated and flagged rather than aborted
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(iters + 1):
                if t % record_every == 0 or t == iters:
                    grad_norm_sq, loss, consensus = _metrics(problem, state.x)
                    if not (np.isfinite(grad_norm_sq) and np.isfinite(loss)
                            and np.isfinite(consensus)):
                        diverged.append(trial)
                        break
                    its.append(t)
                    gs.append(grad_norm_sq)
                    ls.append(loss)
                    cs.append(consensus)
                if t == iters:
                    break
                w = topology.sample() if is_dynamic else topology
                state = step(state, w, schedule.gamma(t), problem, rng)
                if not np.isfinite(state.x).all():
                    diverged.append(trial)
                    break
        records.append({"iter": np.array(its), "grad_norm_sq": np.array(gs),
                        "loss": np.array(ls), "consensus_residual": np.array(cs)})
    config = {"algo": algorithm, "family": spec.family, "n": spec.n,
              "iters": iters, "trials": trials, "seed": master_seed,
              "record_every": record_every,
              "gamma0": schedule.gamma0, "decay_factor": schedule.decay_factor,
              "decay_period": schedule.decay_period, "problem": problem.kind,
              "d": problem.d, "sigma_n": problem.sigma_n}
    return OptTrace(algo=algorithm, family=spec.family, n=spec.n, records=records,
                    diverged_trials=tuple(diverged), config=config)
