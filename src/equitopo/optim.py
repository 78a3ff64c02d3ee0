"""Decentralized SGD and stochastic gradient tracking over gossip topologies.

Local models are stacked row-wise into X (n x d).  One DSGD step is
X <- W (X - gamma G) with fresh stochastic gradients G; gradient tracking
adds an auxiliary Y that follows the average gradient:

    X <- W (X - gamma Y),   Y <- W Y + G_new - G_old,   Y0 = G0.

Both synthetic problem generators expose exact gradients, a noisy gradient
oracle (exact + Gaussian noise), and the global loss.  Each problem stores its
features once, per node and feature-major ((n, d, samples), C-contiguous), so
every per-iteration contraction is a BLAS matrix product along the contiguous
sample axis.  The stacked kernels work in place on the product's output, and
each logistic term costs one `exp` (`_softplus_neg`, `_expit_neg`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .seeds import derive_seed, make_rng
from .topology import GossipMatrix, TopologySpec, build_topology

ALGORITHMS = ("dsgd", "dsgt")


def _softplus_neg(m: np.ndarray) -> np.ndarray:
    """ln(1 + e^{-m}) elementwise, as max(-m, 0) + ln(1 + e^{-|m|}): nothing overflows."""
    with np.errstate(under="ignore"):
        tail = np.abs(m)
        np.negative(tail, out=tail)
        np.exp(tail, out=tail)
        np.log1p(tail, out=tail)
        out = np.negative(m)
        np.maximum(out, 0.0, out=out)
        out += tail
        return out


def _expit_neg(m: np.ndarray) -> np.ndarray:
    """1 / (1 + e^{m}) elementwise with one exp; for m > 709 it overflows to the exact limit 0."""
    with np.errstate(over="ignore", under="ignore"):
        out = np.exp(m)
        out += 1.0
        return np.divide(1.0, out, out=out)


# standard normal features per generator draw: a 64 kB block, few draws at large n
_DRAW_BLOCK = 1 << 13


def _node_blocks(n: int, samples: int, d: int, rng):
    """Yield (nodes, block): the (n, samples, d) standard normal draw, a few nodes at a time.

    Each block is a contiguous (nodes, samples, d) draw that continues the
    stream of one whole-array draw, so the values are the same bits.  A
    caller transposes each block into its feature-major array and takes any
    product it needs from the contiguous block first: an einsum over the
    transposed view rounds differently for d >= 6.
    """
    step = max(1, _DRAW_BLOCK // max(samples * d, 1))
    for start in range(0, n, step):
        stop = min(start + step, n)
        yield slice(start, stop), rng.standard_normal((stop - start, samples, d))


class LeastSquaresProblem:
    """n local costs f_i(x) = (1/2K) ||A_i x - b_i||^2 with known global optimum.

    The features are stored once, per node and feature-major: `at` is the
    C-contiguous (n, d, K) array whose node block `at[i]` is A_i^T, so every
    kernel multiplies along the contiguous sample axis.  `a` is its (n, K, d)
    transposed view.  `grad(i, x)` is row i of `grads_all`, the kernel the steps run.
    """

    kind = "least-squares"

    def __init__(self, at: np.ndarray, b: np.ndarray, sigma_n: float, sigma_s: float,
                 x_gen: np.ndarray):
        self.at = np.ascontiguousarray(at)   # (n, d, K)
        self.b = b                           # (n, K)
        self.n, self.d, self.k_samples = self.at.shape
        self.sigma_n = float(sigma_n)
        self.heterogeneity = float(sigma_s)
        self.x_gen = x_gen

    @property
    def a(self) -> np.ndarray:
        """The (n, K, d) sample-major view of `at`."""
        return self.at.transpose(0, 2, 1)

    @cached_property
    def x_star(self) -> np.ndarray:
        """Global optimum from the normal equations sum_i A_i^T A_i x = sum_i A_i^T b_i.

        Raises ParameterError when they are singular (for instance n K < d):
        the optimum is then not unique.
        """
        gram = (self.at @ self.a).sum(axis=0)
        rhs = (self.at @ self.b[:, :, None]).sum(axis=0)[:, 0]
        if np.linalg.matrix_rank(gram) < self.d:
            raise ParameterError(
                f"normal equations are singular (n={self.n}, samples={self.k_samples}, "
                f"d={self.d}): the least-squares optimum is not unique")
        return np.linalg.solve(gram, rhs)

    def local_loss(self, i: int, x: np.ndarray) -> float:
        r = x @ self.at[i] - self.b[i]
        return float(r @ r) / (2.0 * self.k_samples)

    def loss(self, x: np.ndarray) -> float:
        r = x @ self.at
        r -= self.b
        r = r.ravel()
        return float(r @ r) / (2.0 * r.size)

    def grad(self, i: int, x: np.ndarray) -> np.ndarray:
        return self.grads_all(np.broadcast_to(x, (self.n, self.d)))[i]

    def grads_all(self, x_rows: np.ndarray) -> np.ndarray:
        r = (x_rows[:, None, :] @ self.at)[:, 0, :]
        r -= self.b
        return (self.at @ r[:, :, None])[:, :, 0] / self.k_samples

    def stoch_grads_all(self, x_rows: np.ndarray, rng) -> np.ndarray:
        g = self.grads_all(x_rows)
        if self.sigma_n > 0.0:
            g = g + self.sigma_n * rng.standard_normal((self.n, self.d))
        return g

    def global_grad(self, x: np.ndarray) -> np.ndarray:
        r = x @ self.at
        r -= self.b
        return (self.at @ r[:, :, None]).sum(axis=0)[:, 0] / (self.n * self.k_samples)


def make_least_squares(n: int, d: int, k_samples: int, sigma_s: float, sigma_n: float,
                       rng) -> LeastSquaresProblem:
    """Per node: A_i with standard normal entries, b_i = A_i x* + noise(sigma_s).

    b is taken from each drawn block before it is transposed into `at`
    (`_node_blocks`), so it keeps the bits of the whole-array product.
    """
    if k_samples < 1:
        raise ParameterError(f"k_samples must be >= 1, got {k_samples}")
    x_gen = rng.standard_normal(d)
    at = np.empty((n, d, k_samples))
    b = np.empty((n, k_samples))
    for nodes, block in _node_blocks(n, k_samples, d, rng):
        b[nodes] = np.einsum("nkd,d->nk", block, x_gen)
        at[nodes] = block.transpose(0, 2, 1)
    if sigma_s > 0.0:
        b = b + sigma_s * rng.standard_normal((n, k_samples))
    return LeastSquaresProblem(at, b, sigma_n, sigma_s, x_gen)


class LogisticProblem:
    """Regularized logistic costs f_i(x) = mean_l ln(1 + exp(-y h.x)) + R sum x^2/(1+x^2).

    The features are stored once, per node and feature-major: `ht` is the
    C-contiguous (n, d, L) array whose node block `ht[i]` holds node i's
    samples as columns, so every kernel multiplies along the contiguous
    sample axis.  `h` is its (n, L, d) transposed view.  The cost is nonconvex, with
    no closed-form optimum.  `grad(i, x)` is row i of `grads_all`, the kernel the steps run.
    """

    kind = "logistic"

    def __init__(self, ht: np.ndarray, y: np.ndarray, reg: float, sigma_n: float,
                 sigma_h: float, x_gen: np.ndarray):
        self.ht = np.ascontiguousarray(ht)   # (n, d, L)
        self.y = y                           # (n, L), labels in {-1, +1}
        self.n, self.d, self.l_samples = self.ht.shape
        self.reg = float(reg)
        self.sigma_n = float(sigma_n)
        self.heterogeneity = float(sigma_h)
        self.x_gen = x_gen

    @property
    def h(self) -> np.ndarray:
        """The (n, L, d) sample-major view of `ht`."""
        return self.ht.transpose(0, 2, 1)

    def _reg_loss(self, x: np.ndarray) -> float:
        return self.reg * float(np.sum(x * x / (1.0 + x * x)))

    def _reg_grad(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self.reg * x / (1.0 + x * x) ** 2

    def local_loss(self, i: int, x: np.ndarray) -> float:
        margin = self.y[i] * (x @ self.ht[i])
        return float(np.mean(_softplus_neg(margin))) + self._reg_loss(x)

    def loss(self, x: np.ndarray) -> float:
        margin = x @ self.ht
        margin *= self.y
        return float(np.mean(_softplus_neg(margin))) + self._reg_loss(x)

    def grad(self, i: int, x: np.ndarray) -> np.ndarray:
        return self.grads_all(np.broadcast_to(x, (self.n, self.d)))[i]

    def grads_all(self, x_rows: np.ndarray) -> np.ndarray:
        margin = (x_rows[:, None, :] @ self.ht)[:, 0, :]
        margin *= self.y
        coef = _expit_neg(margin)
        coef *= self.y
        data = -(self.ht @ coef[:, :, None])[:, :, 0] / self.l_samples
        return data + self._reg_grad(x_rows)

    def stoch_grads_all(self, x_rows: np.ndarray, rng) -> np.ndarray:
        g = self.grads_all(x_rows)
        if self.sigma_n > 0.0:
            g = g + self.sigma_n * rng.standard_normal((self.n, self.d))
        return g

    def global_grad(self, x: np.ndarray) -> np.ndarray:
        margin = x @ self.ht
        margin *= self.y
        coef = _expit_neg(margin)
        coef *= self.y
        data = -(self.ht @ coef[:, :, None]).sum(axis=0)[:, 0] / (self.n * self.l_samples)
        return data + self._reg_grad(x)


def make_logistic_ncvx(n: int, d: int, l_samples: int, reg: float, sigma_h: float,
                       sigma_n: float, rng) -> LogisticProblem:
    """Heterogeneous logistic data: node i draws features around its own solution.

    Each node holds x*_i = x* + v_i with v_i ~ N(0, sigma_h^2 I) and features
    h ~ N(0, I).  Labels follow the rule y = +1 iff z <= 1 + exp(-h . x*_i)
    with z ~ U(0,1); the threshold always exceeds 1, so the rule labels every
    sample +1.  The margins h . x*_i are taken from each drawn block before it
    is transposed into `ht` (`_node_blocks`).
    """
    if l_samples < 1:
        raise ParameterError(f"l_samples must be >= 1, got {l_samples}")
    x_gen = rng.standard_normal(d)
    x_local = x_gen + sigma_h * rng.standard_normal((n, d))
    ht = np.empty((n, d, l_samples))
    margin = np.empty((n, l_samples))
    for nodes, block in _node_blocks(n, l_samples, d, rng):
        margin[nodes] = np.einsum("nld,nd->nl", block, x_local[nodes])
        ht[nodes] = block.transpose(0, 2, 1)
    z = rng.uniform(size=(n, l_samples))
    with np.errstate(over="ignore"):
        threshold = 1.0 + np.exp(-margin)
    y = np.where(z <= threshold, 1.0, -1.0)
    return LogisticProblem(ht, y, reg, sigma_n, sigma_h, x_gen)


@dataclass
class OptState:
    """Stacked local models (and tracking variables for DSGT)."""

    x: np.ndarray
    y: np.ndarray | None = None
    g_prev: np.ndarray | None = None


@dataclass(frozen=True)
class StepSchedule:
    """Constant or staircase step size: gamma0 / decay_factor ** (t // period)."""

    gamma0: float
    decay_factor: float = 1.0
    decay_period: int | None = None

    def __post_init__(self):
        if not self.gamma0 > 0.0:
            raise ParameterError(f"gamma0 must be > 0, got {self.gamma0}")
        if not self.decay_factor >= 1.0:
            raise ParameterError(f"decay_factor must be >= 1, got {self.decay_factor}")
        if self.decay_period is not None and self.decay_period < 1:
            raise ParameterError(f"decay_period must be >= 1, got {self.decay_period}")

    def gamma(self, t: int) -> float:
        if self.decay_period is None or self.decay_factor == 1.0:
            return self.gamma0
        return self.gamma0 / self.decay_factor ** (t // self.decay_period)


def _check_step(state: OptState, w: GossipMatrix, gamma: float, problem) -> None:
    if w.n != problem.n or state.x.shape != (problem.n, problem.d):
        raise ParameterError(
            f"dimension mismatch: W is {w.n}x{w.n}, X is {state.x.shape}, "
            f"problem is n={problem.n}, d={problem.d}")
    if gamma < 0.0:
        raise ParameterError(f"gamma must be >= 0, got {gamma}")


def dsgd_step(state: OptState, w: GossipMatrix, gamma: float, problem, rng) -> OptState:
    """X <- W (X - gamma G) with fresh stochastic gradients G at the current X."""
    _check_step(state, w, gamma, problem)
    g = problem.stoch_grads_all(state.x, rng)
    return OptState(x=w.mix(state.x - gamma * g))


def dsgt_step(state: OptState, w: GossipMatrix, gamma: float, problem, rng) -> OptState:
    """One tracking step; requires state.y initialized to the first gradients."""
    _check_step(state, w, gamma, problem)
    if state.y is None or state.g_prev is None:
        raise ParameterError("tracking state not initialized (y must start at G0)")
    x_new = w.mix(state.x - gamma * state.y)
    g_new = problem.stoch_grads_all(x_new, rng)
    y_new = w.mix(state.y) + g_new - state.g_prev
    return OptState(x=x_new, y=y_new, g_prev=g_new)


def init_state(algorithm: str, problem, x0: np.ndarray, rng) -> OptState:
    x = np.repeat(np.asarray(x0, float)[None, :], problem.n, axis=0)
    if algorithm == "dsgd":
        return OptState(x=x)
    g0 = problem.stoch_grads_all(x, rng)
    return OptState(x=x, y=g0.copy(), g_prev=g0)


@dataclass
class OptTrace:
    """Per-trial optimization metrics: entry t of each record array is iteration t."""

    algo: str
    family: str
    n: int
    records: list = field(default_factory=list)  # per trial: dict of 1-d arrays
    diverged_trials: tuple[int, ...] = ()

    @property
    def diverged(self) -> bool:
        return len(self.diverged_trials) > 0

    @property
    def diverged_at(self) -> tuple[str, ...]:
        """`trial:iteration` per diverged trial, the iteration of its first non-finite
        record: a trial's records stop just before it."""
        return tuple(f"{trial}:{self.records[trial]['loss'].size}"
                     for trial in self.diverged_trials)

    def csv_text(self) -> str:
        lines = ["algo,family,n,trial,iter,grad_norm_sq,loss,consensus_residual"]
        for trial, rec in enumerate(self.records):
            for t, (g, lo, c) in enumerate(zip(rec["grad_norm_sq"], rec["loss"],
                                               rec["consensus_residual"])):
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
        iters: int, trials: int = 1, master_seed: int = 0) -> OptTrace:
    """Drive dsgd/dsgt over fresh topologies, one independent trial per derived seed.

    Metrics use exact gradients at the averaged model and are recorded at
    every iteration.  A trial that produces non-finite values is truncated at
    its last finite record and flagged rather than aborting the sweep.
    """
    if algorithm not in ALGORITHMS:
        raise ParameterError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if iters < 1:
        raise ParameterError(f"iters must be >= 1, got {iters}")
    step = dsgd_step if algorithm == "dsgd" else dsgt_step
    records, diverged = [], []
    for trial in range(trials):
        tseed = derive_seed(master_seed, "trial", trial)
        topology = build_topology(replace(spec, seed=derive_seed(tseed, "topology")))
        rng = make_rng(tseed, "noise")
        x0 = make_rng(tseed, "init").standard_normal(problem.d)
        state = init_state(algorithm, problem, x0, rng)
        gs, ls, cs = [], [], []
        # overflow on a diverging trial is expected: the record after the step
        # finds it (a non-finite X makes the consensus residual NaN) and the
        # trial is truncated and flagged rather than aborted
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(iters + 1):
                grad_norm_sq, loss, consensus = _metrics(problem, state.x)
                if not (np.isfinite(grad_norm_sq) and np.isfinite(loss)
                        and np.isfinite(consensus)):
                    diverged.append(trial)
                    break
                gs.append(grad_norm_sq)
                ls.append(loss)
                cs.append(consensus)
                if t == iters:
                    break
                state = step(state, topology.sample(), schedule.gamma(t), problem, rng)
        records.append({"grad_norm_sq": np.array(gs), "loss": np.array(ls),
                        "consensus_residual": np.array(cs)})
    return OptTrace(algo=algorithm, family=spec.family, n=spec.n, records=records,
                    diverged_trials=tuple(diverged))
