"""Consensus-factor measurement.

For a fixed doubly-stochastic W the consensus factor is the spectral norm of
the centered matrix (I - J) W (I - J): the worst one-step contraction of the
disagreement component.  Static matrices are measured exactly (dense SVD for
small n, power iteration on the centered normal operator otherwise); dynamic
samplers are measured by Monte Carlo one-step contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .seeds import make_rng
from .topology import DynSampler, GossipMatrix

DENSE_CUTOFF = 64
POWER_TOL = 1e-10


@dataclass(frozen=True)
class ConsensusEstimate:
    """A measured contraction factor plus how it was obtained.

    `value` is the spectral norm for static methods and the mean squared
    one-step contraction for "monte-carlo".
    """

    value: float
    method: str  # power-iteration | dense-eig | monte-carlo
    iterations_or_trials: int
    tolerance_or_stderr: float
    converged: bool = True


def _center(x: np.ndarray) -> np.ndarray:
    return x - x.mean()


def _dense_factor(w: GossipMatrix) -> float:
    a = w.toarray()
    b = a - a.mean(axis=0, keepdims=True)   # (I - J) A
    b -= b.mean(axis=1, keepdims=True)      # ... (I - J)
    return float(np.linalg.svd(b, compute_uv=False)[0])


def consensus_factor(w: GossipMatrix, tol: float = POWER_TOL, method: str = "auto",
                     max_iter: int | None = None, start_seed: int = 0xC0FFEE) -> ConsensusEstimate:
    """Spectral norm of the centered mixing matrix, to relative accuracy `tol`.

    Power iteration runs on the squared centered operator restricted to the
    mean-zero subspace; the iterate is re-centered every step so floating
    point drift cannot leak into the all-ones direction.  Falls back to dense
    SVD for n <= 64 (or on request).
    """
    if method == "auto":
        method = "dense-eig" if w.n <= DENSE_CUTOFF else "power-iteration"
    if method == "dense-eig":
        return ConsensusEstimate(_dense_factor(w), "dense-eig", 1, 0.0)
    if method != "power-iteration":
        raise ParameterError(f"unknown method {method!r}")

    a = w.mat
    at = w.mat.T.tocsr()
    rng = make_rng(start_seed, "power-start")
    v = _center(rng.standard_normal(w.n))
    v /= np.linalg.norm(v)
    cap = max_iter if max_iter is not None else 10 * w.n
    sigma_prev = np.inf
    sigma = 0.0
    residual = np.inf
    for k in range(1, cap + 1):
        y = _center(a @ v)
        sigma = float(np.linalg.norm(y))
        if sigma < 1e-14:
            return ConsensusEstimate(sigma, "power-iteration", k, tol)
        z = _center(at @ y)
        norm_z = np.linalg.norm(z)
        if norm_z == 0.0:
            return ConsensusEstimate(sigma, "power-iteration", k, tol)
        v = _center(z / norm_z)
        v /= np.linalg.norm(v)
        residual = abs(sigma - sigma_prev) / sigma
        if residual <= tol:
            return ConsensusEstimate(sigma, "power-iteration", k, tol)
        sigma_prev = sigma
    return ConsensusEstimate(sigma, "power-iteration", cap, residual, converged=False)


def empirical_contraction(topology: GossipMatrix | DynSampler, trials: int,
                          rng=None, seed: int = 0) -> ConsensusEstimate:
    """Mean squared one-step contraction over random mean-zero unit vectors.

    Dynamic samplers contribute a fresh matrix per trial; a plain matrix is
    treated as a degenerate (constant) sampler.
    """
    if trials < 100:
        raise ParameterError(f"trials must be >= 100, got {trials}")
    if rng is None:
        rng = make_rng(seed, "contraction")
    is_sampler = isinstance(topology, DynSampler)
    n = topology.n
    ratios = np.empty(trials)
    for k in range(trials):
        w = topology.sample() if is_sampler else topology
        x = _center(rng.standard_normal(n))
        norm_x = np.linalg.norm(x)
        while norm_x < 1e-12:
            x = _center(rng.standard_normal(n))
            norm_x = np.linalg.norm(x)
        x /= norm_x
        y = _center(w @ x)
        ratios[k] = y @ y
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / np.sqrt(trials))
    return ConsensusEstimate(mean, "monte-carlo", trials, stderr)


@dataclass(frozen=True)
class MatrixReport:
    """Validation summary for one mixing matrix (report-only, never raises)."""

    n: int
    family: str
    max_row_sum_dev: float
    max_col_sum_dev: float
    min_entry: float
    symmetry_defect: float
    row_degree_hist: dict[int, int]
    col_degree_hist: dict[int, int]

    @property
    def doubly_stochastic(self) -> bool:
        return self.max_row_sum_dev <= 1e-12 and self.max_col_sum_dev <= 1e-12

    @property
    def nonnegative(self) -> bool:
        return self.min_entry >= 0.0

    @property
    def max_off_diagonal_degree(self) -> int:
        row = max(self.row_degree_hist) if self.row_degree_hist else 0
        col = max(self.col_degree_hist) if self.col_degree_hist else 0
        return max(row, col)


def _degree_hist(counts: np.ndarray) -> dict[int, int]:
    degrees, freq = np.unique(counts, return_counts=True)
    return {int(d): int(f) for d, f in zip(degrees, freq)}


def validate_matrix(w: GossipMatrix) -> MatrixReport:
    """Row/col sums, entry bounds, symmetry defect and off-diagonal degree histograms."""
    coo = w.mat.tocoo()
    off = (coo.row != coo.col) & (coo.data != 0.0)
    row_counts = np.bincount(coo.row[off], minlength=w.n)
    col_counts = np.bincount(coo.col[off], minlength=w.n)
    sym = w.mat - w.mat.T
    defect = float(np.abs(sym.data).max()) if sym.nnz else 0.0
    return MatrixReport(
        n=w.n,
        family=w.family,
        max_row_sum_dev=float(np.abs(w.row_sums() - 1.0).max()),
        max_col_sum_dev=float(np.abs(w.col_sums() - 1.0).max()),
        min_entry=float(coo.data.min()) if coo.nnz else 0.0,
        symmetry_defect=defect,
        row_degree_hist=_degree_hist(row_counts),
        col_degree_hist=_degree_hist(col_counts),
    )
