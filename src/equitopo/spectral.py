"""Consensus-factor measurement.

For a fixed doubly-stochastic W the consensus factor is the spectral norm of
the centered matrix (I - J) W (I - J): the worst one-step contraction of the
disagreement component.  `consensus_factor` reads it off the structure the
builder left on the matrix, never off its entries.  A circulant over a finite
abelian group G, W[i, j] = c[i - j] (the circulant families, one-peer shifts,
torus, hypercube), is normal with eigenvalues one `np.fft.fftn` of c shaped
as G (Diaconis, Group Representations in Probability and Statistics, 1988;
over Z_2^d the Walsh-Hadamard transform): "circulant-fft".  The grid's come
from the path Laplacian (Nedic, Olshevsky and Rabbat, Proc. IEEE 2018):
"closed-form".  A one-peer matching on n >= 3 nodes (ou-* draws) is
disconnected, factor 1: "disconnected".  Other matrices get dense SVD
("dense-eig") up to n = 64 and an error above.  Each tolerance bounds the
distance of the value from the exact factor of the stored matrix; dynamic
samplers get a Monte Carlo one-step contraction and its standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .seeds import make_rng
from .topology import Circulant, DynSampler, GossipMatrix, Grid, OnePeer

DENSE_CUTOFF = 64
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ConsensusEstimate:
    """A measured contraction factor plus how it was obtained.

    `value` is the spectral norm for static methods and the mean squared
    one-step contraction for "monte-carlo".
    """

    value: float
    method: str  # circulant-fft | closed-form | disconnected | dense-eig | monte-carlo
    iterations_or_trials: int
    tolerance_or_stderr: float
    converged = True   # every method runs to its end; trace tools read this


def _center(x: np.ndarray) -> np.ndarray:
    return x - x.mean()


def _dense_factor(w: GossipMatrix) -> ConsensusEstimate:
    """Largest singular value of the centered dense matrix B = (I - J) A (I - J).

    The computed singular values are exact for a perturbation of B of norm
    p(n) eps ||B|| (backward stability of the SVD; Golub & Van Loan, Matrix
    Computations, Sec. 8.6), and no singular value moves by more than that
    norm (Weyl).  The tolerance takes p(n) = n and ||A||_F >= ||B||_F, which
    also covers the centering's rounding and stays above 0 when B vanishes.
    """
    a = w.toarray()
    b = a - a.mean(axis=0, keepdims=True)   # (I - J) A
    b -= b.mean(axis=1, keepdims=True)      # ... (I - J)
    bound = w.n * EPS * float(np.linalg.norm(a))
    return ConsensusEstimate(float(np.linalg.svd(b, compute_uv=False)[0]), "dense-eig", 1, bound)


def _circulant_factor(c: np.ndarray) -> ConsensusEstimate:
    """Exact factor of a group circulant: its eigenvalues are fftn(c); centering drops index 0.

    The tolerance bounds the floating-point FFT's error in any one output:
    C u log2(m) ||fft||_2 along an axis of length m (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 24.2), summed over the axes, with
    ||fftn(c)||_2 = sqrt(n) ||c||_2; C = 8 and the length 4m also cover the
    Bluestein path taken for large prime factors.
    """
    value = float(np.abs(np.fft.fftn(c).ravel()[1:]).max(initial=0.0))
    log_len = sum(math.log2(4 * m) for m in c.shape)
    bound = 8 * EPS * log_len * math.sqrt(c.size) * float(np.linalg.norm(c))
    return ConsensusEstimate(value, "circulant-fft", 1, bound)


def consensus_factor(w: GossipMatrix) -> ConsensusEstimate:
    """Spectral norm of the centered mixing matrix, read off `w.structure`.

    Grid tolerance: the rounding of pi a / m, of cos (4 ulp) and of the four
    operations after it stays under 15 eps for a weight <= 1/3, the stored
    diagonal adds 1 eps; 32 eps covers both.  A matching's weights are stored
    within 2 eps of exact, so its factor is within 4 eps of 1 (Weyl).
    """
    s, n = w.structure, w.n
    column = s.column if isinstance(s, (Circulant, OnePeer)) else None
    if column is not None:
        return _circulant_factor(column)
    if isinstance(s, Grid):   # I - weight L, L the Kronecker sum of two path Laplacians
        cos = np.cos(np.pi * np.arange(s.m) / s.m)
        lam = np.abs(1.0 - s.weight * (4.0 - 2.0 * cos[:, None] - 2.0 * cos[None, :]))
        lam[0, 0] = 0.0   # the consensus direction
        return ConsensusEstimate(float(lam.max()), "closed-form", 1, 32 * EPS)
    if isinstance(s, OnePeer) and n >= 3 and np.array_equal(s.partner[s.partner], np.arange(n)):
        return ConsensusEstimate(1.0, "disconnected", 1, 4 * EPS)
    if n > DENSE_CUTOFF:
        raise ParameterError(f"an n = {n} {w.family} matrix carries no structure to read "
                             f"its factor off, and dense SVD stops at n = {DENSE_CUTOFF}")
    return _dense_factor(w)


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
