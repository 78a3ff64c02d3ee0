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
disconnected, factor 1: "disconnected".  A matrix that carries no structure
is refused.  Each tolerance bounds the distance of the value from the exact
factor of the stored matrix; dynamic samplers get a Monte Carlo one-step
contraction and its standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .seeds import make_rng
from .topology import Circulant, DynSampler, GossipMatrix, Grid, OnePeer

EPS = float(np.finfo(float).eps)
TRIAL_BLOCK_BYTES = 1 << 16   # trial vectors drawn per `standard_normal` call, in bytes


@dataclass(frozen=True)
class ConsensusEstimate:
    """A measured contraction factor plus how it was obtained.

    `value` is the spectral norm for static methods and the mean squared
    one-step contraction for "monte-carlo".
    """

    value: float
    method: str  # circulant-fft | closed-form | disconnected | monte-carlo
    iterations_or_trials: int
    tolerance_or_stderr: float
    converged = True   # every method runs to its end; trace tools read this


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
    raise ParameterError(f"an n = {n} {w.family} matrix carries no structure to read "
                         "its factor off")


def _row_dots(block: np.ndarray) -> np.ndarray:
    """Each row's `x @ x`, bit for bit, as one stacked matmul (an einsum's bits differ)."""
    return (block[:, None, :] @ block[:, :, None])[:, 0, 0]


def empirical_contraction(topology: GossipMatrix | DynSampler, trials: int,
                          rng=None, seed: int = 0) -> ConsensusEstimate:
    """Mean squared one-step contraction over random mean-zero unit vectors.

    Each trial draws `topology.sample()` once: a fresh matrix from a dynamic
    sampler, the matrix itself from a static one.  The trial vectors come
    from `rng` in blocks of TRIAL_BLOCK_BYTES (at least one row), each block
    sized to the trials still to run: the same stream as one
    `standard_normal(n)` per trial, so a vector whose centred norm is below
    1e-12 is replaced by the next one drawn and `rng` ends where a draw per
    trial would leave it.  The arithmetic runs a block at a time: centred by
    its row sums / n, divided by its row norms, each row overwritten by its
    mix, centred again, squared norms by `_row_dots`: the bits of `x -
    x.mean()`, `np.linalg.norm` and `y @ y` per trial.  `rng` must not be
    the sampler's own generator, which draws ahead of its samples.
    """
    if trials < 100:
        raise ParameterError(f"trials must be >= 100, got {trials}")
    if rng is None:
        rng = make_rng(seed, "contraction")
    if rng is getattr(topology, "rng", None):
        raise ParameterError("the trial vectors' generator must not be the sampler's own")
    n = topology.n
    rows = max(1, TRIAL_BLOCK_BYTES // (8 * n))
    ratios = np.empty(trials)
    k = 0
    while k < trials:
        block = rng.standard_normal((min(rows, trials - k), n))
        block -= block.sum(axis=1, keepdims=True) / n
        norms = np.sqrt(_row_dots(block))
        keep = norms >= 1e-12   # a rejected vector is replaced by the next one drawn
        if not keep.all():
            block, norms = block[keep], norms[keep]
        block /= norms[:, None]
        for x in block:
            x[:] = topology.sample().mix(x)
        block -= block.sum(axis=1, keepdims=True) / n
        ratios[k:k + len(block)] = _row_dots(block)
        k += len(block)
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / np.sqrt(trials))
    return ConsensusEstimate(mean, "monte-carlo", trials, stderr)
