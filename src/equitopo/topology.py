"""Construction of doubly-stochastic gossip matrices.

Two groups of topologies are provided:

* circulant-basis families: a static directed matrix obtained by averaging
  M one-peer shift graphs ("d-equistatic"), its symmetrization
  ("u-equistatic"), and per-iteration one-peer samplers drawn from the same
  basis ("od-equidyn", "ou-equidyn", "ou-equidyn-euclid");
* classical baselines: ring, grid, torus, hypercube, static exponential,
  one-peer exponential, complete.

Node labels are 1-based at the interface (see `mod_n`); matrix storage is
0-based CSR.  Constructed matrices are immutable and safe to share across
workers; samplers are single-owner mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .errors import ConstructionError, ParameterError
from .seeds import derive_seed, make_rng

EQUI_STATIC_FAMILIES = ("d-equistatic", "u-equistatic")
EQUI_DYNAMIC_FAMILIES = ("od-equidyn", "ou-equidyn", "ou-equidyn-euclid")
BASELINE_STATIC_FAMILIES = ("ring", "grid", "torus", "hypercube", "static-exp", "complete")
BASELINE_DYNAMIC_FAMILIES = ("one-peer-exp",)
STATIC_FAMILIES = EQUI_STATIC_FAMILIES + BASELINE_STATIC_FAMILIES
DYNAMIC_FAMILIES = EQUI_DYNAMIC_FAMILIES + BASELINE_DYNAMIC_FAMILIES
FAMILIES = STATIC_FAMILIES + DYNAMIC_FAMILIES

RESAMPLE_CAP = 50


def mod_n(i: int, n: int) -> int:
    """Wrap an integer into [1, n]: k*n + l -> l for l in [1, n-1], and k*n -> n."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    r = i % n
    return n if r == 0 else r


@dataclass(frozen=True)
class GossipMatrix:
    """Immutable sparse doubly-stochastic n x n mixing matrix with provenance tags."""

    n: int
    mat: sparse.csr_array
    family: str
    basis_index: tuple[int, ...] | None = None

    def __post_init__(self):
        for arr in (self.mat.data, self.mat.indices, self.mat.indptr):
            arr.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def toarray(self) -> np.ndarray:
        return self.mat.toarray()

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.mat.sum(axis=1)).ravel()

    def col_sums(self) -> np.ndarray:
        return np.asarray(self.mat.sum(axis=0)).ravel()

    def dot(self, x):
        return self.mat @ x

    def __matmul__(self, x):
        return self.mat @ x


@dataclass(frozen=True)
class BasisIndex:
    """Multiset of shift values, each in [1, n-1]; duplicates are allowed.

    A reverse shift -u is stored canonically as n - u, since shifting by n - u
    traverses every edge of the shift-u graph in the opposite direction.
    """

    values: tuple[int, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        for v in self.values:
            if not 1 <= v <= self.n - 1:
                raise ParameterError(f"basis value {v} outside [1, {self.n - 1}]")

    def __len__(self) -> int:
        return len(self.values)

    def with_reversals(self) -> "BasisIndex":
        """Append the reverse shift n - u for every stored value."""
        return BasisIndex(self.values + tuple(self.n - v for v in self.values), self.n)


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of a topology family and its parameters."""

    family: str
    n: int
    rho: float = 0.5
    p: float = 0.5
    m: int | None = None
    eta: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 2:
            raise ParameterError(f"n must be >= 2, got {self.n}")
        if not 0.0 < self.rho < 1.0:
            raise ParameterError(f"rho must lie in (0, 1), got {self.rho}")
        if not 0.0 < self.p < 1.0:
            raise ParameterError(f"p must lie in (0, 1), got {self.p}")
        if not 0.0 < self.eta < 1.0:
            raise ParameterError(f"eta must lie in (0, 1), got {self.eta}")
        if self.m is not None and self.m < 1:
            raise ParameterError(f"m must be >= 1, got {self.m}")


def default_basis_count(n: int, rho: float, p: float) -> int:
    """Basis count sufficient for consensus factor rho with failure probability p."""
    return math.ceil(8.0 / (3.0 * rho**2) * math.log(2.0 * n / p))


def _check_basis_value(u: int, n: int) -> None:
    if not 1 <= u <= n - 1:
        raise ParameterError(f"shift {u} outside [1, {n - 1}]")


def _to_matrix(rows, cols, vals, n, family, basis_index=None) -> GossipMatrix:
    mat = sparse.coo_array((np.asarray(vals, float), (np.asarray(rows), np.asarray(cols))),
                           shape=(n, n)).tocsr()
    mat.sort_indices()
    return GossipMatrix(n=n, mat=mat, family=family,
                        basis_index=tuple(basis_index) if basis_index is not None else None)


def _one_peer(src, off, diag, family, basis_index=None) -> GossipMatrix:
    """One-peer matrix from its partner array, built straight into sorted CSR.

    Row i keeps `diag` (a scalar or a per-row vector) and takes `off` from
    column src[i]; an idle row has src[i] == i and stores its diagonal only.
    """
    n = len(src)
    i = np.arange(n)
    paired = src != i
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(paired + 1, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    slot = indptr[:-1] + (src < i)  # the diagonal follows a partner with a lower column
    indices[slot], data[slot] = i, diag
    slot = indptr[:-1][paired] + (src > i)[paired]
    indices[slot], data[slot] = src[paired], off
    return GossipMatrix(n, sparse.csr_array((data, indices, indptr), shape=(n, n)),
                        family, basis_index)


def _lazy_one_peer(src, eta: float, family: str, basis_index) -> GossipMatrix:
    """(1 - eta) I + eta A, where A gives (n-1)/n to the partner and keeps 1/n, or 1 when idle.

    eta = 1 yields A itself, bit for bit.
    """
    n = len(src)
    a_diag = np.where(src != np.arange(n), 1.0 / n, 1.0)
    return _one_peer(src, (1.0 - 1.0 / n) * eta, (1.0 - eta) + a_diag * eta, family, basis_index)


def basis_matrix(u: int, n: int) -> GossipMatrix:
    """One-peer shift matrix: node j sends to mod_n(j + u) with weight (n-1)/n, keeps 1/n."""
    _check_basis_value(u, n)
    return _one_peer((np.arange(n) - u) % n, 1.0 - 1.0 / n, 1.0 / n, "basis", (u,))


def _average_of_basis(values: tuple[int, ...], n: int) -> sparse.csr_array:
    # counts aggregated per shift so repeated values cost nothing extra
    m = len(values)
    counts = np.bincount(values, minlength=n)
    us = np.nonzero(counts[1:])[0] + 1
    j = np.arange(n)
    rows = ((j[None, :] + us[:, None]) % n).ravel()
    cols = np.tile(j, len(us))
    vals = np.repeat(counts[us] * ((1.0 - 1.0 / n) / m), n)
    rows = np.concatenate([rows, j])
    cols = np.concatenate([cols, j])
    vals = np.concatenate([vals, np.full(n, 1.0 / n)])
    mat = sparse.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    mat.sort_indices()
    return mat


def build_d_equistatic(spec: TopologySpec, rng=None) -> tuple[GossipMatrix, BasisIndex]:
    """Sample shifts i.i.d. from [1, n-1] and average until the factor target holds.

    The candidate is accepted once its measured consensus factor is <= spec.rho;
    after RESAMPLE_CAP failed attempts a ConstructionError carrying the best
    candidate is raised.
    """
    from .spectral import consensus_factor

    if rng is None:
        rng = make_rng(spec.seed, "d-equistatic")
    n = spec.n
    m = spec.m if spec.m is not None else default_basis_count(n, spec.rho, spec.p)
    best_w, best_value = None, np.inf
    for _ in range(RESAMPLE_CAP):
        values = tuple(int(v) for v in rng.integers(1, n, size=m))
        w = GossipMatrix(n, _average_of_basis(values, n), "d-equistatic", values)
        est = consensus_factor(w)
        if est.converged and est.value <= spec.rho:
            return w, BasisIndex(values, n)
        if est.value < best_value:
            best_w, best_value = w, est.value
    raise ConstructionError(
        f"no candidate reached rho={spec.rho} in {RESAMPLE_CAP} attempts "
        f"(best factor {best_value:.6g}); increase m or relax rho",
        best_matrix=best_w, best_factor=best_value)


def build_u_equistatic(w: GossipMatrix) -> tuple[GossipMatrix, BasisIndex]:
    """Symmetrize a directed equi-static matrix: (W + W^T) / 2.

    The result keeps the doubly-stochastic property, is symmetric, and its
    basis index gains the reverse shift n - u for every original u.  Its
    consensus factor never exceeds the input's.
    """
    if w.basis_index is None:
        raise ParameterError("input matrix carries no basis index")
    mat = ((w.mat + w.mat.T) * 0.5).tocsr()
    mat.sort_indices()
    signed = BasisIndex(w.basis_index, w.n).with_reversals()
    return GossipMatrix(w.n, mat, "u-equistatic", signed.values), signed


def _check_start(v: int, s: int, n: int) -> None:
    _check_basis_value(v, n)
    if not 1 <= s <= n:
        raise ParameterError(f"start {s} outside [1, {n}]")


def _ou_partners(v: int, s: int, n: int) -> np.ndarray:
    """Closed form of the greedy scan's matching for shift v and 1-based start s.

    Nodes are grouped by their offset k from the start index modulo the
    effective hop q and alternate forward/backward connections along each
    group; a group of odd length leaves its last node idle.
    """
    q, shift = (v, 0) if 2 * v <= n else (n - v, n - v)
    i = np.arange(n)
    k = (i - (s - 1) + shift) % n
    dd = k // q
    limit = (n - 1 - k % q) // q
    matched = (limit % 2 == 1) | (dd < limit)
    return np.where(matched, np.where(dd % 2 == 0, i + q, i - q) % n, i)


def _euclid_partners(v: int, s: int, n: int) -> np.ndarray:
    """Partners of `ou_equidyn_euclid`: m is each node's position in its class's v-sweep."""
    d = math.gcd(v, n)
    nt = n // d
    i = np.arange(n)
    m = ((i - (s - 1)) // d * pow(v // d, -1, nt)) % nt
    matched = (nt % 2 == 0) | (m < nt - 1)
    return np.where(matched, np.where(m % 2 == 0, i + v, i - v) % n, i)


def ou_scan_matrix(v: int, s: int, n: int) -> GossipMatrix:
    """Greedy one-peer matching: scan j = s..s+n-1 (wrapped), pairing j with mod_n(j + v).

    A pair is formed only when both endpoints are still free; matched pairs get
    symmetric weight (n-1)/n with 1/n kept on their diagonals, idle nodes keep 1.
    This node-by-node scan is the reference the vectorised rules are tested against.
    """
    _check_start(v, s, n)
    src = list(range(n))
    for step in range(n):
        j = (s - 1 + step) % n
        i = (j + v) % n
        if src[i] == i and src[j] == j:
            src[i], src[j] = j, i
    return _lazy_one_peer(np.array(src), 1.0, "ou-matching", (v,))


def ou_equidyn_node_view(v: int, s: int, n: int) -> GossipMatrix:
    """Each node derives its matching partner independently from (v, s).

    Produces a matrix bit-identical to `ou_scan_matrix(v, s, n)`.
    """
    _check_start(v, s, n)
    return _lazy_one_peer(_ou_partners(v, s, n), 1.0, "ou-matching", (v,))


def ou_equidyn_euclid(v: int, s: int, n: int) -> GossipMatrix:
    """Alternative one-peer matching built from the modular inverse of v.

    With d = gcd(v, n) the nodes split into d classes of size n/d, each swept
    by repeated v-shifts; consecutive sweep positions are paired, so exactly
    2d * floor(n / (2d)) nodes are matched for every start index s.
    """
    _check_start(v, s, n)
    return _lazy_one_peer(_euclid_partners(v, s, n), 1.0, "ou-matching-euclid", (v,))


class DynSampler:
    """Stateful per-iteration generator of one-peer weight matrices.

    Single-owner: concurrent experiments should hold independent samplers with
    distinct seeds.  Given identical (spec, seed) the emitted sequence is
    identical across runs.  Each draw is a partner array turned into CSR by
    `_one_peer`.
    """

    families: tuple[str, ...] = ()

    def __init__(self, spec: TopologySpec, basis_index: BasisIndex | None = None, rng=None):
        if spec.family not in self.families:
            raise ParameterError(
                f"{type(self).__name__} draws {self.families}, not {spec.family!r}")
        self.spec = spec
        self.basis_index = basis_index
        self.rng = rng if rng is not None else make_rng(spec.seed, spec.family, "sampler")
        self.t = 0

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def family(self) -> str:
        return self.spec.family

    def _draw_shift(self) -> int:
        if self.basis_index is None or len(self.basis_index) == 0:
            raise ParameterError("sampler holds an empty basis index")
        values = self.basis_index.values
        return values[int(self.rng.integers(0, len(values)))]

    def sample(self) -> GossipMatrix:
        raise NotImplementedError


class OdEquiDynSampler(DynSampler):
    """Draws one shift v from the basis multiset: (1-eta) I + eta A^(v)."""

    families = ("od-equidyn",)

    def sample(self) -> GossipMatrix:
        v = self._draw_shift()
        w = _lazy_one_peer((np.arange(self.n) - v) % self.n, self.spec.eta, self.family, (v,))
        self.t += 1
        return w


class OuEquiDynSampler(DynSampler):
    """Draws (v, s): (1-eta) I + eta A for the one-peer matching of shift v from start s."""

    families = ("ou-equidyn", "ou-equidyn-euclid")

    def sample(self) -> GossipMatrix:
        v = self._draw_shift()
        s = int(self.rng.integers(1, self.n + 1))
        rule = _euclid_partners if self.family == "ou-equidyn-euclid" else _ou_partners
        w = _lazy_one_peer(rule(v, s, self.n), self.spec.eta, self.family, (v,))
        self.t += 1
        return w


class OnePeerExpSampler(DynSampler):
    """Cycles hop 2^k, k = t mod (floor(log2(n-1)) + 1), with lazy weight 1/2."""

    families = ("one-peer-exp",)

    def __init__(self, spec, rng=None):
        super().__init__(spec, None, rng)
        self.hops = tuple(2**k for k in range(int(math.log2(spec.n - 1)) + 1))

    def sample(self) -> GossipMatrix:
        hop = self.hops[self.t % len(self.hops)]
        w = _one_peer((np.arange(self.n) - hop) % self.n, 0.5, 0.5, self.family)
        self.t += 1
        return w


def _uniform_undirected(edges: set[tuple[int, int]], n: int, family: str) -> GossipMatrix:
    """Symmetric matrix with one uniform edge weight 1/(max_degree + 1).

    The diagonal absorbs the remainder, which keeps the matrix doubly
    stochastic even when node degrees differ (e.g. grid borders).
    """
    deg = np.zeros(n, dtype=int)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    w = 1.0 / (deg.max() + 1.0)
    rows, cols, vals = [], [], []
    for i, j in edges:
        rows += [i, j]
        cols += [j, i]
        vals += [w, w]
    rows += list(range(n))
    cols += list(range(n))
    vals += list(1.0 - deg * w)
    return _to_matrix(rows, cols, vals, n, family)


def _ring_edges(n: int) -> set[tuple[int, int]]:
    return {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}


def _lattice_edges(m: int, periodic: bool) -> set[tuple[int, int]]:
    edges = set()
    for a in range(m):
        for bb in range(m):
            i = a * m + bb
            steps = [(a + 1, bb), (a, bb + 1)]
            for aa, cc in steps:
                if periodic:
                    j = (aa % m) * m + (cc % m)
                elif aa < m and cc < m:
                    j = aa * m + cc
                else:
                    continue
                if i != j:
                    edges.add((min(i, j), max(i, j)))
    return edges


def build_baseline(spec: TopologySpec) -> GossipMatrix | DynSampler:
    """Standard matrix (static families) or cycling sampler (one-peer-exp)."""
    n, family = spec.n, spec.family
    if family == "ring":
        return _uniform_undirected(_ring_edges(n), n, family)
    if family in ("grid", "torus"):
        m = math.isqrt(n)
        if m * m != n:
            raise ParameterError(f"{family} requires n to be a perfect square, got {n}")
        return _uniform_undirected(_lattice_edges(m, periodic=(family == "torus")), n, family)
    if family == "hypercube":
        if n & (n - 1) != 0:
            raise ParameterError(f"hypercube requires n to be a power of 2, got {n}")
        k = n.bit_length() - 1
        edges = {(i, i ^ (1 << bit)) for i in range(n) for bit in range(k) if i < i ^ (1 << bit)}
        return _uniform_undirected(edges, n, family)
    if family == "static-exp":
        hops = [2**k for k in range(int(math.log2(n - 1)) + 1)]
        w = 1.0 / (len(hops) + 1.0)
        j = np.arange(n)
        rows = np.concatenate([(j + h) % n for h in hops] + [j])
        cols = np.concatenate([j] * (len(hops) + 1))
        vals = np.full((len(hops) + 1) * n, w)
        return _to_matrix(rows, cols, vals, n, family)
    if family == "complete":
        mat = sparse.csr_array(np.full((n, n), 1.0 / n))
        return GossipMatrix(n, mat, family)
    if family == "one-peer-exp":
        return OnePeerExpSampler(spec)
    raise ParameterError(f"{family!r} is not a baseline family")


def complete_basis(n: int) -> BasisIndex:
    """The full shift set {1, ..., n-1}, whose average is the all-1/n matrix."""
    return BasisIndex(tuple(range(1, n)), n)


def _dynamic_basis(spec: TopologySpec) -> BasisIndex:
    # m == n-1 selects the full deterministic shift set; anything else samples
    # a parent static matrix and inherits its basis.
    if spec.m is not None and spec.m == spec.n - 1:
        return complete_basis(spec.n)
    _, basis = build_d_equistatic(replace(spec, seed=derive_seed(spec.seed, "parent")))
    return basis


def build_topology(spec: TopologySpec) -> GossipMatrix | DynSampler:
    """Build the matrix or sampler described by `spec` (deterministic in spec.seed)."""
    if spec.family == "d-equistatic":
        return build_d_equistatic(spec)[0]
    if spec.family == "u-equistatic":
        w, _ = build_d_equistatic(spec)
        return build_u_equistatic(w)[0]
    if spec.family == "od-equidyn":
        return OdEquiDynSampler(spec, _dynamic_basis(spec))
    if spec.family in ("ou-equidyn", "ou-equidyn-euclid"):
        return OuEquiDynSampler(spec, _dynamic_basis(spec).with_reversals())
    return build_baseline(spec)


def matrix_csv_text(w: GossipMatrix) -> str:
    """Sparse triplet export: header `row,col,weight`, 0-based, full precision."""
    coo = w.mat.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = ["row,col,weight"]
    for idx in order:
        lines.append(f"{coo.row[idx]},{coo.col[idx]},{float(coo.data[idx])!r}")
    return "\n".join(lines) + "\n"
