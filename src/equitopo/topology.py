"""Construction of doubly-stochastic gossip matrices.

Every family is built from one of three representations, left on the
matrix as the `structure` that `spectral.consensus_factor` reads:

* a circulant column c, W[i, j] = c[(i - j) % n], one weight per shift
  (`_circulant`, a `Circulant`): "d-equistatic", the average of M one-peer
  shift graphs; its symmetrization "u-equistatic"; and the baselines ring,
  static exponential and complete;
* a partner array, node i mixing with partner[i] and an idle node pointing
  to itself (a `OnePeer`): every basis matrix and every draw of the one-peer
  samplers "od-equidyn", "ou-equidyn", "ou-equidyn-euclid" and one-peer
  exponential.  Such a matrix mixes as a gather, `GossipMatrix.mix` computing
  diag x + off x[partner] with two scalar weights and copying x into the idle
  rows, and its CSR is slotted only when `csr` is read (an export, or `mat`:
  `toarray`);
* per-axis Laplacians of paths or cycles, whose Kronecker sum L gives
  I - L / (max degree + 1) (`_lattice`): grid (a `Grid`), torus and
  hypercube (a `Circulant` over Z_m^2 or Z_2^d).

A cyclic circulant is built from its column alone, like a one-peer matrix,
and its sorted CSR arrays are assembled on the first read of `csr` (an
export, or the first read of `mat`: a mix, `toarray`); `consensus_factor`
needs only the column.  The lattices are built straight into CSR by
`_lattice`.  The export reads only `csr`, so `scipy.sparse` is imported only
where a lattice is built or a CSR product is formed (`mat`): a circulant's
mix, `toarray`.  One `_check_memory` refuses work that would not fit in
physical memory where it allocates: a circulant's CSR in `csr`, a lattice at
its build, an export at the call.  Node labels and matrix storage (CSR) are
0-based; only the start s of an "ou" matching counts from 1.  A matrix is
the sampler that always draws itself (`GossipMatrix.sample`), so a step loop
draws `topology.sample()` and mixes with `mix` whether the topology is static
or dynamic.  Constructed matrices are immutable and safe to share across
workers; samplers are single-owner mutable state.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

if TYPE_CHECKING:
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
CSV_BLOCK = 1 << 16   # entries per numpy pass of `matrix_csv_text`
CELL_BYTES = 26       # widest cell ",repr(x)\n": repr(-2.2250738585072014e-308) has 24 characters
# the bytes of `_ou_table`s an ou sampler keeps, 16 n each: the default basis's 89 shifts at
# n = 1000 need at most 1.4 MB; unbounded, a 200-trial verify at n = 10^5 peaked at 207 MB
OU_TABLE_BYTES = 8 << 20
_CHUNK = 64   # draws an od or ou sampler takes from one `rng.integers` call

_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_ROWS.flags.writeable = False


class Circulant(NamedTuple):
    """W[i, j] = column[i - j] in the group Z_m1 x ... x Z_mk of the column's shape, node i
    at np.unravel_index(i, shape): Z_n, the torus Z_m^2, the hypercube Z_2^d (i - j = i ^ j)."""

    column: np.ndarray


class OnePeer(NamedTuple):
    """A paired row i keeps `diag` and takes `off` from column partner[i]; an idle row,
    partner[i] == i, keeps 1.  `idle` lists the idle rows, in any order (none by default)."""

    partner: np.ndarray
    off: float
    diag: float
    idle: np.ndarray = _NO_ROWS

    @property
    def column(self) -> np.ndarray | None:
        """The cyclic column, diag at 0 and off at v, if partner[i] == (i - v) % n, v != 0."""
        n = self.partner.size
        v = -int(self.partner[0]) % n
        if v == 0 or not np.array_equal(self.partner, (np.arange(n) - v) % n):
            return None
        c = np.zeros(n)
        c[0], c[v] = self.diag, self.off
        return c


class Grid(NamedTuple):
    """I - weight * L, L the Laplacian of the m x m grid on nodes a * m + b."""

    m: int
    weight: float


class CSR(NamedTuple):
    """The sorted CSR arrays of a matrix: row i stores data[indptr[i]:indptr[i + 1]] at
    columns indices[indptr[i]:indptr[i + 1]], in ascending order."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


class GossipMatrix:
    """Immutable sparse doubly-stochastic n x n mixing matrix with provenance tags.

    A one-peer matrix is built from its `OnePeer` alone and a cyclic
    circulant from its 1-D `Circulant` alone (`mat` None); the sorted CSR
    arrays of either are assembled on the first read of `csr`, and its scipy
    CSR on the first read of `mat`.  A lattice is handed its CSR.  `mix`
    gathers from a one-peer partner array and multiplies by any other
    matrix's CSR.  `basis_index` tags an equi-static matrix with its basis's
    read-only `shifts`, no copy, and a draw with its shift, `(v,)`.
    """

    def __init__(self, n: int, mat: sparse.csr_array | None, family: str,
                 basis_index: np.ndarray | tuple[int, ...] | None = None,
                 structure: Circulant | OnePeer | Grid | None = None):   # None: built elsewhere
        if mat is None and not (isinstance(structure, OnePeer) or
                                (isinstance(structure, Circulant) and structure.column.ndim == 1)):
            raise ParameterError("only a one-peer or cyclic circulant matrix is built "
                                 "without its CSR")
        attrs = vars(self)   # item by item: a keyword dict costs a one-peer draw ~10 %
        attrs["n"], attrs["family"], attrs["basis_index"], attrs["structure"] = \
            n, family, basis_index, structure
        if mat is not None:
            _frozen(mat.data, mat.indices, mat.indptr)
            vars(self)["mat"] = mat
        if isinstance(structure, Circulant):   # not a draw's arrays: no per-draw work
            structure.column.flags.writeable = False

    def __setattr__(self, name, value):
        raise AttributeError(f"GossipMatrix is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GossipMatrix is immutable; cannot delete {name!r}")

    @functools.cached_property
    def csr(self) -> CSR:
        """The read-only sorted CSR arrays, assembled on first read; a handed CSR gives its
        own, or a sorted copy of them.

        A circulant's row i stores the support S of its column c at columns
        (i - u) % n.  Walking S from the largest shift down gives ascending
        columns i - u for u <= i; the shifts above i land on columns above i,
        so they rotate to the row's end.  The rows from one shift up to the
        next share one rotation.  A circulant CSR whose 16 n |S| bytes (8-byte
        data and indices) would not fit in physical memory is refused before
        its arrays are allocated.  A one-peer row stores its diagonal and, when
        paired, its partner's weight; an idle row stores its diagonal only.
        """
        if "mat" in vars(self):   # a handed CSR
            mat = self.mat if self.mat.has_sorted_indices else self.mat.sorted_indices()
            return CSR(*_frozen(mat.data, mat.indices, mat.indptr))
        n, s = self.n, self.structure
        if isinstance(s, Circulant):
            c = s.column
            shifts = np.flatnonzero(c)
            k = shifts.size
            _check_memory(16 * n * k, f"an n = {n} {self.family} matrix stores {n * k} entries, "
                                      f"{16 * n * k} bytes of CSR")
            rotations = sliding_window_view(np.tile(shifts[::-1], 2), k)[k::-1]
            order = np.repeat(rotations, np.diff(shifts, prepend=0, append=n), axis=0)
            data = c[order].ravel()
            indices = np.subtract(np.arange(n)[:, None], order, out=order)
            np.add(indices, n, out=indices, where=indices < 0)
            indices, indptr = indices.ravel(), np.arange(0, n * k + 1, k)
        else:
            src, off, diag, idle = s
            i = np.arange(n)
            paired = src != i
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(paired + 1, out=indptr[1:])
            indices = np.empty(indptr[-1], dtype=np.int64)
            data = np.empty(indptr[-1])
            slot = indptr[:-1] + (src < i)  # the diagonal follows a partner with a lower column
            indices[slot], data[slot] = i, diag
            data[slot[idle]] = 1.0
            slot = indptr[:-1][paired] + (src > i)[paired]
            indices[slot], data[slot] = src[paired], off
        return CSR(*_frozen(data, indices, indptr))

    @functools.cached_property
    def mat(self) -> sparse.csr_array:
        """The scipy CSR of a cyclic circulant or a one-peer matrix, built on first read (a
        product, `toarray`) around the three arrays of `csr`, with no copy.  The export reads
        `csr` alone, so for these matrices only this read imports `scipy.sparse`."""
        from scipy import sparse

        return sparse.csr_array(self.csr, shape=(self.n, self.n))

    def mix(self, x: np.ndarray) -> np.ndarray:
        """W @ x for x of shape (n,) or (n, d).

        A one-peer matrix gathers: every row is diag x_i + off x_partner[i],
        then the idle rows are copies of x.  Addition commutes, so a paired
        row equals the CSR product's 0 + a x_j + b x_k, and an idle row its
        0 + 1.0 x_i, bit for bit, unless every term is -0.0 (the CSR gives
        +0.0); infinite and NaN entries land where the product has them, with
        the same signs.  Like the CSR product, the gather warns of no inf -
        inf and no overflow, and it returns the product's dtype,
        `np.result_type(x, np.float64)`.
        """
        s = self.structure
        if not isinstance(s, OnePeer):
            return self.mat @ x
        if x.dtype != float:
            x = x.astype(np.result_type(x, np.float64))
        # indexing gathers a vector faster than `take`, `take` rows faster
        y = x[s.partner] if x.ndim == 1 else np.take(x, s.partner, axis=0)
        with np.errstate(invalid="ignore", over="ignore"):
            y *= s.off
            y += s.diag * x
        if s.idle.size:
            y[s.idle] = x[s.idle]
        return y

    def toarray(self) -> np.ndarray:
        return self.mat.toarray()

    def sample(self) -> GossipMatrix:
        """The draw of a static topology: the matrix itself, at every step."""
        return self


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@dataclass(frozen=True, eq=False)
class BasisIndex:
    """Multiset of shift values, each in [1, n-1]; duplicates are allowed.

    The shifts are one read-only int64 array; an int64 array handed in
    becomes the basis's own and is frozen, with no copy.  Values that are
    not integers (floats, strings, bools) are refused, not truncated.
    `values` builds the tuple of Python ints on read.  A reverse shift -u is
    stored canonically as n - u, since shifting by n - u traverses every
    edge of the shift-u graph in the opposite direction.
    """

    shifts: np.ndarray
    n: int

    def __post_init__(self):
        shifts, n = np.asarray(self.shifts), self.n
        if shifts.size and shifts.dtype.kind not in "iu":
            raise ParameterError(f"basis values must be integers, not {shifts.dtype}")
        shifts, = _frozen(shifts.astype(np.int64, copy=False))
        object.__setattr__(self, "shifts", shifts)
        if shifts.size and (shifts.min() < 1 or shifts.max() > n - 1):
            v = shifts[np.argmax((shifts < 1) | (shifts > n - 1))]
            raise ParameterError(f"basis value {v} outside [1, {n - 1}]")

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(self.shifts.tolist())

    def __len__(self) -> int:
        return self.shifts.size

    def __eq__(self, other) -> bool:
        return isinstance(other, BasisIndex) and self.n == other.n and \
            np.array_equal(self.shifts, other.shifts)

    def with_reversals(self) -> "BasisIndex":
        """Append the reverse shift n - u for every stored value."""
        return BasisIndex(np.concatenate((self.shifts, self.n - self.shifts)), self.n)


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


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(need: int, what: str) -> None:
    """Refuse `what`, which needs `need` bytes, when that is more than physical memory."""
    have = _physical_memory()
    if need > have:
        raise ParameterError(f"{what}, more than the {have} bytes of physical memory")


def _check_column(n: int, family: str) -> None:
    _check_memory(8 * n, f"an n = {n} {family} matrix's column holds {n} weights, {8 * n} bytes")


def _lazy_weights(n: int, eta: float) -> tuple[float, float]:
    """`off` and `diag` of a paired row of (1 - eta) I + eta A, A giving (n-1)/n to the
    partner and keeping 1/n.  An idle row keeps (1 - eta) + eta, which rounds to exactly 1.0
    for every double eta in (0, 1]: 1 - eta is exact for eta >= 1/2 and otherwise off by at
    most 2^-54, which the sum rounds back to 1."""
    return (1.0 - 1.0 / n) * eta, (1.0 - eta) + (1.0 / n) * eta


def _lazy_one_peer(src, eta: float, family: str, basis_index) -> GossipMatrix:
    """(1 - eta) I + eta A, where A gives (n-1)/n to the partner and keeps 1/n, or 1 when idle.

    eta = 1 yields A itself, bit for bit.
    """
    n = len(src)
    idle = np.flatnonzero(src == np.arange(n))
    return GossipMatrix(n, None, family, basis_index, OnePeer(src, *_lazy_weights(n, eta), idle))


def basis_matrix(u: int, n: int) -> GossipMatrix:
    """One-peer shift matrix: node j sends to (j + u) % n with weight (n-1)/n, keeps 1/n."""
    BasisIndex((u,), n)   # refuses a shift outside [1, n - 1]
    partner = (np.arange(n) - u) % n
    return GossipMatrix(n, None, "basis", (u,), OnePeer(partner, 1.0 - 1.0 / n, 1.0 / n))


def _circulant(c: np.ndarray, family: str, basis_index=None) -> GossipMatrix:
    """Circulant matrix W[i, j] = c[(i - j) % n], held as its column alone; `csr` checks
    the memory of its sorted CSR arrays and assembles them on first read."""
    return GossipMatrix(c.size, None, family, basis_index, Circulant(c))


def build_d_equistatic(spec: TopologySpec) -> tuple[GossipMatrix, BasisIndex]:
    """Sample shifts i.i.d. from [1, n-1] and average until the factor target holds.

    The candidate is accepted once its measured consensus factor is <= spec.rho;
    after RESAMPLE_CAP failed attempts a ConstructionError carrying the best
    candidate is raised.  A column that would not fit in physical memory is
    refused before the first draw.
    """
    from .spectral import consensus_factor

    rng = make_rng(spec.seed, "d-equistatic")
    n = spec.n
    _check_column(n, spec.family)
    m = spec.m if spec.m is not None else default_basis_count(n, spec.rho, spec.p)
    best_w, best_value = None, np.inf
    for _ in range(RESAMPLE_CAP):
        basis = BasisIndex(rng.integers(1, n, size=m), n)
        c = np.bincount(basis.shifts, minlength=n) * ((1.0 - 1.0 / n) / m)
        c[0] = 1.0 / n
        w = _circulant(c, "d-equistatic", basis.shifts)
        est = consensus_factor(w)
        if est.value <= spec.rho:
            return w, basis
        if est.value < best_value:
            best_w, best_value = w, est.value
    raise ConstructionError(
        f"no candidate reached rho={spec.rho} in {RESAMPLE_CAP} attempts "
        f"(best factor {best_value:.6g}); increase m or relax rho",
        best_matrix=best_w, best_factor=best_value)


def build_u_equistatic(w: GossipMatrix) -> tuple[GossipMatrix, BasisIndex]:
    """Symmetrize a directed equi-static matrix: (W + W^T) / 2.

    W^T is the circulant of c[-k % n], so the result is the circulant of
    (c + c[-k % n]) / 2.  It keeps the doubly-stochastic property, is
    symmetric, and its basis index gains the reverse shift n - u for every
    original u.  Its consensus factor never exceeds the input's.
    """
    if w.basis_index is None:
        raise ParameterError("input matrix carries no basis index")
    if not isinstance(w.structure, Circulant) or w.structure.column.ndim != 1:
        raise ParameterError("input matrix is not a cyclic circulant")
    c = w.structure.column
    signed = BasisIndex(w.basis_index, w.n).with_reversals()
    c = (c + c[-np.arange(w.n) % w.n]) * 0.5
    return _circulant(c, "u-equistatic", signed.shifts), signed


def _check_start(v: int, s: int, n: int) -> None:
    BasisIndex((v,), n)
    if np.asarray(s).dtype.kind not in "iu":
        raise ParameterError(f"start must be an integer, not {s!r}")
    if not 1 <= s <= n:
        raise ParameterError(f"start {s} outside [1, {n}]")


def _doubled_labels(n: int) -> np.ndarray:
    """The node labels twice over, read-only: (i - v) % n sits at [n - v + i], so the
    partners of the shift v are the view [n - v:2 * n - v]."""
    return _frozen(np.arange(2 * n) % n)[0]


def _ou_table(q: int, labels: np.ndarray) -> tuple[np.ndarray, slice]:
    """The partners of the greedy scan's matching of hop q from node 0, twice over, and its
    run of idle offsets, read with `_read`.

    Count offsets k forward from a matching's first node: the node at offset
    k pairs with the node q ahead when k // q is even and q behind when it
    is odd, the pattern +q (q times), -q (q times), ... cut to n.  The last
    q offsets close their residue class mod q; a +q there would leave the
    ring, so those nodes are idle, their own partners: the offsets [a, b),
    the last q whose k // q is even, one run.  No partner leaves [0, n), and
    the table holds the n partners twice, so the partners of nodes 0..n-1 at
    any rotation are one slice of it.  `labels` are the doubled node labels.
    """
    n = labels.size // 2
    hop = np.empty((-(-n // (2 * q)), 2, q), dtype=np.int64)
    hop[:, 0], hop[:, 1] = q, -q
    partner = hop.reshape(-1)[:n]
    np.minimum(partner[n - q:], 0, out=partner[n - q:])
    partner += labels[:n]
    end = ((n - q) // q + 1) * q   # the end of the block offset n - q falls in, <= n
    return np.concatenate((partner, partner)), slice(n - q, end) if end // q % 2 else slice(end, n)


def _ou_rotation(v: int, s: int, n: int) -> tuple[int, int]:
    """The hop q = min(v, n - v) of the matching of shift v from 1-based start s, and the
    rotation r at which `_read` reads the table of q: the offsets count from node s - 1
    (q = v) or from its first partner s - 1 - q (q = n - v), so node i sits at (i + r) % n."""
    q = min(v, n - v)
    return q, ((0 if q == v else q) + 1 - s) % n


def _read(table: tuple, labels: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The partners and the idle rows of the matching whose node i sits at offset
    k = (i + r) % n of `table`, its partners' offsets twice over and its idle offsets.

    Node i's partner is node (table[k] - r) % n, which is labels[n - r +
    table[k]]: one gather from the labels viewed at n - r, indexed by the
    partners viewed at r.  The idle rows are the labels at n - r indexed by
    the idle offsets, a view where those are a slice (`_ou_table`).
    """
    n = labels.size // 2
    rotated = labels[n - r:]
    return rotated[table[0][r:r + n]], rotated[table[1]]


def _ou_partners(v: int, s: int, n: int) -> np.ndarray:
    """The greedy scan's matching for shift v and 1-based start s: the sampler's rule,
    `_read` of the table of q = min(v, n - v), with a table built for this call."""
    labels = _doubled_labels(n)
    q, r = _ou_rotation(v, s, n)
    return _read(_ou_table(q, labels), labels, r)[0]


def _euclid_partners(v: int, s: int, n: int) -> np.ndarray:
    """Partners of `ou_equidyn_euclid`: m is each node's position in its class's v-sweep."""
    d = math.gcd(v, n)
    nt = n // d
    i = np.arange(n)
    m = ((i - (s - 1)) // d * pow(v // d, -1, nt)) % nt
    matched = (nt % 2 == 0) | (m < nt - 1)
    return np.where(matched, np.where(m % 2 == 0, i + v, i - v) % n, i)


def _euclid_table(v: int, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start-1 partners of `_euclid_partners` twice over, and its idle rows.

    Shifting the start by s - 1 moves every sweep position by s - 1 nodes, so
    node i of the start-s matching sits where node (i + r) % n, r = (1 - s) %
    n, sits in this one: `_read` at r gives its partners and idle rows.
    """
    n = labels.size // 2
    partner = _euclid_partners(v, 1, n)
    return np.concatenate((partner, partner)), np.flatnonzero(partner == labels[:n])


def ou_scan_matrix(v: int, s: int, n: int) -> GossipMatrix:
    """Greedy one-peer matching: scan j = s-1, ..., s+n-2 (mod n), pairing j with (j + v) % n.

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
    """The greedy scan's matching without the scan: `_ou_partners` rotates the matching of
    hop q = min(v, n - v) from node 0 to the start s, the samplers' rule.

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


def _exp_hops(n: int) -> list[int]:
    """The hops 2^k, k = 0..floor(log2(n - 1)), of the exponential graphs: every power of
    two below n.  The exponent comes from the integer's bit length; a float log2 rounds
    2^k - 1 up to k for k >= 49."""
    return [1 << k for k in range((n - 1).bit_length())]


class DynSampler:
    """Stateful per-iteration generator of one-peer weight matrices.

    Single-owner: concurrent experiments should hold independent samplers with
    distinct seeds.  Given identical (spec, seed) the emitted sequence is
    identical across runs.  `sample` is the one draw: it pops the next
    draw's integers off `_chunk`, which `_refill` refills when it is empty,
    and hands them to the family's partner rule, chosen when the sampler is
    built.  The rule makes a `GossipMatrix` from its partner array alone:

    * od-equidyn and one-peer-exp draw a shift v; `_shift` views its
      partners in the sampler's doubled labels;
    * ou-equidyn and ou-equidyn-euclid draw a shift v and a start s;
      `_matching` reads the partners and idle rows off a kept table.

    An od or ou draw is a basis index, mapped to its shift, then (ou) a
    start; _CHUNK draws' `integers` calls are made as one, with the same
    values and end state, so `rng` runs up to a chunk ahead of `sample`.
    One-peer-exp draws hop 2^k, k = t mod (floor(log2(n-1)) + 1), at step
    t, with lazy weight 1/2; it queues whole cycles, at least _CHUNK steps,
    and `t` counts the steps queued.  A subclass only declares the families
    it draws, and binds `sample` in its own namespace, where a tracer that
    wraps `vars(cls)["sample"]` finds it.
    """

    families: tuple[str, ...] = ()

    def __init__(self, spec: TopologySpec, basis_index: BasisIndex | None = None):
        if spec.family not in self.families:
            raise ParameterError(
                f"{type(self).__name__} draws {self.families}, not {spec.family!r}")
        self.spec = spec
        self.n, self.family = spec.n, spec.family
        self.basis_index = basis_index
        self.rng = make_rng(spec.seed, spec.family, "sampler")
        self._chunk: list = []   # the rule arguments of the draws queued, the next draw last
        # the rule by name, not as a bound method, which would tie the sampler, its labels
        # and its tables into a reference cycle; a replaced `_matching` is called
        self._rule = "_shift" if spec.family in ("od-equidyn", "one-peer-exp") else "_matching"
        if spec.family == "one-peer-exp":
            self.hops, self.t, self._weights = tuple(_exp_hops(spec.n)), 0, (0.5, 0.5)
            return
        self._weights = _lazy_weights(spec.n, spec.eta)   # (off, diag) of an od or ou draw
        # a chunk of `integers(0, len(basis_index))`, then (ou) `integers(1, n + 1)`, a row a draw
        k = 1 if spec.family == "od-equidyn" else 2
        self._bounds = (0, 1)[:k], np.tile((len(basis_index or ()), spec.n + 1)[:k], (_CHUNK, 1))
        # ou: by q, an `_ou_table`; ou-euclid: by v, an `_euclid_table`; and their arrays' bytes
        self._tables, self._kept = {}, 0

    @functools.cached_property
    def _labels(self) -> np.ndarray:   # built on the first draw
        return _doubled_labels(self.n)

    def sample(self) -> GossipMatrix:
        return getattr(self, self._rule)(*(self._chunk or self._refill()).pop())

    def _refill(self) -> list:   # `_chunk`, refilled with the next draws' rule arguments
        if self.family == "one-peer-exp":   # its hop cycle, whole cycles from step t
            self._chunk = [(hop,) for hop in reversed(self.hops)] * -(-_CHUNK // len(self.hops))
            self.t += len(self._chunk)
            return self._chunk
        if self.basis_index is None or len(self.basis_index) == 0:
            raise ParameterError("sampler holds an empty basis index")
        draws = self.rng.integers(*self._bounds)   # a basis index, then (ou) a start
        draws[:, 0] = self.basis_index.shifts[draws[:, 0]]
        self._chunk = draws.tolist()[::-1]
        return self._chunk

    def _shift(self, v: int) -> GossipMatrix:
        """Shift v's draw, node i taking from (i - v) % n: a view of the doubled labels.  An
        od draw is tagged (v,); a one-peer-exp draw comes from no basis and has no tag."""
        n = self.n
        return GossipMatrix(n, None, self.family, None if self.basis_index is None else (v,),
                            OnePeer(self._labels[n - v:2 * n - v], *self._weights))

    def _matching(self, v: int, s: int) -> GossipMatrix:
        """The one-peer matching of shift v from start s, read with `_read` off one kept table.

        An ou draw's table is that of the hop q = min(v, n - v) (`_ou_table`,
        `_ou_rotation`), an ou-euclid draw's that of the start-1 matching of
        its shift v (`_euclid_table`).  The sampler keeps each table it
        builds while every array of the kept tables fits in OU_TABLE_BYTES;
        past that, a draw builds its table and drops it.
        """
        n, euclid = self.n, self.family == "ou-equidyn-euclid"
        key, r = (v, (1 - s) % n) if euclid else _ou_rotation(v, s, n)
        table = self._tables.get(key)
        if table is None:
            table = (_euclid_table if euclid else _ou_table)(key, self._labels)
            size = sum(a.nbytes for a in table if isinstance(a, np.ndarray))
            if self._kept + size <= OU_TABLE_BYTES:
                self._tables[key], self._kept = table, self._kept + size
        partner, idle = _read(table, self._labels, r)
        return GossipMatrix(n, None, self.family, (v,), OnePeer(partner, *self._weights, idle))


class OdEquiDynSampler(DynSampler):
    """Draws one shift v from the basis multiset: (1-eta) I + eta A^(v)."""

    families = ("od-equidyn",)
    sample = DynSampler.sample


class OuEquiDynSampler(DynSampler):
    """Draws (v, s): (1-eta) I + eta A for the one-peer matching of shift v from start s."""

    families = ("ou-equidyn", "ou-equidyn-euclid")
    sample = DynSampler.sample


class OnePeerExpSampler(DynSampler):
    """Cycles hop 2^k, k = t mod (floor(log2(n-1)) + 1), with lazy weight 1/2."""

    families = ("one-peer-exp",)
    sample = DynSampler.sample


def _axis_laplacian(m: int, edges: int) -> sparse.csr_array:
    """Laplacian of the edges (i, (i + 1) % m), i < edges, on m nodes: the path, or the cycle
    when edges == m.  int32 coordinates keep the Kronecker sums' temporaries small."""
    from scipy import sparse

    i = np.arange(edges, dtype=np.int32)
    j, node = (i + 1) % m, np.arange(m, dtype=np.int32)
    deg = np.bincount(np.concatenate([i, j]), minlength=m)
    return sparse.coo_array((np.concatenate([np.full(2 * edges, -1.0), deg]),
                             (np.concatenate([i, j, node]), np.concatenate([j, i, node]))),
                            shape=(m, m)).tocsr()


def _kronsum(laps: list) -> sparse.csr_array:
    """The Kronecker sum of the Laplacians `laps`, the last varying fastest, folded as a
    balanced tree: the fast half's sum with the slow half's.  Folding one axis at a time,
    scipy's `kron` broadcasts over blocks of a 2-node axis's 2-4 entries, which numpy runs
    far slower per entry: the hypercube at 2^20 took 2.9-3.5 s to build that way and takes
    1.2-1.6 s (2 vCPU)."""
    from scipy import sparse

    if len(laps) == 1:
        return laps[0]
    half = len(laps) // 2
    return sparse.kronsum(_kronsum(laps[half:]), _kronsum(laps[:half]))


def _lattice(shape: tuple[int, ...], cyclic: bool, family: str) -> GossipMatrix:
    """I - weight L on the nodes np.unravel_index(i, shape), weight = 1/(max degree + 1).

    L is the Kronecker sum of one path Laplacian per axis, the last axis
    varying fastest, each closed into a cycle when `cyclic` and the axis has
    3 nodes or more; the diagonal absorbs the remainder.  The torus and the
    hypercube are group circulants whose column is column 0; the grid is a
    `Grid`.  A build's peak RSS came to 48 bytes per stored entry (grid and
    torus at n = 4e6) and 42 (hypercube at 2^20 and 2^21), 2.6-2.7 times the
    CSR; a build counted at 56 bytes per entry that would not fit in physical
    memory is refused before any axis is built.
    """
    from scipy import sparse

    n = math.prod(shape)
    edges = [m if cyclic and m >= 3 else m - 1 for m in shape]
    entries = n + sum(n // m * 2 * e for m, e in zip(shape, edges))
    _check_memory(56 * entries, f"an n = {n} {family} matrix stores {entries} entries, "
                                f"{56 * entries} bytes at the build's peak")
    weight = 1.0 / (sum(min(e, 2) for e in edges) + 1.0)
    lap = _kronsum(list(map(_axis_laplacian, shape, edges)))
    lap.data *= -weight
    lap.setdiag(lap.diagonal() + 1.0)   # I - weight L
    mat = sparse.csr_array((lap.data, lap.indices.astype(np.int64), lap.indptr.astype(np.int64)),
                           shape=(n, n))
    mat.sort_indices()   # the export reads the arrays in row, then column order
    structure = Circulant(mat[:, 0].toarray().reshape(shape)) if cyclic else Grid(shape[0], weight)
    return GossipMatrix(n, mat, family, None, structure)


def complete_basis(n: int) -> BasisIndex:
    """The full shift set {1, ..., n-1}, whose average is the all-1/n matrix."""
    return BasisIndex(np.arange(1, n), n)


def _dynamic_basis(spec: TopologySpec) -> BasisIndex:
    # m == n-1 selects the full deterministic shift set; anything else samples
    # a parent static matrix and inherits its basis.
    if spec.m is not None and spec.m == spec.n - 1:
        return complete_basis(spec.n)
    _, basis = build_d_equistatic(replace(spec, seed=derive_seed(spec.seed, "parent")))
    return basis


def build_topology(spec: TopologySpec) -> GossipMatrix | DynSampler:
    """Build the matrix or sampler described by `spec` (deterministic in spec.seed)."""
    n, family = spec.n, spec.family
    if family == "d-equistatic":
        return build_d_equistatic(spec)[0]
    if family == "u-equistatic":
        w, _ = build_d_equistatic(spec)
        return build_u_equistatic(w)[0]
    if family == "od-equidyn":
        return OdEquiDynSampler(spec, _dynamic_basis(spec))
    if family in ("ou-equidyn", "ou-equidyn-euclid"):
        return OuEquiDynSampler(spec, _dynamic_basis(spec).with_reversals())
    if family in ("ring", "static-exp", "complete"):
        _check_column(n, family)
    if family == "ring":
        deg = 1 if n == 2 else 2
        c = np.zeros(n)
        c[1] = c[-1] = 1.0 / (deg + 1.0)
        c[0] = 1.0 - deg * c[1]
        return _circulant(c, family)
    if family in ("grid", "torus"):
        m = math.isqrt(n)
        if m * m != n:
            raise ParameterError(f"{family} requires n to be a perfect square, got {n}")
        return _lattice((m, m), family == "torus", family)
    if family == "hypercube":
        if n & (n - 1) != 0:
            raise ParameterError(f"hypercube requires n to be a power of 2, got {n}")
        return _lattice((2,) * (n.bit_length() - 1), True, family)
    if family == "static-exp":
        hops = _exp_hops(n)
        c = np.zeros(n)
        c[0] = c[hops] = 1.0 / (len(hops) + 1.0)
        return _circulant(c, family)
    if family == "complete":
        return _circulant(np.full(n, 1.0 / n), family)
    return OnePeerExpSampler(spec)   # the last family TopologySpec admits


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of `a` in ascending order, from one sort of a copy.

    numpy 2.4's `unique` takes a hash path for int64, four to eight times
    slower than this sort at the export's sizes; the copy is freed on return,
    and an empty `a` gives an empty result.
    """
    s = np.sort(a)
    keep = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def matrix_csv_text(w: GossipMatrix) -> Iterator[bytes]:
    """Sparse triplet export: header `row,col,weight`, 0-based, full precision.

    Returns an iterator of ASCII blocks: the header, then one block per
    CSV_BLOCK entries; their concatenation is the CSV.  Lines follow the
    sorted CSR arrays `w.csr` in row, then column order, so no scipy CSR is
    built.  Each line is read from three byte tables: the row labels "i,",
    the column labels "j", and, per block, one cell ",repr(x)\n" per distinct
    weight of the block, told apart by its bits so that -0.0 and 0.0 keep
    their own text; the block's distinct bits come from one sort of its own
    (`_sorted_distinct`) and each entry finds its cell by `searchsorted`.  A
    table is NUL-padded to its widest item.  Each block fills one record
    array laid over a bytearray: each row's label repeated over its entries,
    the column labels and the cells gathered.  Its bytes less the NULs are
    the block.

    The memory check runs at the call, before any table is made: an export
    whose CSR, label tables and one block's working set would not fit in
    physical memory is refused with `ParameterError`.
    """
    data, indices, indptr = w.csr
    nnz, width = data.size, len(str(w.n - 1))
    csr = data.nbytes + indices.nbytes + indptr.nbytes
    labels = w.n * (8 + 2 * width + 1)   # the row and column labels, cut from an arange
    # one block's working set, per line, each cell at its widest: the padded record, the
    # stripped copy and its `bytes`, the row-label temp, the sort copy of the block's
    # bits, and a weight table (distinct bits, cells) as if no weight repeated
    record = (width + 1) + width + CELL_BYTES
    block = min(nnz, CSV_BLOCK) * (3 * record + (width + 1) + 8 + 8 + CELL_BYTES)
    need = csr + labels + block
    _check_memory(need, f"exporting an n = {w.n} {w.family} matrix needs {need} bytes ({csr} "
                        f"of CSR, {labels} of labels and {block} per block of {CSV_BLOCK} lines)")
    return _csv_blocks(w.n, data, indices, indptr, width)


def _csv_blocks(n, data, indices, indptr, width) -> Iterator[bytes]:
    cols = np.arange(n).astype(f"S{width}")
    rows = np.char.add(cols, b",")
    bits = data.astype(np.float64, copy=False).view(np.int64)
    yield b"row,col,weight\n"
    for lo in range(0, data.size, CSV_BLOCK):
        hi = min(lo + CSV_BLOCK, data.size)
        distinct = _sorted_distinct(bits[lo:hi])
        cells = np.array([("," + repr(x) + "\n").encode()
                          for x in distinct.view(np.float64).tolist()], dtype=bytes)
        record = np.dtype([("row", rows.dtype), ("col", cols.dtype), ("weight", cells.dtype)])
        # stripped where it was filled, with no `tobytes` copy: in a benchmark-like loop on
        # 2 vCPU, the strip took 4 against 7 ms per n = 2000 export
        padded = bytearray((hi - lo) * record.itemsize)
        lines = np.frombuffer(padded, record)
        first, last = np.searchsorted(indptr, (lo, hi - 1), side="right") - 1
        lines["row"] = np.repeat(rows[first:last + 1],
                                 np.diff(np.clip(indptr[first:last + 2], lo, hi)))
        lines["col"] = cols[indices[lo:hi]]
        lines["weight"] = cells[np.searchsorted(distinct, bits[lo:hi])]
        yield bytes(padded.translate(None, b"\0"))
