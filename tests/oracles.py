"""Independent reference implementations used as oracles by the tests.

These deliberately avoid the package's own code paths: gradients are checked
against central finite differences, the decentralized reductions against a
plain gradient-descent loop, spectral values against a from-scratch
dense SVD of the mean-centred matrix, a long-double DFT or a long-double
closed form, carried circulant columns against the CSR they were built into, one-peer
draws against dense matrices built node by node, chunked draws against one
scalar `integers` call at a time, the ou partner rule against the
greedy scan run node by node, sparsity against off-diagonal
degrees counted on the dense matrix, circulant matrices against
COO assembly, grid/torus/hypercube against edge sets and COO assembly, the
hypercube also against the Kronecker sum folded one axis at a time, the
CSV export against a per-entry formatting loop, the Monte Carlo contraction
against one `standard_normal(n)` draw per trial, the problem data against
one-call (n, samples, d) draws and whole-array einsums, and the problem
kernels against their einsum/logaddexp/expit forms.
"""

import math

import numpy as np
from scipy import sparse
from scipy.special import expit


def central_difference_gradient(f, x, h=1e-5):
    g = np.zeros_like(x, dtype=float)
    for j in range(x.size):
        e = np.zeros_like(g)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def gradient_descent_path(grad, x0, schedule, iters):
    """Plain full-gradient descent; reference for the all-to-all reductions."""
    x = np.array(x0, dtype=float)
    path = [x.copy()]
    for t in range(iters):
        x = x - schedule.gamma(t) * grad(x)
        path.append(x.copy())
    return path


def dense_consensus_factor(dense_w):
    """sigma_max of (I - J) W (I - J), centred by subtracting column means, then row means.

    Forming the projector products instead moves the answer by up to ~0.2 n eps.
    """
    a = np.asarray(dense_w, dtype=float)
    b = a - a.mean(axis=0, keepdims=True)
    b -= b.mean(axis=1, keepdims=True)
    return float(np.linalg.svd(b, compute_uv=False)[0])


def contraction_per_trial(topology, trials, rng):
    """Mean squared one-step contraction and its standard error: one `standard_normal(n)`
    per trial, redrawn while its centred norm is below 1e-12, centred by `x - x.mean()`
    and normalised by `np.linalg.norm`; each mixed vector centred by `y - y.mean()`."""
    n = topology.n
    ratios = np.empty(trials)
    for k in range(trials):
        x = rng.standard_normal(n)
        x = x - x.mean()
        norm_x = np.linalg.norm(x)
        while norm_x < 1e-12:
            x = rng.standard_normal(n)
            x = x - x.mean()
            norm_x = np.linalg.norm(x)
        x /= norm_x
        y = topology.sample().mix(x)
        y = y - y.mean()
        ratios[k] = y @ y
    return float(ratios.mean()), float(ratios.std(ddof=1) / np.sqrt(trials))


def one_by_one_draws(values, n, rng, draws, starts):
    """The (v, s) of `draws` one-peer draws, one scalar `integers` call each: a shift
    `values[rng.integers(0, len(values))]`, then, for an ou draw (`starts`), a 1-based
    start `rng.integers(1, n + 1)`; an od draw's s is None."""
    made = []
    for _ in range(draws):
        v = values[int(rng.integers(0, len(values)))]
        made.append((v, int(rng.integers(1, n + 1)) if starts else None))
    return made


def matched_node_count(dense_a):
    """Number of nodes with an off-diagonal neighbor in a one-peer matrix."""
    a = np.asarray(dense_a)
    off = a - np.diag(np.diag(a))
    return int((np.count_nonzero(off, axis=1) > 0).sum())


def max_off_diagonal_degree(w):
    """Most non-zero off-diagonal entries in any row or column of a GossipMatrix."""
    off = w.toarray() != 0.0
    np.fill_diagonal(off, False)
    return int(max(off.sum(axis=0).max(), off.sum(axis=1).max()))


def euclid_matching(v, s, n):
    """Dense one-peer matrix of the modular-inverse matching, built node by node.

    With d = gcd(v, n), node i sits at position m of its class's v-sweep from
    start s; an even position pairs it with i + v, and the last position of an
    odd-length sweep stays idle.  Pairs get (n-1)/n, matched diagonals 1/n,
    idle diagonals 1.
    """
    d = math.gcd(v, n)
    nt = n // d
    b = pow(v // d, -1, nt)
    a = np.eye(n)
    for i in range(n):
        m = (((i - (s - 1)) // d) * b) % nt
        if nt % 2 == 0 or m < nt - 1:
            a[i, i] = 1.0 / n
            if m % 2 == 0:
                j = (i + v) % n
                a[i, j] = a[j, i] = 1.0 - 1.0 / n
    return a


def ou_scan_partners(v, s, n):
    """Partner array of the greedy ou scan: j = s-1, ..., s+n-2 (mod n) pairs with (j + v) % n
    when both are still free; an idle node is its own partner."""
    partner = list(range(n))
    for step in range(n):
        j = (s - 1 + step) % n
        i = (j + v) % n
        if partner[i] == i and partner[j] == j:
            partner[i], partner[j] = j, i
    return np.array(partner)


def hop_permutation(hop, n):
    """P^hop for the cyclic shift P that sends node j to node j + 1 (mod n)."""
    return np.linalg.matrix_power(np.roll(np.eye(n), 1, axis=0), hop)


def circulant_coo(c):
    """W[i, j] = c[(i - j) % n] assembled from COO triplets, one per non-zero c_u and column j."""
    c = np.asarray(c, dtype=float)
    n = c.size
    u = np.flatnonzero(c)
    j = np.arange(n)
    rows = ((j[None, :] + u[:, None]) % n).ravel()
    cols = np.tile(j, u.size)
    mat = sparse.coo_array((np.repeat(c[u], n), (rows, cols)), shape=(n, n)).tocsr()
    mat.sort_indices()
    return mat


def matrix_csv_loop(w):
    """Triplet CSV of a GossipMatrix, one f-string per stored entry in (row, col) order."""
    coo = w.mat.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = ["row,col,weight"]
    for r, c, x in zip(coo.row[order].tolist(), coo.col[order].tolist(),
                       coo.data[order].astype(float).tolist()):
        lines.append(f"{r},{c},{x!r}")
    return "\n".join(lines) + "\n"


def circulant_column(w, shape=None):
    """Column c of `w`, shaped as `shape` (default (n,)), when w[i, j] == c[i - j] for
    every i, j, the difference taken in the group Z_m1 x ... x Z_mk of that shape
    with node i at np.unravel_index(i, shape); else None.

    Every stored entry must be non-zero and match c, and the stored count must
    be n times the support of c; with no duplicate entries that leaves no
    stored or missing position outside the circulant pattern.
    """
    mat, n = w.mat, w.n
    shape = shape or (n,)
    if not mat.has_canonical_format or not np.all(mat.data):
        return None
    rows = np.repeat(np.arange(n), np.diff(mat.indptr))
    on_col0 = mat.indices == 0
    c = np.zeros(n)
    c[rows[on_col0]] = mat.data[on_col0]
    if mat.nnz != n * np.count_nonzero(c):
        return None
    diff = tuple((a - b) % m for a, b, m in zip(np.unravel_index(rows, shape),
                                                 np.unravel_index(mat.indices, shape), shape))
    return c.reshape(shape) if np.array_equal(mat.data, c[np.ravel_multi_index(diff, shape)]) \
        else None


def circulant_factor_extended(c):
    """max over non-zero frequencies k of |sum_g c_g exp(-2 pi i <g, k>)|, the DFT of c over
    the group its shape names, in long double: one DFT matrix per axis, entry by entry."""
    x = np.asarray(c, dtype=np.clongdouble)
    pi = np.arccos(np.longdouble(-1.0))
    for axis, m in enumerate(x.shape):
        k = np.arange(m)
        angle = 2 * pi * ((k[:, None] * k[None, :]) % m).astype(np.longdouble) / m
        x = np.moveaxis(np.tensordot(np.cos(angle) - 1j * np.sin(angle), x, axes=([1], [axis])),
                        0, axis)
    return np.abs(x.ravel()[1:]).max(initial=np.longdouble(0.0))


def grid_factor_extended(m, weight):
    """max over (a, b) != (0, 0) of |1 - weight (4 - 2 cos(pi a / m) - 2 cos(pi b / m))|,
    the eigenvalues of I - weight * L on the m x m grid, in long double."""
    pi = np.arccos(np.longdouble(-1.0))
    cos = np.cos(pi * np.arange(m).astype(np.longdouble) / m)
    lam = np.abs(1 - np.longdouble(weight) * (4 - 2 * cos[:, None] - 2 * cos[None, :]))
    lam[0, 0] = 0
    return lam.max()


def lattice_edge_set(m, periodic):
    """Undirected edges (min, max) of the m x m grid or torus on nodes a * m + b, as a set."""
    edges = set()
    for a in range(m):
        for bb in range(m):
            i = a * m + bb
            for aa, cc in [(a + 1, bb), (a, bb + 1)]:
                if periodic:
                    j = (aa % m) * m + (cc % m)
                elif aa < m and cc < m:
                    j = aa * m + cc
                else:
                    continue
                if i != j:
                    edges.add((min(i, j), max(i, j)))
    return edges


def hypercube_edge_set(n):
    """Undirected edges (i, i ^ 2^bit), i < i ^ 2^bit, of the log2(n)-cube, as a set."""
    k = n.bit_length() - 1
    return {(i, i ^ (1 << bit)) for i in range(n) for bit in range(k) if i < i ^ (1 << bit)}


def hypercube_by_axis_fold(d):
    """I - L / (d + 1) for the Laplacian L of the d-cube, folded one axis at a time from
    the one-edge Laplacian of each 2-node axis (the last axis varying fastest), as CSR."""
    axis = sparse.csr_array(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    lap = axis
    for _ in range(d - 1):
        lap = sparse.kronsum(axis, lap)
    lap.data *= -(1.0 / (d + 1.0))
    lap.setdiag(lap.diagonal() + 1.0)
    return lap


def uniform_undirected_coo(edges, n):
    """Edge weight 1/(max degree + 1), diagonal 1 - degree * weight, assembled from COO."""
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
    mat = sparse.coo_array((np.asarray(vals, float), (np.asarray(rows), np.asarray(cols))),
                           shape=(n, n)).tocsr()
    mat.sort_indices()
    return mat


# Problem data drawn in one call, sample-major, with whole-array einsums.

def reference_least_squares(n, d, k_samples, sigma_s, rng):
    """(x_gen, a, b) with a of shape (n, K, d), as one standard_normal draw."""
    x_gen = rng.standard_normal(d)
    a = rng.standard_normal((n, k_samples, d))
    b = np.einsum("nkd,d->nk", a, x_gen)
    if sigma_s > 0.0:
        b = b + sigma_s * rng.standard_normal((n, k_samples))
    return x_gen, a, b


def reference_logistic(n, d, l_samples, sigma_h, rng):
    """(x_gen, h, y) with h of shape (n, L, d), as one standard_normal draw."""
    x_gen = rng.standard_normal(d)
    x_local = x_gen + sigma_h * rng.standard_normal((n, d))
    h = rng.standard_normal((n, l_samples, d))
    z = rng.uniform(size=(n, l_samples))
    with np.errstate(over="ignore"):
        threshold = 1.0 + np.exp(-np.einsum("nld,nd->nl", h, x_local))
    return x_gen, h, np.where(z <= threshold, 1.0, -1.0)


# Problem kernels in their einsum / logaddexp / expit forms, dispatched on `p.kind`.

def kernel_loss(p, x):
    if p.kind == "least-squares":
        r = np.einsum("nkd,d->nk", p.a, x) - p.b
        return float(np.mean(r * r)) / 2.0
    margin = p.y * np.einsum("nld,d->nl", p.h, x)
    return float(np.mean(np.logaddexp(0.0, -margin))) + p._reg_loss(x)


def kernel_global_grad(p, x):
    if p.kind == "least-squares":
        r = np.einsum("nkd,d->nk", p.a, x) - p.b
        return np.einsum("nkd,nk->d", p.a, r) / (p.n * p.k_samples)
    coef = p.y * expit(-(p.y * np.einsum("nld,d->nl", p.h, x)))
    return -np.einsum("nld,nl->d", p.h, coef) / (p.n * p.l_samples) + p._reg_grad(x)


def kernel_grads_all(p, x_rows):
    if p.kind == "least-squares":
        r = np.einsum("nkd,nd->nk", p.a, x_rows) - p.b
        return np.einsum("nkd,nk->nd", p.a, r) / p.k_samples
    coef = p.y * expit(-(p.y * np.einsum("nld,nd->nl", p.h, x_rows)))
    return -np.einsum("nld,nl->nd", p.h, coef) / p.l_samples + p._reg_grad(x_rows)


def kernel_local_loss(p, i, x):
    if p.kind == "least-squares":
        r = p.a[i] @ x - p.b[i]
        return float(r @ r) / (2.0 * p.k_samples)
    margin = p.y[i] * (p.h[i] @ x)
    return float(np.mean(np.logaddexp(0.0, -margin))) + p._reg_loss(x)


def kernel_grad(p, i, x):
    if p.kind == "least-squares":
        r = p.a[i] @ x - p.b[i]
        return (p.a[i].T @ r) / p.k_samples
    coef = p.y[i] * expit(-(p.y[i] * (p.h[i] @ x)))
    return -(p.h[i].T @ coef) / p.l_samples + p._reg_grad(x)
