"""Independent reference implementations used as oracles by the tests.

These deliberately avoid the package's own code paths: gradients are checked
against central finite differences, the decentralized reductions against a
plain gradient-descent loop, spectral values against a from-scratch
dense SVD with explicit centering matrices or a long-double DFT, one-peer
draws against dense matrices built node by node, circulant matrices against
COO assembly, and the CSV export against a per-entry formatting loop.
"""

import math

import numpy as np
from scipy import sparse


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
    """sigma_max of (I - J) W (I - J) via explicit projector matrices."""
    a = np.asarray(dense_w, dtype=float)
    n = a.shape[0]
    pi = np.eye(n) - np.ones((n, n)) / n
    return float(np.linalg.svd(pi @ a @ pi, compute_uv=False)[0])


def matched_node_count(dense_a):
    """Number of nodes with an off-diagonal neighbor in a one-peer matrix."""
    a = np.asarray(dense_a)
    off = a - np.diag(np.diag(a))
    return int((np.count_nonzero(off, axis=1) > 0).sum())


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
    for idx in order:
        lines.append(f"{coo.row[idx]},{coo.col[idx]},{float(coo.data[idx])!r}")
    return "\n".join(lines) + "\n"


def circulant_factor_extended(c):
    """max_{k != 0} |sum_u c_u exp(-2 pi i u k / n)|, summed term by term in long double."""
    c = np.asarray(c, dtype=np.longdouble)
    n = c.size
    pi = np.arccos(np.longdouble(-1.0))
    u = np.arange(n)
    best = np.longdouble(0.0)
    for k in range(1, n):
        angle = 2 * pi * ((u * k) % n).astype(np.longdouble) / n
        re, im = (c * np.cos(angle)).sum(), (c * np.sin(angle)).sum()
        best = max(best, np.sqrt(re * re + im * im))
    return best
