import math

import numpy as np
import pytest
from scipy import sparse

import equitopo as eq

from equitopo.topology import DYNAMIC_FAMILIES, EQUI_DYNAMIC_FAMILIES, FAMILIES

from oracles import (circulant_column, circulant_factor_extended, contraction_per_trial,
                     dense_consensus_factor, grid_factor_extended)

EPS = float(np.finfo(float).eps)


def as_gossip(dense, family="custom"):
    dense = np.asarray(dense, dtype=float)
    return eq.GossipMatrix(dense.shape[0], sparse.csr_array(dense), family)


def test_uniform_matrix_has_factor_zero():
    w = eq.build_topology(eq.TopologySpec("complete", 20))
    assert eq.consensus_factor(w).value <= 1e-12


def test_ring4_factor_is_one_third():
    w = eq.build_topology(eq.TopologySpec("ring", 4))
    # oracle: eigenvalues of the symmetric circulant, second largest magnitude
    lam = np.sort(np.abs(np.linalg.eigvalsh(w.toarray())))
    assert lam[-2] == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert eq.consensus_factor(w).value == pytest.approx(1.0 / 3.0, abs=1e-10)


def circulant_cases(n):
    """One matrix of every kind that is circulant by construction, at size n."""
    spec = eq.TopologySpec("d-equistatic", n, rho=0.9, seed=n)
    try:
        d, _ = eq.build_d_equistatic(spec)
    except eq.ConstructionError as exc:   # tiny n may miss rho; the candidate is still circulant
        d = exc.best_matrix
    draws = eq.OdEquiDynSampler(eq.TopologySpec("od-equidyn", n, m=n - 1, seed=n),
                                eq.complete_basis(n))
    cases = {family: eq.build_topology(eq.TopologySpec(family, n))
             for family in ("ring", "static-exp", "complete")}
    cases.update({"d-equistatic": d, "u-equistatic": eq.build_u_equistatic(d)[0],
                  "basis": eq.basis_matrix(1 + n // 3, n), "od-equidyn": draws.sample()})
    return cases


@pytest.mark.parametrize("n", list(range(3, 71)) + [257])
def test_circulant_factor_is_exact(n):
    for name, w in circulant_cases(n).items():
        est = eq.consensus_factor(w)
        assert (est.method, est.iterations_or_trials, est.converged) == \
            ("circulant-fft", 1, True), name
        assert 0.0 < est.tolerance_or_stderr <= 1e-12
        assert abs(est.value - dense_consensus_factor(w.toarray())) <= 1e-12, name
        exact = circulant_factor_extended(circulant_column(w))
        assert abs(est.value - exact) <= est.tolerance_or_stderr, name


def with_stored_zero(dense, i, j):
    """CSR of `dense` that also stores an explicit 0.0 at (i, j)."""
    coo = sparse.coo_array(dense)
    mat = sparse.coo_array((np.append(coo.data, 0.0), (np.append(coo.row, i),
                                                       np.append(coo.col, j))),
                           shape=dense.shape).tocsr()
    mat.sort_indices()
    assert mat.nnz == coo.nnz + 1
    return eq.GossipMatrix(dense.shape[0], mat, "custom")


def altered_circulants(n):
    """Circulant d-equistatic matrices changed so that they are no longer circulant."""
    w, _ = eq.build_d_equistatic(eq.TopologySpec("d-equistatic", n, rho=0.9, seed=7))
    dense = w.toarray()
    i, j = np.argwhere(dense[1:] > 0)[0] + (1, 0)
    perturbed = dense.copy()
    perturbed[i, j] += 1e-3
    dropped = dense.copy()
    dropped[i, j] = 0.0
    swapped = dense[[1, 0] + list(range(2, n))]
    assert not np.array_equal(swapped, dense)
    # row 1 stores a zero where c is 0 instead of a weight off column 0: the count still fits c
    moved = dense.copy()
    moved[1, np.nonzero(dense[1, 1:])[0][-1] + 1] = 0.0
    # row 0 stores one entry twice and drops another: the count and every value still fit c
    mat = w.mat
    data, indices = mat.data.copy(), mat.indices.copy()
    data[1], indices[1] = data[0], indices[0]
    duplicated = sparse.csr_array((data, indices, mat.indptr.copy()), shape=(n, n))
    ou = eq.build_topology(eq.TopologySpec("ou-equidyn", n, m=n - 1, seed=3)).sample()
    return {"perturbed": as_gossip(perturbed), "dropped": as_gossip(dropped),
            "row-swapped": as_gossip(swapped),
            "explicit-zero": with_stored_zero(dense, *np.argwhere(dense == 0.0)[0]),
            "zero-moved": with_stored_zero(moved, 1, np.argwhere(dense[1] == 0.0)[0, 0]),
            "duplicated": eq.GossipMatrix(n, duplicated, "custom"),
            "ou-equidyn": eq.GossipMatrix(n, ou.mat, "custom")}


@pytest.mark.parametrize("n", [25, 101])
def test_non_circulant_falls_back(n):
    """A matrix that carries no structure is refused, small or large: nothing falls back."""
    for name, w in altered_circulants(n).items():
        assert w.structure is None and circulant_column(w) is None, name
        with pytest.raises(eq.ParameterError, match="no structure"):
            eq.consensus_factor(w)


@pytest.mark.parametrize("n", [2, 64, 65])
def test_structureless_matrix_refused(n):
    """The complete matrix has factor 0 by its column; without it there is no answer."""
    w = eq.build_topology(eq.TopologySpec("complete", n))
    assert eq.consensus_factor(w).method == "circulant-fft"
    with pytest.raises(eq.ParameterError, match="no structure"):
        eq.consensus_factor(eq.GossipMatrix(n, w.mat, "complete"))


def family_sizes(family):
    """Every size up to 256 a family admits: squares for the lattices, powers of 2 for the cube."""
    if family in ("grid", "torus"):
        return [m * m for m in range(2, 17)]
    if family == "hypercube":
        return [2**k for k in range(1, 9)]
    return list(range(2, 80)) + [97, 128, 255, 256]


EXPECTED_METHOD = {"grid": "closed-form", "ou-equidyn": "disconnected",
                   "ou-equidyn-euclid": "disconnected"}


@pytest.mark.parametrize("family", FAMILIES)
def test_factor_is_read_off_structure_and_matches_dense(family):
    """Each family's factor, from its carried structure, against the dense SVD oracle.

    The oracle centres W by its column and row means; the rounding of those
    means and of its SVD can put it a few eps from the exact factor, so the
    comparison allows min(n, 4) eps on top of the reported tolerance.
    """
    for n in family_sizes(family):
        for seed in range(2):
            m = n - 1 if family in EQUI_DYNAMIC_FAMILIES and seed == 0 else None
            try:
                topo = eq.build_topology(eq.TopologySpec(family, n, rho=0.9, m=m, seed=seed))
            except eq.ConstructionError as exc:   # tiny n may miss rho
                topo = exc.best_matrix
            w = topo.sample() if family in DYNAMIC_FAMILIES else topo
            est = eq.consensus_factor(w)
            column = getattr(w.structure, "column", None)
            # an ou-* matching of shift n/2 is that shift
            method = "circulant-fft" if column is not None else EXPECTED_METHOD[family]
            assert (est.method, est.iterations_or_trials) == (method, 1), (n, seed)
            assert 0.0 < est.tolerance_or_stderr <= 1e-11
            dense = dense_consensus_factor(w.toarray())
            assert abs(est.value - dense) <= est.tolerance_or_stderr + min(n, 4) * EPS, (n, seed)
            if column is not None:
                assert column.tobytes() == circulant_column(w, column.shape).tobytes()
            # wherever the cyclic oracle finds a column, it is the one carried
            cyclic = circulant_column(w)
            if cyclic is not None:
                assert column.tobytes() == cyclic.tobytes(), (n, seed)


@pytest.mark.parametrize("family,n", [
    ("grid", 9), ("grid", 25), ("grid", 100), ("torus", 9), ("torus", 36), ("torus", 100),
    ("hypercube", 8), ("hypercube", 32), ("hypercube", 128),
    ("grid", 10000), ("torus", 10000), *[("hypercube", 2**k) for k in (1, 2, 10, 13)],
])
def test_lattice_factor_is_exact(family, n):
    """Lattice factors against a long-double reference, up to m = 100 and 2^13 nodes."""
    w = eq.build_topology(eq.TopologySpec(family, n))
    est = eq.consensus_factor(w)
    assert 0.0 < est.tolerance_or_stderr <= 1e-11
    if family == "grid":
        assert (w.structure.m, w.structure.weight) == (math.isqrt(n), w.mat[0, 1])
        exact = grid_factor_extended(w.structure.m, w.structure.weight)
    else:
        column = w.structure.column
        assert column.shape == ((2,) * (n.bit_length() - 1) if family == "hypercube"
                                else (math.isqrt(n),) * 2)
        assert column.tobytes() == circulant_column(w, column.shape).tobytes()
        exact = circulant_factor_extended(column)
    assert abs(est.value - exact) <= est.tolerance_or_stderr


def test_factor_at_most_one_for_doubly_stochastic():
    for family, n in [("ring", 25), ("grid", 25), ("static-exp", 18)]:
        est = eq.consensus_factor(eq.build_topology(eq.TopologySpec(family, n)))
        assert est.value <= 1.0 + 1e-10


def test_empirical_contraction_static_respects_factor_bound():
    w, _ = eq.build_d_equistatic(eq.TopologySpec("d-equistatic", 30, rho=0.8, seed=2))
    factor = eq.consensus_factor(w).value
    est = eq.empirical_contraction(w, trials=600, seed=4)
    assert est.method == "monte-carlo"
    assert est.value <= factor**2 + 3 * est.tolerance_or_stderr


def test_empirical_contraction_of_uniform_is_zero():
    w = eq.build_topology(eq.TopologySpec("complete", 15))
    est = eq.empirical_contraction(w, trials=150, seed=1)
    assert est.value <= 1e-25


def test_empirical_contraction_requires_trials():
    w = eq.build_topology(eq.TopologySpec("complete", 5))
    with pytest.raises(eq.ParameterError):
        eq.empirical_contraction(w, trials=50)


class BlockRng:
    """A generator that records the rows of each block of trial vectors asked of it."""

    def __init__(self, seed):
        self.rng, self.rows = np.random.default_rng(seed), []

    def standard_normal(self, size):
        assert size[0] >= 1, size
        self.rows.append(size[0])
        return self.rng.standard_normal(size)


class ScriptedRng:
    """Serves its script's values in order, whatever the shape asked."""

    def __init__(self, script):
        self.script, self.used = script, 0

    def standard_normal(self, size):
        count = math.prod(np.atleast_1d(size))
        self.used += count
        return self.script[self.used - count:self.used].reshape(size).copy()


def contraction_topologies(n):
    """A fresh topology of each draw kind, a static circulant and, at a square n, the grid."""
    families = DYNAMIC_FAMILIES + ("d-equistatic",) + (("grid",) if math.isqrt(n)**2 == n else ())
    return {family: eq.build_topology(eq.TopologySpec(family, n, rho=0.9, seed=n))
            for family in families}


@pytest.mark.parametrize("trials", [100, 257])
@pytest.mark.parametrize("n", [2, 3, 8, 9, 129, 1000, 1024, 8193, 8281])
def test_empirical_contraction_keeps_every_bit(n, trials):
    """The block-drawn trials against one draw per trial: the same value and standard error
    bit for bit, from blocks of at most 64 KiB (one row at least) that hold exactly the
    trials' vectors, so the caller's generator ends in the same state.  The sizes straddle
    the pairwise sum's 8- and 128-element blocks; 8193 and 8281 take one row per block."""
    oracles = contraction_topologies(n)
    for family, topo in contraction_topologies(n).items():
        oracle_rng, rng = np.random.default_rng(n), BlockRng(n)
        expected = contraction_per_trial(oracles[family], trials, oracle_rng)
        est = eq.empirical_contraction(topo, trials, rng=rng)
        assert (est.value, est.tolerance_or_stderr) == expected, family
        assert sum(rng.rows) == trials and max(rng.rows) == min(trials, max(1, 8192 // n))
        assert rng.rng.bit_generator.state == oracle_rng.bit_generator.state, family


def test_degenerate_trial_vector_is_replaced_by_the_next_drawn():
    """Constant vectors centre to 0 and are skipped: at a block's end, at the next block's
    start, three in a row, and as a one-row last block, after which one more row is drawn.
    Both loops give the same bits and read the same count of values off the script."""
    n, trials = 1000, 100
    script = np.random.default_rng(5).standard_normal((120, n))
    script[[0, 7, 8, 9, 23, 104]] = 2.5
    oracle_rng, rng = ScriptedRng(script.ravel()), ScriptedRng(script.ravel())
    expected = contraction_per_trial(eq.build_topology(eq.TopologySpec("ou-equidyn", n)),
                                     trials, oracle_rng)
    est = eq.empirical_contraction(eq.build_topology(eq.TopologySpec("ou-equidyn", n)),
                                   trials, rng=rng)
    assert (est.value, est.tolerance_or_stderr) == expected
    assert rng.used == oracle_rng.used == 106 * n


class CountingSampler:
    """Hands out its topology's draws and counts the `sample` calls."""

    def __init__(self, topology):
        self.topology, self.n, self.calls = topology, topology.n, 0

    def sample(self):
        self.calls += 1
        return self.topology.sample()


@pytest.mark.parametrize("family", DYNAMIC_FAMILIES + ("d-equistatic",))
def test_one_sample_per_trial(family):
    """Every trial draws exactly one matrix, a rejected trial vector none: 257 trials make
    257 `sample` calls, with and without constant vectors among those drawn."""
    n, trials = 257, 257
    script = np.random.default_rng(2).standard_normal((trials + 3, n))
    script[[0, 40, 41]] = -1.0
    for rng in (np.random.default_rng(1), ScriptedRng(script.ravel())):
        counting = CountingSampler(eq.build_topology(eq.TopologySpec(family, n, seed=3)))
        est = eq.empirical_contraction(counting, trials, rng=rng)
        assert counting.calls == est.iterations_or_trials == trials


@pytest.mark.parametrize("family", EQUI_DYNAMIC_FAMILIES)
def test_sampler_generator_refused_for_trial_vectors(family):
    """The trial vectors may not come from the sampler's own generator, which draws a chunk
    ahead of its samples; a static matrix has none, so any generator serves it."""
    sampler = eq.build_topology(eq.TopologySpec(family, 50, seed=1))
    with pytest.raises(eq.ParameterError, match="sampler's own"):
        eq.empirical_contraction(sampler, 100, rng=sampler.rng)
    w = eq.build_topology(eq.TopologySpec("ring", 50))
    assert eq.empirical_contraction(w, 100, rng=sampler.rng).iterations_or_trials == 100
