import math
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equitopo as eq
import equitopo.topology
from scipy import sparse

from equitopo.output import atomic_write

from equitopo.topology import (DYNAMIC_FAMILIES, EQUI_DYNAMIC_FAMILIES, FAMILIES,
                               STATIC_FAMILIES, CELL_BYTES, CSV_BLOCK, _circulant, _exp_hops,
                               _euclid_partners, _lattice, _lazy_weights, _ou_partners)

from oracles import (circulant_column, circulant_coo, euclid_matching, hop_permutation,
                     hypercube_by_axis_fold, hypercube_edge_set, lattice_edge_set,
                     matched_node_count, matrix_csv_loop, max_off_diagonal_degree,
                     one_by_one_draws, ou_scan_partners, uniform_undirected_coo)


def spec_for(family, n, **kw):
    kw.setdefault("rho", 0.9)
    if family in ("od-equidyn", "ou-equidyn", "ou-equidyn-euclid"):
        kw.setdefault("m", n - 1)
    return eq.TopologySpec(family, n, **kw)


def sum_deviation(w):
    """Largest distance of a row or column sum of `w` from 1."""
    return max(np.abs(w.mat.sum(axis=1) - 1.0).max(), np.abs(w.mat.sum(axis=0) - 1.0).max())


def is_symmetric(w):
    a = w.toarray()
    return np.array_equal(a, a.T)


def family_n(family):
    # one n valid for every family constraint
    return {"grid": 16, "torus": 16, "hypercube": 16}.get(family, 12)


# ---------------------------------------------------------------- basis matrices

def test_basis_matrix_n2_is_all_half():
    w = eq.basis_matrix(1, 2)
    assert np.array_equal(w.toarray(), np.full((2, 2), 0.5))


def test_basis_matrix_shift2_n6_edge_pattern():
    # edges j -> j+2 (1-based): 1->3, 2->4, 3->5, 4->6, 5->1, 6->2
    w = eq.basis_matrix(2, 6).toarray()
    for j in range(6):
        i = (j + 2) % 6
        assert w[i, j] == 5.0 / 6.0
        assert w[j, j] == 1.0 / 6.0
    assert np.count_nonzero(w) == 12


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_basis_matrix_doubly_stochastic_degree_one(n):
    for u in range(1, n):
        w = eq.basis_matrix(u, n)
        assert sum_deviation(w) <= 1e-12
        assert max_off_diagonal_degree(w) == 1
        assert w.mat.data.min() >= 0.0


def test_basis_matrix_rejects_out_of_range():
    with pytest.raises(eq.ParameterError):
        eq.basis_matrix(0, 5)
    with pytest.raises(eq.ParameterError):
        eq.basis_matrix(5, 5)


# ---------------------------------------------------------------- static builders

def test_default_basis_count_example():
    # ceil((8 / (3 * 0.25)) * ln(1200)) evaluated independently
    expected = math.ceil(8.0 / (3.0 * 0.5**2) * math.log(2 * 300 / 0.5))
    assert expected == 76
    assert eq.default_basis_count(300, 0.5, 0.5) == 76


def uniform_shift_average(n):
    """The circulant average of every shift 1..n-1, as d-equistatic builds it."""
    c = np.full(n, (1.0 - 1.0 / n) / (n - 1))
    c[0] = 1.0 / n
    return _circulant(c, "d-equistatic", tuple(range(1, n)))


def test_complete_basis_average_is_uniform():
    n = 9
    assert np.abs(uniform_shift_average(n).toarray() - 1.0 / n).max() <= 1e-15


def test_complete_basis_holds_no_python_object_per_shift():
    """The complete basis and its reversals are int64 arrays, built with no copy of an array
    the basis owns: at n = 10^6 the numpy buffers peak at 32 MB, where a tuple of Python
    ints per shift peaked at 105 MB."""
    tracemalloc.start()
    try:
        basis = eq.complete_basis(10**6).with_reversals()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, peak
    assert basis.shifts.dtype == np.int64 and not basis.shifts.flags.writeable
    assert len(basis) == 2 * (10**6 - 1) and basis.shifts[-1] == 1


def test_build_d_equistatic_meets_target():
    spec = eq.TopologySpec("d-equistatic", 60, rho=0.5, p=0.5, seed=4)
    w, basis = eq.build_d_equistatic(spec)
    assert eq.consensus_factor(w).value <= 0.5
    assert len(basis) == eq.default_basis_count(60, 0.5, 0.5)
    assert all(1 <= u <= 59 for u in basis.values)
    assert sum_deviation(w) <= 1e-12
    # in-degree at most M
    assert max_off_diagonal_degree(w) <= len(basis)


def test_build_d_equistatic_m_below_formula_still_certified():
    # far fewer basis draws than the default 57: the verification loop must
    # still only accept candidates meeting the target
    spec = eq.TopologySpec("d-equistatic", 60, rho=0.7, m=20, seed=8)
    w, basis = eq.build_d_equistatic(spec)
    assert len(basis) == 20
    assert eq.consensus_factor(w).value <= 0.7


def test_build_d_equistatic_m_override_and_failure():
    # m=1 cannot reach rho=0.05 for n=10: the cap must trip with diagnostics
    spec = eq.TopologySpec("d-equistatic", 10, rho=0.05, m=1, seed=0)
    with pytest.raises(eq.ConstructionError) as err:
        eq.build_d_equistatic(spec)
    assert err.value.best_matrix is not None
    assert err.value.best_factor > 0.05


def test_first_draw_factor_is_size_independent():
    """The paper's rate independent of n, for the static family, checked exactly.

    At the default M for rho = p = 0.5, the median factor of seeded first
    draws moves less over n = 10^3..10^5 than the factor varies between draws
    at n = 10^3: each median lies inside that size's interquartile range
    [0.2546, 0.2900].  The medians read 0.269, 0.277 and 0.285.
    """
    factors = {}
    for n, seeds in ((10**3, 200), (10**4, 200), (10**5, 40)):
        m = eq.default_basis_count(n, 0.5, 0.5)
        # rho near 1 accepts the first draw of M shifts, the one rho = 0.5 judges first
        factors[n] = [eq.consensus_factor(eq.build_topology(
            eq.TopologySpec("d-equistatic", n, rho=0.999, m=m, seed=seed))).value
            for seed in range(seeds)]
    q1, q3 = np.percentile(factors[10**3], [25, 75])
    medians = [np.median(f) for f in factors.values()]
    assert all(q1 <= median <= q3 for median in medians), medians
    assert max(medians) <= 0.5


def test_first_draw_acceptance_at_a_fraction_of_the_default_degree():
    """The default M carries about three times the degree the guarantee needs.

    At n = 10^3 (default M = 89 for rho = p = 0.5) seeded first draws of M/2,
    M/3 and M/4 shifts meet rho = 0.5 at rates 0.985, 0.80 and 0.21 over
    seeds 0-199; each must stay within three binomial standard deviations of
    its rate.  M/3 already meets the 1 - p = 0.5 the default is sized for, and
    M/4 does not.
    """
    n, seeds = 10**3, 200
    default = eq.default_basis_count(n, 0.5, 0.5)
    rates = {}
    for m, expected in ((default // 2, 0.985), (default // 3, 0.80), (default // 4, 0.21)):
        # rho near 1 accepts the first draw of m shifts, the one rho = 0.5 judges first
        rates[m] = np.mean([eq.consensus_factor(eq.build_topology(
            eq.TopologySpec("d-equistatic", n, rho=0.999, m=m, seed=seed))).value <= 0.5
            for seed in range(seeds)])
        assert abs(rates[m] - expected) <= 3 * math.sqrt(expected * (1 - expected) / seeds), m
    assert (default, default // 3, default // 4) == (89, 29, 22)
    assert rates[default // 3] >= 0.5 > rates[default // 4]


def test_build_d_equistatic_deterministic():
    spec = eq.TopologySpec("d-equistatic", 40, rho=0.6, seed=123)
    w1, b1 = eq.build_d_equistatic(spec)
    w2, b2 = eq.build_d_equistatic(spec)
    assert b1.values == b2.values
    assert np.array_equal(w1.toarray(), w2.toarray())


def test_build_u_equistatic_symmetrizes():
    spec = eq.TopologySpec("d-equistatic", 30, rho=0.7, seed=2)
    w, basis = eq.build_d_equistatic(spec)
    wu, signed = eq.build_u_equistatic(w)
    a = wu.toarray()
    assert np.abs(a - a.T).max() == 0.0
    assert signed.values == basis.values + tuple(30 - u for u in basis.values)
    # symmetrization never hurts the consensus factor
    assert eq.consensus_factor(wu).value <= eq.consensus_factor(w).value + 1e-12
    assert max_off_diagonal_degree(wu) <= 2 * len(basis)


def test_build_u_equistatic_of_uniform_is_uniform():
    n = 8
    wu, _ = eq.build_u_equistatic(uniform_shift_average(n))
    assert np.abs(wu.toarray() - 1.0 / n).max() <= 1e-15


def assert_same_csr(a, b):
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()), name


@given(st.data())
@settings(max_examples=300, deadline=None, database=None)
def test_circulant_matches_coo_assembly(data):
    n = data.draw(st.integers(2, 300), label="n")
    support = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 40)),
                        label="support")
    if data.draw(st.booleans(), label="with diagonal"):
        support.add(0)
    elif support != {0}:
        support.discard(0)
    c = np.zeros(n)
    for u in sorted(support):
        c[u] = data.draw(st.floats(0.0, 1.0, exclude_min=True), label=f"c[{u}]")
    w = _circulant(c, "circulant")
    assert_same_csr(w.mat, circulant_coo(c))
    assert w.mat.has_canonical_format
    assert circulant_column(w).tobytes() == c.tobytes()
    assert w.structure.column.tobytes() == c.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 33, 100])
@pytest.mark.parametrize("family", ["d-equistatic", "u-equistatic", "ring", "static-exp",
                                    "complete"])
def test_circulant_families_match_coo_assembly(family, n):
    w = eq.build_topology(eq.TopologySpec(family, n, rho=0.9, seed=n))
    c = circulant_column(w)
    assert c is not None
    assert w.structure.column.tobytes() == c.tobytes()
    assert_same_csr(w.mat, circulant_coo(c))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 17, 100])
def test_circulant_baselines_match_their_definitions(n):
    ring = np.zeros((n, n))
    deg = 1 if n == 2 else 2
    for i in range(n):   # each neighbour gets 1 / (deg + 1); the diagonal keeps the rest
        ring[i, (i + 1) % n] = ring[i, (i - 1) % n] = 1.0 / (deg + 1.0)
        ring[i, i] = 1.0 - deg * (1.0 / (deg + 1.0))
    hops = [2**k for k in range(int(math.log2(n - 1)) + 1)]
    static_exp = np.zeros((n, n))
    for j in range(n):
        for h in [0] + hops:
            static_exp[(j + h) % n, j] = 1.0 / (len(hops) + 1.0)
    expected = {"ring": ring, "static-exp": static_exp, "complete": np.full((n, n), 1.0 / n)}
    for family, dense in expected.items():
        w = eq.build_topology(eq.TopologySpec(family, n))
        assert w.toarray().tobytes() == dense.tobytes(), family


def test_u_equistatic_matches_sparse_symmetrization():
    w, _ = eq.build_d_equistatic(eq.TopologySpec("d-equistatic", 41, rho=0.9, seed=5))
    expected = ((w.mat + w.mat.T) * 0.5).tocsr()
    expected.sort_indices()
    assert_same_csr(eq.build_u_equistatic(w)[0].mat, expected)


def test_u_equistatic_rejects_non_circulant():
    grid = eq.build_topology(eq.TopologySpec("grid", 16))
    with pytest.raises(eq.ParameterError, match="circulant"):
        eq.build_u_equistatic(eq.GossipMatrix(16, grid.mat, "grid", (1,)))


# ---------------------------------------------------------------- od-equidyn

def test_od_sample_shape_and_weights():
    n, eta = 10, 0.5
    sampler = eq.OdEquiDynSampler(spec_for("od-equidyn", n, eta=eta), eq.complete_basis(n))
    w = sampler.sample()
    a = w.toarray()
    diag = np.diag(a)
    assert np.allclose(diag, (1 - eta) + eta / n)
    off = a - np.diag(diag)
    assert np.count_nonzero(off) == n
    assert np.allclose(off[off > 0], eta * (1 - 1.0 / n))
    assert max_off_diagonal_degree(w) == 1


def test_od_expectation_equals_parent():
    # enumerating the multiset exactly reproduces (1-eta) I + eta W
    n, eta = 12, 0.3
    spec = eq.TopologySpec("d-equistatic", n, rho=0.9, m=7, seed=3, eta=eta)
    w, basis = eq.build_d_equistatic(spec)
    mean = np.zeros((n, n))
    for u in basis.values:
        mean += (1 - eta) * np.eye(n) + eta * eq.basis_matrix(u, n).toarray()
    mean /= len(basis)
    expected = (1 - eta) * np.eye(n) + eta * w.toarray()
    assert np.abs(mean - expected).max() <= 1e-12


def test_od_sampler_deterministic_sequence():
    n = 15
    s1 = eq.OdEquiDynSampler(spec_for("od-equidyn", n, seed=9), eq.complete_basis(n))
    s2 = eq.OdEquiDynSampler(spec_for("od-equidyn", n, seed=9), eq.complete_basis(n))
    for _ in range(5):
        assert np.array_equal(s1.sample().toarray(), s2.sample().toarray())


def test_od_empty_basis_rejected():
    sampler = eq.OdEquiDynSampler(spec_for("od-equidyn", 5, m=4), eq.BasisIndex((), 5))
    with pytest.raises(eq.ParameterError):
        sampler.sample()


@pytest.mark.parametrize("family", EQUI_DYNAMIC_FAMILIES)
@pytest.mark.parametrize("basis", [eq.BasisIndex((), 5), None])
def test_empty_basis_rejected_at_the_first_draw(family, basis):
    cls = eq.OdEquiDynSampler if family == "od-equidyn" else eq.OuEquiDynSampler
    sampler = cls(spec_for(family, 5, m=4), basis)   # building it raises nothing
    with pytest.raises(eq.ParameterError, match="empty basis index"):
        sampler.sample()


# ---------------------------------------------------------------- ou-equidyn

def test_ou_scan_shift2_start1():
    pairs = matched_pairs(eq.ou_scan_matrix(2, 1, 6))
    assert pairs == {(1, 3), (2, 4)}   # nodes 5 and 6 idle


def test_ou_scan_shift2_start3():
    pairs = matched_pairs(eq.ou_scan_matrix(2, 3, 6))
    assert pairs == {(3, 5), (4, 6)}


def test_ou_scan_shift3_any_start_is_perfect():
    for s in range(1, 7):
        assert matched_pairs(eq.ou_scan_matrix(3, s, 6)) == {(1, 4), (2, 5), (3, 6)}


def matched_pairs(w):
    a = w.toarray()
    return {(i + 1, j + 1) for i in range(w.n) for j in range(i + 1, w.n) if a[i, j] > 0}


def test_ou_scan_weights():
    w = eq.ou_scan_matrix(2, 1, 6).toarray()
    assert w[0, 2] == w[2, 0] == 5.0 / 6.0
    assert w[0, 0] == w[2, 2] == 1.0 / 6.0
    assert w[4, 4] == w[5, 5] == 1.0   # idle nodes keep full weight


@pytest.mark.parametrize("n", range(2, 9))
def test_ou_node_view_matches_scan_bitwise(n):
    for v in range(1, n):
        for s in range(1, n + 1):
            a = eq.ou_scan_matrix(v, s, n)
            b = eq.ou_equidyn_node_view(v, s, n)
            assert np.array_equal(a.toarray(), b.toarray()), (n, v, s)


def test_ou_partner_rule_matches_scan_for_every_shift_and_start():
    for n in range(2, 41):
        for v in range(1, n):
            for s in range(1, n + 1):
                partner = _ou_partners(v, s, n)
                assert partner.dtype == np.int64
                assert np.array_equal(partner, ou_scan_partners(v, s, n)), (n, v, s)


def assert_draw_is_scan_matching(w, v, s, n):
    """The draw's partners are the greedy scan's, its idle rows those pointing to themselves,
    and its weights the lazy ones of its eta."""
    expected = ou_scan_partners(v, s, n)
    one_peer = w.structure
    assert np.array_equal(one_peer.partner, expected), (n, v, s)
    assert sorted(one_peer.idle.tolist()) == np.flatnonzero(expected == np.arange(n)).tolist(), \
        (n, v, s)
    assert (one_peer.off, one_peer.diag) == _lazy_weights(n, 0.3)


@pytest.mark.parametrize("budget", ["default", 0])
def test_ou_sampler_tables_give_the_scan_matching(budget, monkeypatch):
    """Every (v, s) at n = 2..40 and 300 draws at n = 1000, from tables kept within the
    budget and, with a budget of 0, from a table built and dropped at every draw."""
    if budget == 0:
        monkeypatch.setattr(equitopo.topology, "OU_TABLE_BYTES", 0)
    for n in range(2, 41):
        sampler = eq.OuEquiDynSampler(spec_for("ou-equidyn", n, eta=0.3),
                                      eq.complete_basis(n).with_reversals())
        for v in range(1, n):
            for s in range(1, n + 1):
                assert_draw_is_scan_matching(sampler._matching(v, s), v, s, n)
        assert len(sampler._tables) == (0 if budget == 0 else n // 2)
    n = 1000
    basis = eq.complete_basis(n).with_reversals()
    sampler = eq.OuEquiDynSampler(spec_for("ou-equidyn", n, eta=0.3, seed=5), basis)
    twin = eq.make_rng(5, "ou-equidyn", "sampler")
    for _ in range(300):
        v = basis.values[int(twin.integers(0, len(basis)))]
        s = int(twin.integers(1, n + 1))
        assert_draw_is_scan_matching(sampler.sample(), v, s, n)


@pytest.mark.parametrize("budget", ["default", 0])
def test_ou_euclid_sampler_tables_give_the_euclid_matching(budget, monkeypatch):
    """Every (v, s) at n = 2..40 and 97: a draw read off the kept start-1 table of v, rotated
    to the start, has the partners of `_euclid_partners(v, s, n)` and, as its idle rows,
    those pointing to themselves; with a budget of 0 the table is built and dropped."""
    if budget == 0:
        monkeypatch.setattr(equitopo.topology, "OU_TABLE_BYTES", 0)
    for n in [*range(2, 41), 97]:
        sampler = eq.OuEquiDynSampler(spec_for("ou-equidyn-euclid", n, eta=0.3),
                                      eq.complete_basis(n).with_reversals())
        for v in range(1, n):
            for s in range(1, n + 1):
                w, expected = sampler._matching(v, s), _euclid_partners(v, s, n)
                one_peer = w.structure
                assert np.array_equal(one_peer.partner, expected), (n, v, s)
                assert sorted(one_peer.idle.tolist()) == \
                    np.flatnonzero(expected == np.arange(n)).tolist(), (n, v, s)
                assert (one_peer.off, one_peer.diag) == _lazy_weights(n, 0.3)
                assert (w.family, w.basis_index) == ("ou-equidyn-euclid", (v,))
        assert len(sampler._tables) == (0 if budget == 0 else n - 1)


def tables_kept_in_budget(family, n, budget, monkeypatch):
    """Run 40 draws of a complete-basis sampler with its table budget set to `budget` (None:
    the default), checking after each that every array its kept tables hold fits."""
    if budget is not None:
        monkeypatch.setattr(equitopo.topology, "OU_TABLE_BYTES", budget)
    budget = equitopo.topology.OU_TABLE_BYTES
    sampler = eq.OuEquiDynSampler(spec_for(family, n, seed=1),
                                  eq.complete_basis(n).with_reversals())
    for _ in range(40):
        sampler.sample()
        kept = sum(a.nbytes for table in sampler._tables.values() for a in table
                   if isinstance(a, np.ndarray))
        assert kept <= budget
    return sampler, budget


@pytest.mark.parametrize("n,budget", [(100000, None), (1000, 5 * 16000), (1000, 16000 - 1)])
def test_ou_sampler_keeps_its_tables_within_the_budget(n, budget, monkeypatch):
    """An ou table holds its 16 n bytes of partners; its idle run is a slice."""
    sampler, budget = tables_kept_in_budget("ou-equidyn", n, budget, monkeypatch)
    assert len(sampler._tables) == budget // (16 * n)   # 40 draws meet more distinct q than fit


@pytest.mark.parametrize("budget", [16 * 999, 5 * 16 * 999])
def test_ou_euclid_sampler_counts_its_idle_rows_in_the_budget(budget, monkeypatch):
    """A euclid table holds 16 n bytes of partners and gcd(v, n) idle rows wherever n / gcd
    is odd: at every v for n = 999, up to 333 of them at v = 333.  So a budget of k
    partner arrays keeps k - 1 tables (4 tables take at most 4 (16 n + 8 n / 3) bytes)."""
    sampler, budget = tables_kept_in_budget("ou-equidyn-euclid", 999, budget, monkeypatch)
    assert len(sampler._tables) == budget // (16 * 999) - 1


@pytest.mark.parametrize("bounds", [((0, 89), (1, 1000)), ((0, 49), (1, 50)), ((0, 1), (1, 2)),
                                    ((0, 5), (1, 2**32 - 1)), ((0, 5), (1, 2**32)),
                                    ((0, 3), (1, 2**33)), ((0, 2**33), (1, 2**35))])
def test_broadcast_integers_equal_scalar_calls(bounds):
    """The numpy property chunked draws rest on: one `integers` call with per-element bounds
    gives the values, and leaves the generator in the state, of the scalar calls made one by
    one, interleaved as an ou sampler's (index, start) pairs or alone as an od sampler's
    indices, for highs on both sides of 2^32."""
    chunk = equitopo.topology._CHUNK
    lows, highs = zip(*bounds)
    broadcast, scalar = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(3):
        got = broadcast.integers(lows, np.tile(highs, (chunk, 1))).tolist()
        assert got == [[int(scalar.integers(*b)) for b in bounds] for _ in range(chunk)]
        got = broadcast.integers(0, np.full(chunk, highs[1])).tolist()
        assert got == [int(scalar.integers(0, highs[1])) for _ in range(chunk)]
    assert broadcast.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("family", EQUI_DYNAMIC_FAMILIES)
@pytest.mark.parametrize("n", [2, 3, 50, 1000])
def test_chunked_draws_equal_one_by_one_draws(family, n):
    """Each sampler's (v, s) sequence against the scalar draws made one at a time, for draw
    counts on both sides of a chunk's end; an od draw has no start."""
    chunk = equitopo.topology._CHUNK
    for draws in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        seed = 7 * n + draws
        sampler = eq.build_topology(eq.TopologySpec(family, n, rho=0.9, seed=seed))
        made = []
        if family != "od-equidyn":
            def recording(v, s, matching=sampler._matching):
                made.append((v, s))
                return matching(v, s)
            sampler._matching = recording
        for _ in range(draws):
            w = sampler.sample()
            if family == "od-equidyn":
                made.append((w.basis_index[0], None))
        expected = one_by_one_draws(sampler.basis_index.values, n,
                                    eq.make_rng(seed, family, "sampler"), draws,
                                    starts=family != "od-equidyn")
        assert made == expected, draws


def test_shift_draws_are_views_of_one_label_array():
    """od-equidyn and one-peer-exp draws take their partners as read-only views of one
    array per sampler, with scalar weights and no idle rows."""
    n = 37
    for sampler in (eq.OdEquiDynSampler(spec_for("od-equidyn", n, eta=0.3),
                                         eq.complete_basis(n)),
                    eq.build_topology(eq.TopologySpec("one-peer-exp", n))):
        draws = [sampler.sample().structure for _ in range(8)]
        for d in draws:
            assert not d.partner.flags.writeable and d.idle.size == 0
            assert np.shares_memory(d.partner, draws[0].partner)
            assert isinstance(d.off, float) and isinstance(d.diag, float)
            v = -int(d.partner[0]) % n
            assert np.array_equal(d.partner, (np.arange(n) - v) % n)


def test_idle_weight_rounds_to_one_for_every_eta():
    """(1 - eta) + eta, the weight an idle row of a lazy one-peer draw keeps, is exactly
    1.0: over the edges of (0, 1) and random doubles of every binade."""
    tiny = np.finfo(float).smallest_subnormal
    k = np.arange(1, 1075)
    edges = np.concatenate([[tiny, 2 * tiny, np.finfo(float).smallest_normal, 0.5, 1.0],
                            np.ldexp(1.0, -k), np.nextafter(np.ldexp(1.0, -k), 0),
                            np.nextafter(np.ldexp(1.0, -k), 1), 1.0 - np.ldexp(1.0, -k[:53])])
    rng = np.random.default_rng(0)
    random = np.ldexp(rng.uniform(0.5, 1.0, 10**6), rng.integers(-1074, 0, 10**6))
    for eta in (edges[(edges > 0) & (edges <= 1)], random[random > 0], rng.uniform(0, 1, 10**6)):
        assert np.all((1.0 - eta) + eta == 1.0)


def test_ou_node_view_antipode():
    w = eq.ou_equidyn_node_view(4, 3, 8)
    assert matched_pairs(w) == {(1, 5), (2, 6), (3, 7), (4, 8)}


@pytest.mark.parametrize("n", range(2, 9))
def test_ou_euclid_matched_count_formula(n):
    for v in range(1, n):
        d = math.gcd(v, n)
        expected = 2 * d * (n // (2 * d))
        for s in range(1, n + 1):
            w = eq.ou_equidyn_euclid(v, s, n)
            assert matched_node_count(w.toarray()) == expected
            assert is_symmetric(w)
            assert sum_deviation(w) <= 1e-12
            assert max_off_diagonal_degree(w) <= 1


def test_ou_euclid_full_matching_when_gcd_is_half():
    w = eq.ou_equidyn_euclid(5, 2, 10)  # gcd(5, 10) = 5 = n/2
    assert matched_node_count(w.toarray()) == 10


def test_ou_sampler_symmetric_lazy_mix():
    n = 9
    sampler = eq.OuEquiDynSampler(spec_for("ou-equidyn", n, eta=0.5),
                                  eq.complete_basis(n).with_reversals())
    for _ in range(4):
        w = sampler.sample()
        assert is_symmetric(w)
        assert sum_deviation(w) <= 1e-12
        assert max_off_diagonal_degree(w) <= 1


@given(st.data())
@settings(max_examples=300, deadline=None, database=None)
def test_ou_node_view_matches_scan_up_to_400(data):
    n = data.draw(st.integers(2, 400), label="n")
    v = data.draw(st.integers(1, n - 1), label="v")
    s = data.draw(st.integers(1, n), label="s")
    a, b = eq.ou_scan_matrix(v, s, n), eq.ou_equidyn_node_view(v, s, n)
    assert a.toarray().tobytes() == b.toarray().tobytes()


# ---------------------------------------------------------------- samplers against oracles

def replayed_one_peer(family, v, s, n):
    """The non-lazy one-peer matrix A of a draw, from a reference construction."""
    if family == "od-equidyn":
        return eq.basis_matrix(v, n).toarray()
    if family == "ou-equidyn":
        return eq.ou_scan_matrix(v, s, n).toarray()
    return euclid_matching(v, s, n)


@pytest.mark.parametrize("n", [*range(2, 41), 97, 1000])
@pytest.mark.parametrize("family", EQUI_DYNAMIC_FAMILIES)
def test_sampler_draws_bitwise_equal_replayed_oracle(family, n):
    cls = eq.OdEquiDynSampler if family == "od-equidyn" else eq.OuEquiDynSampler
    basis = eq.complete_basis(n) if family == "od-equidyn" else \
        eq.complete_basis(n).with_reversals()
    for eta in (0.3, 0.5, 0.9):
        spec = eq.TopologySpec(family, n, m=n - 1, eta=eta, seed=n)
        sampler = cls(spec, basis)
        twin = eq.make_rng(spec.seed, family, "sampler")
        for _ in range(2 if n > 100 else 4):
            v = basis.values[int(twin.integers(0, len(basis)))]
            s = None if family == "od-equidyn" else int(twin.integers(1, n + 1))
            expected = (1 - eta) * np.eye(n) + eta * replayed_one_peer(family, v, s, n)
            w = sampler.sample()
            assert w.toarray().tobytes() == expected.tobytes(), (v, s, eta)
            assert w.mat.has_canonical_format
            assert (w.family, w.basis_index) == (family, (v,))


def test_one_peer_exp_draws_bitwise_equal_dense_shift():
    n = 13
    sampler = eq.build_topology(eq.TopologySpec("one-peer-exp", n))
    for hop in (1, 2, 4, 8, 1):
        expected = 0.5 * np.eye(n) + 0.5 * hop_permutation(hop, n)
        assert sampler.sample().toarray().tobytes() == expected.tobytes(), hop


@pytest.mark.parametrize("cls,family", [
    (eq.OdEquiDynSampler, "ou-equidyn"),
    (eq.OuEquiDynSampler, "od-equidyn"),
    (eq.OuEquiDynSampler, "one-peer-exp"),
    (eq.OnePeerExpSampler, "ou-equidyn-euclid"),
    (eq.OdEquiDynSampler, "ring"),
])
def test_sampler_rejects_family_it_does_not_draw(cls, family):
    spec = eq.TopologySpec(family, 8)
    with pytest.raises(eq.ParameterError, match=family):
        cls(spec) if cls is eq.OnePeerExpSampler else cls(spec, eq.complete_basis(8))


# ---------------------------------------------------------------- mixing

def one_peer_sources(n):
    """One-peer matrices from every builder, over a few (v, s), and draws of the four samplers."""
    for v in sorted({1, n // 2, n - 1} - {0}):
        yield eq.basis_matrix(v, n)
        for s in sorted({1, n // 2 + 1, n}):
            yield eq.ou_scan_matrix(v, s, n)
            yield eq.ou_equidyn_node_view(v, s, n)
            yield eq.ou_equidyn_euclid(v, s, n)
    for family in DYNAMIC_FAMILIES:
        sampler = eq.build_topology(spec_for(family, n, eta=0.3, seed=n))
        for _ in range(3):
            yield sampler.sample()


def assert_mix_is_csr_product(w, x):
    """Equal bits where the CSR product is finite, and the same non-finite values: +-inf of
    the same sign and NaN in the same places."""
    y, expected = w.mix(x), w.mat @ x
    finite = np.isfinite(expected)
    assert y.shape == expected.shape and y.dtype == np.float64
    assert np.array_equal(np.isfinite(y), finite)
    assert np.array_equal(y[finite].view(np.int64), expected[finite].view(np.int64))
    assert np.array_equal(y[~finite], expected[~finite], equal_nan=True)


@pytest.mark.parametrize("n", [*range(2, 41), 1000])
def test_one_peer_mix_is_the_csr_product_bit_for_bit(n):
    rng = np.random.default_rng(n)
    blowup = rng.standard_normal((n, 10))
    rows = rng.permutation(n)[:max(3, n // 4)]
    blowup[rows[0::3]], blowup[rows[1::3]], blowup[rows[2::3]] = np.inf, -np.inf, np.nan
    xs = (rng.standard_normal(n), rng.standard_normal((n, 10)), blowup, blowup[:, 0].copy(),
          rng.integers(-2**40, 2**40, n), rng.integers(-9, 10, (n, 3)),
          rng.standard_normal(n).astype(np.float32),
          rng.standard_normal((n, 10)).astype(np.float32))
    for w in one_peer_sources(n):
        for x in xs:
            assert_mix_is_csr_product(w, x)


def test_one_peer_mix_warns_of_no_non_finite_entry():
    """+-inf, NaN and the largest doubles on the idle row and on paired rows mix silently,
    to the values of the CSR product."""
    w = eq.ou_equidyn_node_view(1, 1, 5)   # pairs (0, 1) and (2, 3), node 4 idle
    assert w.structure.partner.tolist() == [1, 0, 3, 2, 4]
    xs = []
    for bad in (np.inf, -np.inf, np.nan):
        for rows in ([4], [0], [0, 1], [0, 4], [0, 2, 4]):
            x = np.arange(1.0, 6.0)
            x[rows] = bad
            xs += [x, np.column_stack([x, -x, np.ones(5)])]
    x = np.arange(1.0, 6.0)
    x[[0, 1, 4]] = np.inf, -np.inf, -np.inf   # inf - inf on a pair
    xs.append(x)
    big = np.finfo(float).max
    xs += [np.full(5, big), np.full((5, 2), -big), np.array([big, big / 2, 1.0, -1.0, -big])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in xs:
            assert_mix_is_csr_product(w, x)


def test_static_mix_is_the_csr_product():
    for family in STATIC_FAMILIES:
        w = eq.build_topology(spec_for(family, family_n(family), seed=2))
        rng = np.random.default_rng(0)
        for x in (rng.standard_normal(w.n), rng.standard_normal((w.n, 10))):
            assert w.mix(x).tobytes() == (w.mat @ x).tobytes(), family


@pytest.mark.parametrize("family", DYNAMIC_FAMILIES)
def test_one_peer_draw_mixes_without_its_csr_and_assembles_it_on_read(family):
    n = 23
    sampler = eq.build_topology(spec_for(family, n, eta=0.3, seed=4))
    for _ in range(6):
        w = sampler.sample()
        w.mix(np.ones(n))
        w.mix(np.ones((n, 3)))
        assert "mat" not in vars(w)
        mat = w.mat
        assert vars(w)["mat"] is mat is w.mat
        # the canonical CSR of the draw's entries, which the replay tests above check
        csr = sparse.csr_array(w.toarray())
        assert mat.data.tobytes() == csr.data.tobytes()
        assert np.array_equal(mat.indices, csr.indices) and np.array_equal(mat.indptr, csr.indptr)
        assert mat.indices.dtype == mat.indptr.dtype == np.int64 and mat.has_sorted_indices
        assert not any(a.flags.writeable for a in (mat.data, mat.indices, mat.indptr))


def test_csr_arrays_are_read_only_sorted_and_shared_by_mat():
    """`csr` is assembled without `mat`; `mat` then wraps the same three arrays, no copy."""
    ou = eq.build_topology(spec_for("ou-equidyn", 30, eta=0.3, seed=1)).sample()
    for w in (eq.build_topology(spec_for("d-equistatic", 30, seed=1)),
              eq.build_topology(eq.TopologySpec("ring", 30)), ou,
              eq.build_topology(eq.TopologySpec("grid", 36))):
        lazy = w.family != "grid"
        csr = w.csr
        assert csr is w.csr and ("mat" in vars(w)) is not lazy, w.family
        assert not any(a.flags.writeable for a in csr)
        assert csr.indices.dtype == csr.indptr.dtype == np.int64
        rows = np.repeat(np.arange(w.n), np.diff(csr.indptr))
        assert np.all((np.diff(csr.indices) > 0) | (np.diff(rows) > 0))   # ascending per row
        mat = w.mat
        assert all(np.shares_memory(a, b) for a, b in zip(csr, (mat.data, mat.indices,
                                                                mat.indptr))), w.family


def test_matrix_without_csr_must_be_one_peer():
    with pytest.raises(eq.ParameterError, match="one-peer"):
        eq.GossipMatrix(4, None, "custom")
    torus = eq.build_topology(eq.TopologySpec("torus", 16))   # a circulant over Z_4^2
    with pytest.raises(eq.ParameterError, match="one-peer or cyclic circulant"):
        eq.GossipMatrix(16, None, "torus", None, torus.structure)


@pytest.mark.parametrize("n", [*range(2, 41), 1000])
def test_circulant_assembles_its_csr_only_on_read(n):
    """Construction, the factor and symmetrization read the column alone; the first read
    of `mat` assembles the dense oracle c[(i - j) % n] as sorted, read-only int64 CSR."""
    rng = np.random.default_rng(n)
    i = np.arange(n)
    for family in ("ring", "static-exp", "complete", "d-equistatic", "u-equistatic"):
        w = eq.build_topology(spec_for(family, n, seed=n))
        assert "mat" not in vars(w)
        eq.consensus_factor(w)
        assert "mat" not in vars(w)
        if family == "d-equistatic":
            u, _ = eq.build_u_equistatic(w)
            assert "mat" not in vars(w) and "mat" not in vars(u)
        c = w.structure.column
        dense = c[(i[:, None] - i) % n]
        mat = w.mat
        assert vars(w)["mat"] is mat is w.mat
        assert mat.toarray().tobytes() == dense.tobytes()
        assert mat.nnz == n * np.count_nonzero(c)
        assert mat.indices.dtype == mat.indptr.dtype == np.int64 and mat.has_sorted_indices
        assert not any(a.flags.writeable for a in (mat.data, mat.indices, mat.indptr))
        for x in (rng.standard_normal(n), rng.standard_normal((n, 10))):
            # both sums add the same count_nonzero(c) products of weights summing to 1
            tol = 2 * np.count_nonzero(c) * np.finfo(float).eps * np.abs(x).max()
            np.testing.assert_allclose(w.mix(x), dense @ x, rtol=0, atol=tol)


# ---------------------------------------------------------------- baselines

def test_ring_n3_is_uniform():
    w = eq.build_topology(eq.TopologySpec("ring", 3))
    assert np.allclose(w.toarray(), 1.0 / 3.0)


def test_ring_n4_weights():
    w = eq.build_topology(eq.TopologySpec("ring", 4)).toarray()
    assert np.allclose(np.diag(w), 1.0 / 3.0)
    assert w[0, 1] == w[0, 3] == pytest.approx(1.0 / 3.0)
    assert w[0, 2] == 0.0


def test_complete_is_uniform():
    w = eq.build_topology(eq.TopologySpec("complete", 7))
    assert np.allclose(w.toarray(), 1.0 / 7.0)


def test_grid_requires_square():
    with pytest.raises(eq.ParameterError):
        eq.build_topology(eq.TopologySpec("grid", 10))


def test_hypercube_requires_power_of_two():
    with pytest.raises(eq.ParameterError):
        eq.build_topology(eq.TopologySpec("hypercube", 12))


@pytest.mark.parametrize("call, match", [
    (lambda: eq.BasisIndex((3, 5), 5), "basis value 5"),
    (lambda: eq.build_u_equistatic(eq.build_topology(eq.TopologySpec("ring", 6))),
     "no basis index"),
    (lambda: eq.ou_scan_matrix(2, 0, 6), "start 0"),
    (lambda: eq.BasisIndex(np.array([3, 7, 0]), 5), r"basis value 7 outside \[1, 4\]"),
    (lambda: eq.basis_matrix(6, 6), "basis value 6"),
    (lambda: eq.ou_equidyn_euclid(0, 1, 6), "basis value 0"),
], ids=["basis-value-out-of-range", "u-equistatic-without-basis", "ou-scan-start-0",
        "first-basis-value-out-of-range", "basis-matrix-shift-6", "ou-euclid-shift-0"])
def test_parameter_errors(call, match):
    with pytest.raises(eq.ParameterError, match=match):
        call()


@pytest.mark.parametrize("family", ["grid", "torus"])
def test_lattices_match_edge_set_assembly(family):
    periodic = family == "torus"
    for m in range(1, 41):
        n = m * m
        if n == 1:   # below the smallest TopologySpec, so through the builder itself
            w = _lattice((1, 1), periodic, family)
        else:
            w = eq.build_topology(eq.TopologySpec(family, n))
        assert_same_csr(w.mat, uniform_undirected_coo(lattice_edge_set(m, periodic), n))
        assert w.mat.has_canonical_format


def test_hypercube_matches_edge_set_assembly():
    for k in range(1, 14):
        w = eq.build_topology(eq.TopologySpec("hypercube", 2**k))
        assert_same_csr(w.mat, uniform_undirected_coo(hypercube_edge_set(2**k), 2**k))
        assert w.mat.has_canonical_format


def test_hypercube_is_the_axis_by_axis_fold_bit_for_bit():
    """The balanced fold sums the same integer Laplacian entries as one axis at a time."""
    for d in range(1, 11):
        w = eq.build_topology(eq.TopologySpec("hypercube", 2**d))
        ref = hypercube_by_axis_fold(d)
        assert w.mat.data.tobytes() == ref.data.tobytes(), d
        assert np.array_equal(w.mat.indices, ref.indices), d
        assert np.array_equal(w.mat.indptr, ref.indptr), d


@pytest.mark.parametrize("family, n", [("grid", 10**4), ("torus", 10**4), ("hypercube", 2**13)])
def test_lattice_builds_in_exactly_its_counted_memory(family, n, monkeypatch):
    """The count is 56 bytes per stored entry of the edge-set assembly: that much memory
    builds the same matrix, one byte less is refused."""
    edges = (hypercube_edge_set(n) if family == "hypercube"
             else lattice_edge_set(math.isqrt(n), family == "torus"))
    ref = uniform_undirected_coo(edges, n)
    need = 56 * ref.nnz
    monkeypatch.setattr("equitopo.topology._physical_memory", lambda: need)
    assert_same_csr(eq.build_topology(eq.TopologySpec(family, n)).mat, ref)
    monkeypatch.setattr("equitopo.topology._physical_memory", lambda: need - 1)
    with pytest.raises(eq.ParameterError, match=f"{ref.nnz} entries, {need} bytes"):
        eq.build_topology(eq.TopologySpec(family, n))


@pytest.mark.parametrize("family, n", [("grid", 10**10), ("torus", 10**10), ("hypercube", 2**40)])
def test_refused_lattice_allocates_little(family, n, monkeypatch):
    """The refusal comes before any axis Laplacian is built."""
    monkeypatch.setattr("equitopo.topology._physical_memory", lambda: 2**36)
    tracemalloc.start()
    try:
        with pytest.raises(eq.ParameterError, match="physical memory"):
            eq.build_topology(eq.TopologySpec(family, n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


CIRCULANT_FAMILIES = ("ring", "static-exp", "complete", "d-equistatic", "u-equistatic")


@pytest.mark.parametrize("family", CIRCULANT_FAMILIES)
def test_circulant_csr_builds_in_exactly_its_counted_memory(family, monkeypatch):
    """The count is 16 bytes per stored entry, 8 of data and 8 of index: that much memory
    assembles the same CSR, one byte less is refused when `csr` is read."""
    spec = eq.TopologySpec(family, 300, seed=1)
    ref = eq.build_topology(spec).csr
    need = 16 * ref.data.size
    monkeypatch.setattr("equitopo.topology._physical_memory", lambda: need)
    for got, want in zip(eq.build_topology(spec).csr, ref):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    monkeypatch.setattr("equitopo.topology._physical_memory", lambda: need - 1)
    w = eq.build_topology(spec)
    with pytest.raises(eq.ParameterError, match=f"an n = 300 {family} matrix stores "
                                                f"{ref.data.size} entries, {need} bytes of CSR"):
        w.csr
    with pytest.raises(eq.ParameterError, match="physical memory"):
        w.mix(np.ones(300))


@pytest.mark.parametrize("family, n", [("ring", 10**5), ("static-exp", 10**5), ("complete", 2000),
                                       ("d-equistatic", 10**5), ("u-equistatic", 10**5)])
def test_refused_circulant_csr_allocates_little(family, n, monkeypatch):
    """The refusal comes before the CSR arrays, 4.8 MB (ring) to 420 MB (u-equistatic),
    are allocated: the check reads only the column's support."""
    w = eq.build_topology(eq.TopologySpec(family, n, seed=1))
    need = 16 * w.n * np.count_nonzero(w.structure.column)
    monkeypatch.setattr("equitopo.topology._physical_memory", lambda: need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(eq.ParameterError, match=f"{need} bytes of CSR"):
            w.csr
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_d_equistatic_builds_where_only_its_csr_would_not_fit(monkeypatch):
    """The builder holds the column alone: memory for the column and not for the CSR
    builds the same candidates and factor, and only reading `csr` is refused."""
    spec = eq.TopologySpec("d-equistatic", 2000, seed=3)
    ref, ref_basis = eq.build_d_equistatic(spec)
    monkeypatch.setattr("equitopo.topology._physical_memory", lambda: 8 * spec.n)
    w, basis = eq.build_d_equistatic(spec)
    assert basis == ref_basis
    assert w.structure.column.tobytes() == ref.structure.column.tobytes()
    assert eq.consensus_factor(w) == eq.consensus_factor(ref)
    with pytest.raises(eq.ParameterError, match="bytes of CSR"):
        w.csr


def test_static_exp_hops():
    w = eq.build_topology(eq.TopologySpec("static-exp", 6)).toarray()
    # hops 1, 2, 4 plus self, uniform 1/4
    assert w[1, 0] == w[2, 0] == w[4, 0] == w[0, 0] == 0.25


@pytest.mark.parametrize("k", range(1, 63))
def test_exp_hops_are_the_powers_of_two_below_n(k):
    """n = 2^k has hops 1..2^(k - 1), n = 2^k + 1 one more, 2^k; a float log2 of
    n - 1 = 2^k - 1 rounds up to k for k >= 49, which gave hop n, a self-loop."""
    assert _exp_hops(2**k) == [2**j for j in range(k)]
    assert _exp_hops(2**k + 1) == [2**j for j in range(k + 1)]


def test_one_peer_exp_sampler_hops_stay_below_n():
    n = 2**49
    assert eq.OnePeerExpSampler(eq.TopologySpec("one-peer-exp", n)).hops[-1] == n // 2


def test_one_peer_exp_cycles_hops():
    sampler = eq.build_topology(eq.TopologySpec("one-peer-exp", 8, seed=0))
    hops = []
    for _ in range(4):
        coo = sampler.sample().mat.tocoo()
        off = [(r - c) % 8 for r, c in zip(coo.row, coo.col) if r != c]
        assert set(off) == {off[0]}
        hops.append(off[0])
    assert hops == [1, 2, 4, 1]


def test_unknown_family_rejected():
    with pytest.raises(eq.ParameterError):
        eq.TopologySpec("star", 5)


@pytest.mark.parametrize("field,kw", [
    ("n", {"n": 1}),
    ("rho", {"n": 4, "rho": 1.0}),
    ("p", {"n": 4, "p": 0.0}),
    ("eta", {"n": 4, "eta": 1.5}),
    ("m", {"n": 4, "m": 0}),
])
def test_spec_range_validation(field, kw):
    with pytest.raises(eq.ParameterError, match=field):
        eq.TopologySpec("ring", **kw)


# ---------------------------------------------------------------- global invariants

@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_emits_doubly_stochastic_matrices(family):
    n = family_n(family)
    topo = eq.build_topology(spec_for(family, n, seed=1))
    for w in [topo.sample() for _ in range(3)]:
        assert sum_deviation(w) <= 1e-12, family
        assert w.mat.data.min() >= 0.0, family


@pytest.mark.parametrize("family", ["od-equidyn", "ou-equidyn", "ou-equidyn-euclid",
                                    "one-peer-exp"])
def test_one_peer_families_have_degree_at_most_one(family):
    topo = eq.build_topology(spec_for(family, 11, seed=2))
    for _ in range(5):
        assert max_off_diagonal_degree(topo.sample()) <= 1


def test_dynamic_basis_from_parent_when_m_not_complete():
    sampler = eq.build_topology(eq.TopologySpec("od-equidyn", 20, rho=0.9, m=5, seed=3))
    assert len(sampler.basis_index) == 5


def test_d_equistatic_builds_at_n_1e5():
    w = eq.build_topology(eq.TopologySpec("d-equistatic", 100_000, rho=0.5, seed=0))
    assert w.mat.nnz == w.n * np.count_nonzero(w.structure.column)


# ---------------------------------------------------------------- export

def export(w) -> bytes:
    return b"".join(eq.matrix_csv_text(w))


def test_matrix_csv_round_trip():
    w = eq.basis_matrix(2, 5)
    text = export(w).decode()
    lines = text.strip().splitlines()
    assert lines[0] == "row,col,weight"
    rebuilt = np.zeros((5, 5))
    for line in lines[1:]:
        r, c, v = line.split(",")
        rebuilt[int(r), int(c)] = float(v)
    assert np.array_equal(rebuilt, w.toarray())


@pytest.mark.parametrize("family", STATIC_FAMILIES + DYNAMIC_FAMILIES)
def test_matrix_csv_matches_loop_export(family):
    for n in ({"grid": (16, 100), "torus": (16, 100), "hypercube": (16, 128)}
              .get(family, (12, 97))):
        topo = eq.build_topology(spec_for(family, n, m=None, seed=4))
        w = topo.sample()
        assert export(w) == matrix_csv_loop(w).encode()


def test_matrix_csv_matches_loop_export_for_distinct_and_long_weights():
    rng = np.random.default_rng(5)
    a = rng.random((30, 30)) + 0.01
    for _ in range(500):   # Sinkhorn: a non-circulant, doubly stochastic matrix
        a /= a.sum(axis=0, keepdims=True)
        a /= a.sum(axis=1, keepdims=True)
    w = eq.GossipMatrix(30, sparse.csr_array(a), "custom")
    assert np.unique(w.mat.data).size == 900
    assert export(w) == matrix_csv_loop(w).encode()

    # long reprs, and a stored -0.0 next to a stored 0.0: equal values, different text
    weights = np.array([0.1 + 0.2, 1 / 3, 2 / 3, 1e-300, 5e-324, -0.0, 0.0, 0.1 + 0.2])
    rows, cols = np.array([0, 0, 1, 1, 2, 3, 3, 4]), np.array([4, 1, 2, 0, 2, 3, 1, 0])
    mat = sparse.coo_array((weights, (rows, cols)), shape=(6, 6)).tocsr()
    mat.sort_indices()
    w = eq.GossipMatrix(6, mat, "custom")
    assert mat.nnz == 8
    text = export(w)
    assert text == matrix_csv_loop(w).encode()
    assert b"3,1,0.0\n" in text and b"3,3,-0.0\n" in text

    unsorted = sparse.csr_array((mat.data.copy(), np.array([4, 1, 2, 0, 2, 3, 1, 0]),
                                 mat.indptr.copy()), shape=(6, 6))
    assert not unsorted.has_sorted_indices
    w = eq.GossipMatrix(6, unsorted, "custom")
    assert export(w) == matrix_csv_loop(w).encode()
    assert np.array_equal(w.csr.indices, mat.indices)   # a sorted copy; the handed CSR stays
    assert not np.shares_memory(w.csr.indices, unsorted.indices)


@pytest.mark.parametrize("family", ("d-equistatic", "ring", "complete"))
@pytest.mark.parametrize("n", (9, 10, 11, 99, 100, 101, 999, 1000, 1001))
def test_matrix_csv_matches_loop_export_across_label_widths(family, n):
    w = eq.build_topology(eq.TopologySpec(family, n, rho=0.5, seed=n))
    assert export(w) == matrix_csv_loop(w).encode()


def test_matrix_csv_spans_several_blocks():
    w = eq.build_topology(eq.TopologySpec("d-equistatic", 2000, rho=0.5, seed=1))
    # rows of M entries straddle the block boundaries
    assert w.mat.nnz > 2 * CSV_BLOCK and CSV_BLOCK % (w.mat.nnz // w.n) != 0
    assert export(w) == matrix_csv_loop(w).encode()


def test_matrix_csv_of_empty_rows_and_no_entries():
    mat = sparse.csr_array((np.array([0.5, 0.25, 0.25]), np.array([3, 0, 2]),
                            np.array([0, 1, 1, 1, 3])), shape=(4, 4))
    w = eq.GossipMatrix(4, mat, "custom")
    assert export(w) == matrix_csv_loop(w).encode() == b"row,col,weight\n0,3,0.5\n" \
        b"3,0,0.25\n3,2,0.25\n"
    w = eq.GossipMatrix(5, sparse.csr_array((5, 5)), "custom")
    assert list(eq.matrix_csv_text(w)) == [b"row,col,weight\n"]
    assert matrix_csv_loop(w) == "row,col,weight\n"


WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 2.225073858507201e-308, 0.1 + 0.2,
                                     1 / 3, -1e300, 0.5]),
                    st.floats(allow_nan=False, width=64))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                WEIGHTS, max_size=3 * n))))
def test_matrix_csv_matches_loop_export_on_random_sparse(case):
    """Random sparse matrices: repeated weights, -0.0 next to 0.0, subnormals, long reprs."""
    n, entries = case
    rows, cols = np.array(list(entries), dtype=np.int64).reshape(-1, 2).T
    mat = sparse.coo_array((np.array(list(entries.values()), dtype=float), (rows, cols)),
                           shape=(n, n)).tocsr()
    assert mat.nnz == len(entries)
    w = eq.GossipMatrix(n, mat, "custom")
    assert export(w) == matrix_csv_loop(w).encode()


def diagonal_matrix(weights):
    n = len(weights)
    mat = sparse.csr_array((np.array(weights, dtype=float), np.arange(n), np.arange(n + 1)),
                           shape=(n, n))
    return eq.GossipMatrix(n, mat, "custom")


def export_cell_widths(w):
    """Bytes of each cell of the export of `w`: a comma, the weight and the newline."""
    lines = export(w).splitlines(keepends=True)[1:]
    return [len(b"," + line.split(b",", 2)[2]) for line in lines]


def test_widest_export_cell_is_cell_bytes():
    widths = export_cell_widths(diagonal_matrix(
        [-2.2250738585072014e-308, -1.7976931348623157e308, 1.7976931348623157e308, -5e-324,
         5e-324, -2.225073858507201e-308, -0.0, 0.0, np.inf, -np.inf, np.nan, -1 / 3]))
    assert max(widths) == CELL_BYTES == widths[0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308,
                                           -1.7976931348623157e308]),
                          st.floats(width=64)), min_size=1, max_size=20))
def test_no_export_cell_exceeds_cell_bytes(weights):
    assert max(export_cell_widths(diagonal_matrix(weights))) <= CELL_BYTES


def test_refused_export_allocates_little(monkeypatch):
    """complete n = 2000 stores 4e6 entries, 64 MB of CSR: the refusal comes before a
    32 MB sorted copy of their bits."""
    w = eq.build_topology(eq.TopologySpec("complete", 2000))
    csr = w.mat.data.nbytes + w.mat.indices.nbytes + w.mat.indptr.nbytes
    monkeypatch.setattr("equitopo.topology._physical_memory", lambda: csr)
    tracemalloc.start()
    try:
        with pytest.raises(eq.ParameterError, match=f"{csr} of CSR"):
            eq.matrix_csv_text(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_accepted_export_stays_within_its_memory_model(tmp_path):
    """The traced peak of a CSR read and its export written to a file stays within what
    the preflight counts: the CSR, the label tables with the arange they are cut from,
    and one block's working set: three padded records, the row-label temp, the 8-byte
    sort copy and a weight table as large as the block, every cell at its widest."""
    w = eq.build_topology(eq.TopologySpec("d-equistatic", 2000, rho=0.5, seed=1))
    tracemalloc.start()
    try:
        data, indices, indptr = w.csr
        atomic_write(tmp_path / "w.csv", eq.matrix_csv_text(w))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    label = len(str(w.n - 1))
    csr = data.nbytes + indices.nbytes + indptr.nbytes
    record = (label + 1) + label + CELL_BYTES
    assert data.size > CSV_BLOCK
    assert peak <= csr + w.n * (8 + 2 * label + 1) + CSV_BLOCK * (
        3 * record + (label + 1) + 8 + 8 + CELL_BYTES)


def test_refused_export_raises_at_the_call(tmp_path, monkeypatch):
    """The preflight runs when `matrix_csv_text` is called, not when its first block is
    drawn, so a refused write never makes its temp file."""
    w = eq.build_topology(eq.TopologySpec("ring", 50))
    w.csr   # assembled first, so the export's own check is the one refusing
    monkeypatch.setattr("equitopo.topology._physical_memory", lambda: 100)
    with pytest.raises(eq.ParameterError, match="physical memory"):
        eq.matrix_csv_text(w)
    made, mkstemp = [], tempfile.mkstemp
    monkeypatch.setattr(tempfile, "mkstemp", lambda **kwargs: made.append(kwargs) or mkstemp(**kwargs))
    with pytest.raises(eq.ParameterError, match="physical memory"):
        atomic_write(tmp_path / "w.csv", eq.matrix_csv_text(w))
    assert made == [] and list(tmp_path.iterdir()) == []


def test_static_matrix_draws_itself():
    for family in STATIC_FAMILIES:
        w = eq.build_topology(spec_for(family, family_n(family), seed=3))
        assert w.sample() is w


def test_matrix_is_immutable():
    w = eq.basis_matrix(1, 4)
    with pytest.raises(ValueError):
        w.mat.data[0] = 2.0


@pytest.mark.parametrize("family", ["ring", "grid", "od-equidyn"])
def test_matrix_attributes_can_be_neither_set_nor_deleted(family):
    """Before and after the first read of `csr` and `mat`: a one-peer draw and a cyclic
    circulant assemble both on read, a lattice is handed its CSR."""
    w = eq.build_topology(spec_for(family, 9, seed=1)).sample()
    x = np.arange(9.0)
    names = ("n", "family", "basis_index", "structure", "csr", "mat")
    for read in (False, True):
        if read:
            expected = w.mix(x), w.csr, w.mat
        for name in names:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(w, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(w, name)
        assert w.n == 9 and w.family == family and w.structure is not None
        if read:
            assert np.array_equal(w.mix(x), expected[0])
            assert w.csr is expected[1] and w.mat is expected[2]
