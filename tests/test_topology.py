import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equitopo as eq
from equitopo.topology import EQUI_DYNAMIC_FAMILIES, FAMILIES, _average_of_basis

from oracles import euclid_matching, hop_permutation, matched_node_count


def spec_for(family, n, **kw):
    kw.setdefault("rho", 0.9)
    if family in ("od-equidyn", "ou-equidyn", "ou-equidyn-euclid"):
        kw.setdefault("m", n - 1)
    return eq.TopologySpec(family, n, **kw)


def family_n(family):
    # one n valid for every family constraint
    return {"grid": 16, "torus": 16, "hypercube": 16}.get(family, 12)


# ---------------------------------------------------------------- mod_n

def test_mod_n_values():
    assert eq.mod_n(7, 6) == 1
    assert eq.mod_n(12, 6) == 6   # multiples of n map to n
    assert eq.mod_n(-1, 6) == 5   # -1 = (-1)*6 + 5
    assert [eq.mod_n(i, 4) for i in range(1, 9)] == [1, 2, 3, 4, 1, 2, 3, 4]


def test_mod_n_rejects_bad_n():
    with pytest.raises(eq.ParameterError):
        eq.mod_n(3, 0)


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
        assert np.abs(w.row_sums() - 1.0).max() <= 1e-12
        assert np.abs(w.col_sums() - 1.0).max() <= 1e-12
        rep = eq.validate_matrix(w)
        assert rep.max_off_diagonal_degree == 1
        assert rep.min_entry >= 0.0


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


def test_complete_basis_average_is_uniform():
    n = 9
    mat = _average_of_basis(tuple(range(1, n)), n)
    assert np.abs(mat.toarray() - 1.0 / n).max() <= 1e-15


def test_build_d_equistatic_meets_target():
    spec = eq.TopologySpec("d-equistatic", 60, rho=0.5, p=0.5, seed=4)
    w, basis = eq.build_d_equistatic(spec)
    assert eq.consensus_factor(w).value <= 0.5
    assert len(basis) == eq.default_basis_count(60, 0.5, 0.5)
    assert all(1 <= u <= 59 for u in basis.values)
    assert np.abs(w.row_sums() - 1.0).max() <= 1e-12
    assert np.abs(w.col_sums() - 1.0).max() <= 1e-12
    # in-degree at most M
    assert eq.validate_matrix(w).max_off_diagonal_degree <= len(basis)


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
    assert eq.validate_matrix(wu).max_off_diagonal_degree <= 2 * len(basis)


def test_build_u_equistatic_of_uniform_is_uniform():
    n = 8
    w = eq.GossipMatrix(n, _average_of_basis(tuple(range(1, n)), n), "d-equistatic",
                        tuple(range(1, n)))
    wu, _ = eq.build_u_equistatic(w)
    assert np.abs(wu.toarray() - 1.0 / n).max() <= 1e-15


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
    assert eq.validate_matrix(w).max_off_diagonal_degree == 1


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
    assert s1.t == 5


def test_od_empty_basis_rejected():
    sampler = eq.OdEquiDynSampler(spec_for("od-equidyn", 5, m=4), eq.BasisIndex((), 5))
    with pytest.raises(eq.ParameterError):
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
            rep = eq.validate_matrix(w)
            assert rep.symmetry_defect == 0.0
            assert rep.doubly_stochastic
            assert rep.max_off_diagonal_degree <= 1


def test_ou_euclid_full_matching_when_gcd_is_half():
    w = eq.ou_equidyn_euclid(5, 2, 10)  # gcd(5, 10) = 5 = n/2
    assert matched_node_count(w.toarray()) == 10


def test_ou_sampler_symmetric_lazy_mix():
    n = 9
    sampler = eq.OuEquiDynSampler(spec_for("ou-equidyn", n, eta=0.5),
                                  eq.complete_basis(n).with_reversals())
    for _ in range(4):
        w = sampler.sample()
        rep = eq.validate_matrix(w)
        assert rep.symmetry_defect == 0.0
        assert rep.doubly_stochastic
        assert rep.max_off_diagonal_degree <= 1


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


def test_static_exp_hops():
    w = eq.build_topology(eq.TopologySpec("static-exp", 6)).toarray()
    # hops 1, 2, 4 plus self, uniform 1/4
    assert w[1, 0] == w[2, 0] == w[4, 0] == w[0, 0] == 0.25


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
    mats = [topo.sample() for _ in range(3)] if isinstance(topo, eq.DynSampler) else [topo]
    for w in mats:
        rep = eq.validate_matrix(w)
        assert rep.max_row_sum_dev <= 1e-12, family
        assert rep.max_col_sum_dev <= 1e-12, family
        assert rep.nonnegative, family


@pytest.mark.parametrize("family", ["od-equidyn", "ou-equidyn", "ou-equidyn-euclid",
                                    "one-peer-exp"])
def test_one_peer_families_have_degree_at_most_one(family):
    topo = eq.build_topology(spec_for(family, 11, seed=2))
    for _ in range(5):
        assert eq.validate_matrix(topo.sample()).max_off_diagonal_degree <= 1


def test_dynamic_basis_from_parent_when_m_not_complete():
    sampler = eq.build_topology(eq.TopologySpec("od-equidyn", 20, rho=0.9, m=5, seed=3))
    assert len(sampler.basis_index) == 5


# ---------------------------------------------------------------- export

def test_matrix_csv_round_trip():
    w = eq.basis_matrix(2, 5)
    text = eq.matrix_csv_text(w)
    lines = text.strip().splitlines()
    assert lines[0] == "row,col,weight"
    rebuilt = np.zeros((5, 5))
    for line in lines[1:]:
        r, c, v = line.split(",")
        rebuilt[int(r), int(c)] = float(v)
    assert np.array_equal(rebuilt, w.toarray())


def test_matrix_is_immutable():
    w = eq.basis_matrix(1, 4)
    with pytest.raises(ValueError):
        w.mat.data[0] = 2.0
