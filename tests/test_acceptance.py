"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np

import equitopo as eq
from equitopo.cli import main as cli_main
from equitopo.topology import FAMILIES, _lazy_one_peer

from oracles import (central_difference_gradient, dense_consensus_factor,
                     gradient_descent_path, matched_node_count)


def report(num, description, passed, elapsed=None, detail=""):
    status = "PASS" if passed else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    line = f"[{status}] criterion {num:2d}: {description}{timing}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert passed, line


def test_c01_spectral_guarantee():
    t0 = time.perf_counter()
    measured = {}
    for n in (50, 300, 1000):
        spec = eq.TopologySpec("d-equistatic", n, rho=0.5, p=0.5, seed=2024 + n)
        w, _ = eq.build_d_equistatic(spec)
        wu, _ = eq.build_u_equistatic(w)
        measured[("d", n)] = eq.consensus_factor(w).value
        measured[("u", n)] = eq.consensus_factor(wu).value
        if n == 50:
            # independent dense oracle with explicit projectors
            assert dense_consensus_factor(w.toarray()) <= 0.5
            assert dense_consensus_factor(wu.toarray()) <= 0.5
    elapsed = time.perf_counter() - t0
    ok = all(v <= 0.5 for v in measured.values()) and elapsed < 30.0
    report(1, "built D/U matrices meet the 0.5 factor target", ok, elapsed,
           "worst " + format(max(measured.values()), ".4f"))


def test_c02_size_independent_decay():
    t0 = time.perf_counter()
    equi = eq.size_independence_experiment(
        "d-equistatic", [100, 300, 1000], iters=30, trials=3, master_seed=42,
        rho=0.75, m_for=lambda n: math.ceil(5 * math.log(n)))
    agree = equi.max_deviation() <= 0.05
    ring = eq.size_independence_experiment("ring", [100, 300, 1000], iters=2000,
                                           trials=10, master_seed=42)
    s = ring.slopes
    degrading = s[0] < s[1] < s[2]
    elapsed = time.perf_counter() - t0
    report(2, "decay slope is size-independent (and ring degrades)",
           agree and degrading and elapsed < 60.0, elapsed,
           f"equi dev {equi.max_deviation():.3f}, ring slopes "
           + ", ".join(f"{x:.5f}" for x in s))


def test_c03_one_peer_contraction_bounds():
    t0 = time.perf_counter()
    n = 60
    od = eq.build_topology(eq.TopologySpec("od-equidyn", n, m=n - 1, eta=0.5, seed=11))
    est_od = eq.empirical_contraction(od, 2000, seed=5)
    ou = eq.build_topology(eq.TopologySpec("ou-equidyn", n, m=n - 1, eta=0.5, seed=11))
    est_ou = eq.empirical_contraction(ou, 2000, seed=5)
    ok_od = est_od.value <= 0.5 + 3 * est_od.tolerance_or_stderr
    ok_ou = est_ou.value <= 2.0 / 3.0 + 3 * est_ou.tolerance_or_stderr
    elapsed = time.perf_counter() - t0
    report(3, "one-peer samplers meet 1/2 and 2/3 contraction bounds",
           ok_od and ok_ou and elapsed < 30.0, elapsed,
           f"od {est_od.value:.4f}, ou {est_ou.value:.4f}")


def test_od_equidyn_expected_contraction_is_exact_at_the_complete_basis():
    """At m = n - 1 the od-equidyn basis is every shift v = 1..n-1 once, and the draw of v
    is the circulant of a = 1 - eta + eta/n at 0 and b = eta (1 - 1/n) at v.  Its squared
    eigenvalue at frequency k is |a + b e^(-2 pi i v k / n)|^2, whose mean over v is
    a^2 + b^2 - 2ab/(n - 1) at every k != 0, since the v-sum of the cosines is -1:
    1/2 - 1/(2n) at eta = 1/2.

    Rounding: each FFT output is within f = 8 eps log2(4n) sqrt(n) ||c||_2 of exact (the
    bound `consensus_factor` states), so each squared modulus, at most 1, is within 3f;
    the mean over n - 1 of them and the closed form add at most (n + 8) eps.
    """
    eps = np.finfo(float).eps

    def closed(eta, n):
        a, b = 1.0 - eta + eta / n, eta * (1.0 - 1.0 / n)
        return a * a + b * b - 2.0 * a * b / (n - 1)

    sizes = (2, 3, 7, 30, 64, 101)
    for eta in (0.3, 0.5, 0.9):
        for n in sizes:
            sampler = eq.build_topology(eq.TopologySpec("od-equidyn", n, m=n - 1, eta=eta))
            assert sampler.basis_index.values == tuple(range(1, n))
            power, norm = np.zeros(n), 0.0
            for v in range(1, n):
                draw = _lazy_one_peer((np.arange(n) - v) % n, eta, "od-equidyn", (v,))
                c = draw.structure.column
                power += np.abs(np.fft.fft(c)) ** 2
                norm = max(norm, float(np.linalg.norm(c)))
            mean = power[1:] / (n - 1)
            tol = 24 * eps * math.log2(4 * n) * math.sqrt(n) * norm + (n + 8) * eps
            assert np.abs(mean - closed(eta, n)).max() <= tol, (eta, n)
            for wrong in (eta - 1e-3, eta + 1e-3):   # eta off by 1e-3 is told apart
                assert np.abs(mean - closed(wrong, n)).min() > tol, (wrong, n)
    assert all(abs(closed(0.5, n) - (0.5 - 0.5 / n)) <= 4 * eps for n in sizes)


def test_c04_matching_property_suite():
    t0 = time.perf_counter()
    min_margin = np.inf        # mean matched count minus 2n/3
    worst_eig = 0.0
    equivalent = True
    euclid_exact = True
    for n in range(2, 13):
        for v in range(1, n):
            mats = []
            for s in range(1, n + 1):
                a = eq.ou_scan_matrix(v, s, n)
                b = eq.ou_equidyn_node_view(v, s, n)
                equivalent &= np.array_equal(a.toarray(), b.toarray())
                mats.append(a.toarray())
                d = math.gcd(v, n)
                count = matched_node_count(eq.ou_equidyn_euclid(v, s, n).toarray())
                euclid_exact &= count == 2 * d * (n // (2 * d))
            mean_count = np.mean([matched_node_count(m) for m in mats])
            min_margin = min(min_margin, mean_count - 2 * n / 3)
            basis = eq.basis_matrix(v, n).toarray()
            bound = np.eye(n) / 3 + (basis + basis.T) / 3 - np.mean(mats, axis=0)
            worst_eig = min(worst_eig, np.linalg.eigvalsh((bound + bound.T) / 2).min())
    elapsed = time.perf_counter() - t0
    ok = (min_margin >= 0.0 and worst_eig >= -1e-10 and equivalent and euclid_exact
          and elapsed < 60.0)
    report(4, "matching properties hold exhaustively for n in [2, 12]", ok, elapsed,
           f"count margin {min_margin:.3f}, min eig {worst_eig:.2e}")


def test_c05_sampler_expectation_matches_parent():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(10):
        spec = eq.TopologySpec("d-equistatic", 50, rho=0.5, p=0.5, seed=900 + k)
        w, basis = eq.build_d_equistatic(spec)
        mean = np.zeros((50, 50))
        for u in basis.values:
            mean += eq.basis_matrix(u, 50).toarray()
        mean /= len(basis)
        worst = max(worst, np.abs(mean - w.toarray()).max())
    elapsed = time.perf_counter() - t0
    report(5, "basis-multiset average equals the parent matrix entrywise",
           worst <= 1e-12, elapsed, f"worst deviation {worst:.2e}")


def test_c06_tracking_identity_all_families():
    t0 = time.perf_counter()
    n, steps = 64, 500
    problems = [
        eq.make_least_squares(n, 8, 20, 0.1, 1.0, np.random.default_rng(1)),
        eq.make_logistic_ncvx(n, 8, 30, 0.001, 0.2, 0.1, np.random.default_rng(2)),
    ]
    gammas = {"least-squares": 0.02, "logistic": 0.5}
    worst = 0.0
    for problem in problems:
        for family in FAMILIES:
            m = n - 1 if family in ("od-equidyn", "ou-equidyn", "ou-equidyn-euclid") else None
            topo = eq.build_topology(eq.TopologySpec(family, n, rho=0.9, m=m, seed=5))
            dynamic = isinstance(topo, eq.DynSampler)
            rng = np.random.default_rng(3)
            state = eq.init_state("dsgt", problem, rng.standard_normal(8), rng)
            for _ in range(steps):
                w = topo.sample() if dynamic else topo
                state = eq.dsgt_step(state, w, gammas[problem.kind], problem, rng)
                g_sum = state.g_prev.sum(axis=0)
                dev = np.abs(state.y.sum(axis=0) - g_sum).max()
                worst = max(worst, dev / max(1.0, np.abs(g_sum).max()))
    elapsed = time.perf_counter() - t0
    report(6, "tracking sums equal gradient sums over 500 steps, every family",
           worst <= 1e-12, elapsed, f"worst relative deviation {worst:.2e}")


def test_c07_centralized_reduction():
    t0 = time.perf_counter()
    problem = eq.make_least_squares(20, 8, 25, 0.1, 0.0, np.random.default_rng(4))
    w = eq.build_topology(eq.TopologySpec("complete", 20))
    sched = eq.StepSchedule(0.05)
    x0 = np.random.default_rng(5).standard_normal(8)
    path = gradient_descent_path(problem.global_grad, x0, sched, 100)
    rng = np.random.default_rng(6)
    sd = eq.init_state("dsgd", problem, x0, rng)
    st = eq.init_state("dsgt", problem, x0, rng)
    worst = 0.0
    for t in range(100):
        sd = eq.dsgd_step(sd, w, sched.gamma(t), problem, rng)
        st = eq.dsgt_step(st, w, sched.gamma(t), problem, rng)
        scale = max(1.0, np.abs(path[t + 1]).max())
        worst = max(worst, np.abs(sd.x - path[t + 1]).max() / scale,
                    np.abs(st.x - path[t + 1]).max() / scale)
    elapsed = time.perf_counter() - t0
    report(7, "uniform mixing with exact gradients reproduces gradient descent",
           worst <= 1e-10, elapsed, f"worst relative deviation {worst:.2e}")


def test_c08_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    problems = [
        eq.make_least_squares(10, 7, 20, 0.1, 1.0, np.random.default_rng(8)),
        eq.make_logistic_ncvx(10, 7, 30, 0.001, 0.2, 0.1, np.random.default_rng(9)),
    ]
    worst = 0.0
    for problem in problems:
        for _ in range(20):
            i = int(rng.integers(0, problem.n))
            x = rng.standard_normal(problem.d)
            g = problem.grad(i, x)
            gf = central_difference_gradient(lambda z: problem.local_loss(i, z), x)
            worst = max(worst, np.linalg.norm(g - gf) / max(np.linalg.norm(g), 1e-12))
    elapsed = time.perf_counter() - t0
    report(8, "exact gradients match central finite differences",
           worst <= 1e-5, elapsed, f"worst relative error {worst:.2e}")


def test_c09_dsgd_topology_comparison():
    t0 = time.perf_counter()
    sched = eq.StepSchedule(0.037, 1.4, 40)
    finals = {}
    for family in ("d-equistatic", "u-equistatic", "ring"):
        losses = []
        for seed in range(10):
            problem = eq.make_least_squares(50, 10, 50, 0.1, 1.0,
                                            eq.make_rng(seed, "problem"))
            m = 6 if family != "ring" else None
            spec = eq.TopologySpec(family, 50, rho=0.9, m=m, seed=seed)
            trace = eq.run("dsgd", problem, spec, sched, iters=200, trials=1,
                           master_seed=seed)
            assert not trace.diverged
            losses.append(trace.records[0]["loss"][-1])
        finals[family] = np.array(losses)
    d, u, ring = finals["d-equistatic"], finals["u-equistatic"], finals["ring"]
    # noise margin: two-sample uncertainty of the compared means
    margin = 3 * math.sqrt(u.var(ddof=1) / 10 + d.var(ddof=1) / 10)
    beats_ring = ((d < ring).all() and (u < ring).all()
                  and d.mean() < ring.mean() and u.mean() < ring.mean())
    ok = beats_ring and u.mean() <= d.mean() + margin
    elapsed = time.perf_counter() - t0
    report(9, "equi-static families beat the ring on least squares at iter 200",
           ok and elapsed < 120.0, elapsed,
           f"D {d.mean():.5f}, U {u.mean():.5f}, ring {ring.mean():.5f}")


def test_c10_dsgt_one_peer_comparison():
    t0 = time.perf_counter()
    sched = eq.StepSchedule(3.0)   # equal step size across all three samplers
    plateaus = {}
    for family in ("od-equidyn", "ou-equidyn", "one-peer-exp"):
        vals = []
        for seed in range(10):
            problem = eq.make_logistic_ncvx(50, 10, 200, 0.001, 0.2, 0.1,
                                            eq.make_rng(seed, "problem"))
            m = 49 if family != "one-peer-exp" else None
            spec = eq.TopologySpec(family, 50, m=m, eta=0.5, seed=seed)
            trace = eq.run("dsgt", problem, spec, sched, iters=500, trials=1,
                           master_seed=seed)
            assert not trace.diverged
            vals.append(trace.records[0]["grad_norm_sq"][-100:].mean())
        plateaus[family] = float(np.mean(vals))
    ok = (plateaus["od-equidyn"] <= plateaus["one-peer-exp"]
          and plateaus["ou-equidyn"] <= plateaus["one-peer-exp"])
    elapsed = time.perf_counter() - t0
    report(10, "one-peer equi samplers plateau at or below the cycling baseline",
           ok and elapsed < 180.0, elapsed,
           ", ".join(f"{k} {v:.3e}" for k, v in plateaus.items()))


def test_c11_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    commands = [
        ["consensus", "--family", "d-equistatic", "--n", "60", "--rho", "0.6",
         "--iters", "15", "--trials", "3", "--seed", "7"],
        ["topo-build", "--family", "u-equistatic", "--n", "40", "--rho", "0.6",
         "--seed", "3"],
        ["dsgd", "--family", "ou-equidyn", "--n", "20", "--m", "19", "--iters", "25",
         "--trials", "2", "--seed", "5", "--d", "4", "--samples", "10",
         "--gamma0", "0.05"],
    ]
    identical = True
    for idx, argv in enumerate(commands):
        first = tmp_path / f"first{idx}.csv"
        second = tmp_path / f"second{idx}.csv"
        assert cli_main([*argv, "--out", str(first)]) == 0
        assert cli_main([*argv, "--out", str(second)]) == 0
        identical &= first.read_bytes() == second.read_bytes()
    elapsed = time.perf_counter() - t0
    report(11, "repeated runs with one master seed write byte-identical CSVs",
           identical, elapsed)
