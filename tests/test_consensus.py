from dataclasses import replace

import numpy as np
import pytest

import equitopo as eq


def test_uniform_matrix_reaches_consensus_in_one_step():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(40)
    w = eq.build_topology(eq.TopologySpec("complete", 40))
    (residual,) = eq.gossip_run(w, x0, 5).residual
    assert residual[0] == pytest.approx(np.linalg.norm(x0 - x0.mean()))
    assert (residual[1:] <= 1e-12 * np.linalg.norm(x0)).all()


@pytest.mark.parametrize("n, exact", [(2, True), (4, True), (8, True), (64, True), (1024, True),
                                      (2**16, True), (6, False), (1000, False)])
def test_one_peer_exp_averages_exactly_in_tau_steps_at_powers_of_two(n, exact):
    """At n = 2^tau the tau one-peer hops 1, 2, ..., 2^(tau - 1) with weights 1/2 average
    exactly (Ying et al., NeurIPS 2021): the residual after tau steps is rounding alone.
    Any other n is left far from the mean."""
    tau = (n - 1).bit_length()
    x0 = np.random.default_rng(n).standard_normal(n)
    (residual,) = eq.gossip_run(eq.build_topology(eq.TopologySpec("one-peer-exp", n)),
                                x0, tau).residual
    if exact:
        assert residual[tau] <= 4 * tau * np.finfo(float).eps * residual[0]
    else:
        assert residual[tau] > 1e-3 * residual[0]


def test_static_matrix_contracts_at_its_factor():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal(50)
    w, _ = eq.build_d_equistatic(eq.TopologySpec("d-equistatic", 50, rho=0.5, seed=3))
    factor = eq.consensus_factor(w).value
    (residual,) = eq.gossip_run(w, x0, 25).residual
    for t in range(26):
        assert residual[t] <= factor**t * residual[0] + 1e-8


def test_consensus_is_fixed_point():
    x0 = np.full(30, 2.5)
    w = eq.build_topology(eq.TopologySpec("ring", 30))
    trace = eq.gossip_run(w, x0, 10)
    assert (trace.residual <= 1e-12 * (1 + np.linalg.norm(x0))).all()


@pytest.mark.parametrize("family,n", [
    ("ring", 25), ("torus", 25), ("d-equistatic", 25), ("u-equistatic", 25),
    ("od-equidyn", 25), ("ou-equidyn", 25), ("one-peer-exp", 25),
])
def test_mean_preserved_at_every_step(family, n):
    m = n - 1 if family.startswith("o") and family != "one-peer-exp" else None
    spec = eq.TopologySpec(family, n, rho=0.9, m=m, seed=2)
    topo = eq.build_topology(spec)
    x = np.random.default_rng(5).standard_normal(n) + 3.0
    mean0 = x.mean()
    for _ in range(40):
        x = topo.sample().mix(x)
        assert abs(x.mean() - mean0) <= 1e-10 * (1.0 + abs(mean0))


def test_gossip_aborts_on_non_finite_state():
    from scipy import sparse
    blowup = eq.GossipMatrix(4, sparse.csr_array(np.eye(4) * 1e300), "custom")
    with np.errstate(over="ignore"):
        with pytest.raises(eq.NonFiniteError):
            eq.gossip_run(blowup, np.ones(4), 5)


def test_gossip_rejects_bad_inputs():
    w = eq.build_topology(eq.TopologySpec("ring", 8))
    with pytest.raises(eq.ParameterError):
        eq.gossip_run(w, np.ones(7), 5)
    with pytest.raises(eq.ParameterError):
        eq.gossip_run(w, np.full(8, np.nan), 5)
    with pytest.raises(eq.ParameterError):
        eq.gossip_run(w, np.ones(8), 0)


def test_consensus_experiment_requires_a_trial():
    with pytest.raises(eq.ParameterError, match="trials"):
        eq.consensus_experiment(eq.TopologySpec("ring", 8), 5, 0)


@pytest.mark.parametrize("family", ["od-equidyn", "ou-equidyn"])
def test_sampler_residuals_contract_in_the_mean(family):
    # trial-averaged residuals must be non-increasing beyond sampling noise
    n, trials, iters = 30, 50, 15
    residuals = np.empty((trials, iters + 1))
    for k in range(trials):
        spec = eq.TopologySpec(family, n, m=n - 1, eta=0.5, seed=1000 + k)
        topo = eq.build_topology(spec)
        x0 = eq.make_rng(77, "x0", k).standard_normal(n)
        residuals[k] = eq.gossip_run(topo, x0, iters).residual
    mean = residuals.mean(axis=0)
    stderr = residuals.std(axis=0, ddof=1) / np.sqrt(trials)
    for t in range(iters):
        assert mean[t + 1] <= mean[t] + 2 * stderr[t + 1]


def test_experiment_reproducible_bitwise():
    spec = eq.TopologySpec("ou-equidyn", 20, m=19, seed=42)
    t1 = eq.consensus_experiment(spec, 12, 3)
    t2 = eq.consensus_experiment(spec, 12, 3)
    assert np.array_equal(t1.residual, t2.residual)


def test_trace_csv_schema():
    spec = eq.TopologySpec("ring", 9, seed=0)
    text = eq.consensus_experiment(spec, 3, 2).csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "family,n,trial,iter,residual"
    assert len(lines) == 1 + 2 * 4
    assert lines[1].startswith("ring,9,0,0,")


def test_fit_decay_slope_recovers_exponential():
    t = np.arange(31)
    slope = eq.fit_decay_slope(t, 3.0 * np.exp(-0.4 * t))
    assert slope == pytest.approx(-0.4, abs=1e-12)


def test_fit_decay_slope_truncates_at_floor():
    t = np.arange(41)
    r = 1.0 * np.exp(-2.0 * t)
    r[20:] = 1e-16   # floating-point floor must not flatten the fit
    assert eq.fit_decay_slope(t, r) == pytest.approx(-2.0, abs=1e-9)


def test_fit_decay_slope_instant_consensus_is_minus_inf():
    r = np.array([5.0, 0.0, 0.0, 0.0])
    assert eq.fit_decay_slope(np.arange(4), r) == float("-inf")


def test_size_independence_smoke():
    sweep = eq.size_independence_experiment("ring", [9, 16], iters=40, trials=2,
                                            master_seed=3)
    assert sweep.family == "ring"
    assert len(sweep.entries) == 2
    assert all(e.slope < 0 for e in sweep.entries)
    assert sweep.max_deviation() >= 0.0


def test_size_independence_needs_two_sizes():
    with pytest.raises(eq.ParameterError):
        eq.size_independence_experiment("ring", [9], iters=5, trials=1)


def trial_spec(family, n, seed):
    return eq.TopologySpec(family, n, rho=0.75, m=n - 1 if family == "ou-equidyn" else None,
                           seed=seed)


@pytest.mark.parametrize("family", ["ring", "torus", "ou-equidyn"])
def test_consensus_csv_is_one_gossip_run_per_trial(family):
    """Trial k: topology seed derive_seed(seed, "trial", k), x0 from make_rng(seed, "x0", k)."""
    n, iters, trials = 16, 7, 3
    spec = trial_spec(family, n, seed=11)
    lines = ["family,n,trial,iter,residual"]
    for k in range(trials):
        topo = eq.build_topology(replace(spec, seed=eq.derive_seed(spec.seed, "trial", k)))
        x0 = eq.make_rng(spec.seed, "x0", k).standard_normal(n)
        (residual,) = eq.gossip_run(topo, x0, iters).residual
        lines += [f"{family},{n},{k},{t},{float(r)!r}" for t, r in enumerate(residual)]
    assert eq.consensus_experiment(spec, iters, trials).csv_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("family", ["ring", "torus", "ou-equidyn"])
def test_size_sweep_slope_fits_the_geometric_mean_of_the_trials(family):
    sizes, iters, trials, seed = (9, 16), 12, 3, 4
    m_for = (lambda n: n - 1) if family == "ou-equidyn" else None
    sweep = eq.size_independence_experiment(family, sizes, iters, trials, master_seed=seed,
                                            m_for=m_for)
    for n, entry in zip(sizes, sweep.entries):
        trace = eq.consensus_experiment(
            trial_spec(family, n, eq.derive_seed(seed, "size", n)), iters, trials)
        assert np.array_equal(entry.trace.residual, trace.residual)
        log_sum = sum(np.log(np.clip(row, 1e-300, None)) for row in trace.residual)
        assert entry.slope == eq.fit_decay_slope(np.arange(iters + 1), np.exp(log_sum / trials))
