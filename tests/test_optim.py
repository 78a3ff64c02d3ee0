import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import expit

import equitopo as eq
from equitopo.optim import _expit_neg, _softplus_neg

from oracles import (central_difference_gradient, gradient_descent_path, kernel_global_grad,
                     kernel_grad, kernel_grads_all, kernel_local_loss, kernel_loss,
                     reference_least_squares, reference_logistic)


def identity_matrix(n):
    return eq.GossipMatrix(n, sparse.csr_array(np.eye(n)), "custom")


@pytest.fixture
def ls_problem():
    return eq.make_least_squares(8, 5, 20, 0.1, 1.0, np.random.default_rng(0))


@pytest.fixture
def logistic_problem():
    return eq.make_logistic_ncvx(8, 5, 40, 0.001, 0.2, 0.1, np.random.default_rng(1))


# ---------------------------------------------------------------- generators

def test_least_squares_gradient_matches_finite_differences(ls_problem):
    rng = np.random.default_rng(2)
    for _ in range(20):
        i = int(rng.integers(0, ls_problem.n))
        x = rng.standard_normal(ls_problem.d)
        g = ls_problem.grad(i, x)
        gf = central_difference_gradient(lambda z: ls_problem.local_loss(i, z), x)
        assert np.linalg.norm(g - gf) <= 1e-5 * max(np.linalg.norm(g), 1e-12)


def test_logistic_gradient_matches_finite_differences(logistic_problem):
    rng = np.random.default_rng(3)
    for _ in range(20):
        i = int(rng.integers(0, logistic_problem.n))
        x = rng.standard_normal(logistic_problem.d)
        g = logistic_problem.grad(i, x)
        gf = central_difference_gradient(lambda z: logistic_problem.local_loss(i, z), x)
        assert np.linalg.norm(g - gf) <= 1e-5 * max(np.linalg.norm(g), 1e-12)


def test_noiseless_interpolation():
    p = eq.make_least_squares(5, 4, 10, 0.0, 0.0, np.random.default_rng(4))
    assert p.loss(p.x_star) <= 1e-20
    assert np.linalg.norm(p.global_grad(p.x_star)) <= 1e-12
    assert np.allclose(p.x_star, p.x_gen)


def test_normal_equations_optimum_is_stationary():
    p = eq.make_least_squares(6, 4, 12, 0.3, 0.0, np.random.default_rng(5))
    assert np.linalg.norm(p.global_grad(p.x_star)) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_singular_normal_equations_refuse_the_optimum(seed):
    # n K = 2 < d = 5: the problem still builds, and its optimum is not unique
    p = eq.make_least_squares(2, 5, 1, 0.0, 0.1, eq.make_rng(seed, "problem"))
    with pytest.raises(eq.ParameterError, match="singular"):
        p.x_star


# (n, d, samples): one sample, one feature, d >= 6 (where a transposed einsum
# rounds differently), two nodes, the c10 size (13 draws, the last of 2 nodes),
# one node per draw, and draws of 136 nodes
DATA_SHAPES = [(1, 1, 1), (2, 5, 1), (3, 1, 7), (2, 6, 9), (4, 13, 3), (5, 8, 30),
               (50, 10, 200), (7, 6, 700), (300, 3, 20)]


@pytest.mark.parametrize("n, d, samples", DATA_SHAPES)
@pytest.mark.parametrize("seed", [0, 7, 2**31 + 5])
def test_generators_draw_the_reference_data_bit_for_bit(n, d, samples, seed):
    for sigma_s in (0.0, 0.3):
        p = eq.make_least_squares(n, d, samples, sigma_s, 0.1, np.random.default_rng(seed))
        x_gen, a, b = reference_least_squares(n, d, samples, sigma_s,
                                              np.random.default_rng(seed))
        for got, want in ((p.x_gen, x_gen), (p.a, a), (p.b, b)):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    p = eq.make_logistic_ncvx(n, d, samples, 0.01, 0.2, 0.1, np.random.default_rng(seed))
    x_gen, h, y = reference_logistic(n, d, samples, 0.2, np.random.default_rng(seed))
    for got, want in ((p.x_gen, x_gen), (p.h, h), (p.y, y)):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("kind", ["least-squares", "logistic"])
def test_problem_stores_one_feature_major_copy(kind):
    n, d, samples = 5, 4, 30
    rng = np.random.default_rng(11)
    if kind == "least-squares":
        p = eq.make_least_squares(n, d, samples, 0.1, 0.1, rng)
        name, view = "at", p.a
        p.x_star   # cached on first read: it must not bring a second copy along
    else:
        p = eq.make_logistic_ncvx(n, d, samples, 0.01, 0.2, 0.1, rng)
        name, view = "ht", p.h
    stored = vars(p)[name]
    assert stored.shape == (n, d, samples) and stored.flags.c_contiguous
    assert view.shape == (n, samples, d) and np.shares_memory(view, stored)
    others = {key: v for key, v in vars(p).items() if isinstance(v, np.ndarray) and key != name}
    assert others and all(v.size < stored.size for v in others.values())


def test_stochastic_gradient_noise_is_zero_mean(ls_problem):
    rng = np.random.default_rng(6)
    x_rows = np.zeros((ls_problem.n, ls_problem.d))
    draws = np.array([ls_problem.stoch_grads_all(x_rows, rng)[2] for _ in range(10000)])
    exact = ls_problem.grad(2, x_rows[2])
    stderr = draws.std(axis=0, ddof=1) / np.sqrt(10000)
    assert (np.abs(draws.mean(axis=0) - exact) <= 4 * stderr).all()


def test_logistic_label_rule_gives_all_positive(logistic_problem):
    # the threshold 1 + exp(-h.x*) always exceeds the uniform draw
    assert (logistic_problem.y == 1.0).all()


def test_logistic_zero_heterogeneity_shares_solution():
    p = eq.make_logistic_ncvx(6, 4, 10, 0.001, 0.0, 0.0, np.random.default_rng(7))
    assert p.heterogeneity == 0.0


def test_logistic_without_regularizer_is_plain_logistic():
    rng = np.random.default_rng(8)
    p = eq.make_logistic_ncvx(4, 3, 25, 0.0, 0.2, 0.0, rng)
    x = rng.standard_normal(3)
    margin = p.y[1] * (p.h[1] @ x)
    assert p.local_loss(1, x) == pytest.approx(float(np.mean(np.logaddexp(0, -margin))))
    gf = central_difference_gradient(lambda z: p.local_loss(1, z), x)
    assert np.linalg.norm(p.grad(1, x) - gf) <= 1e-5 * np.linalg.norm(gf)


def test_regularizer_gradient_formula(logistic_problem):
    x = np.random.default_rng(9).standard_normal(5)
    expected = 2 * logistic_problem.reg * x / (1 + x * x) ** 2
    assert np.allclose(logistic_problem._reg_grad(x), expected, rtol=1e-14)


# ---------------------------------------------------------------- kernels

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


def kernel_error_scales(p, x_rows):
    """Per node, the magnitude each kernel value is rounded against: (loss, gradient).

    It is the sum of the absolute terms behind the value, with the rounding of
    each residual or margin (at most d ulps of |a| |x| + |b|, or of |h| |x|)
    carried through its derivative.  expit(-m) is below the smallest normal
    number where the one-exp form overflows to 0 (m > 709.78), so each
    logistic coefficient also carries TINY / EPS, which the ulp scaling turns
    back into a few TINY.
    """
    if p.kind == "least-squares":
        a = np.abs(p.a)
        r = np.abs((p.a @ x_rows[:, :, None])[:, :, 0] - p.b)
        r_err = r + (a @ np.abs(x_rows)[:, :, None])[:, :, 0] + np.abs(p.b)
        return (r * r_err).mean(axis=1), (r_err[:, None, :] @ a)[:, 0, :] / p.k_samples
    h = np.abs(p.h)
    margin = p.y * (p.h @ x_rows[:, :, None])[:, :, 0]
    m_err = (h @ np.abs(x_rows)[:, :, None])[:, :, 0]
    loss = (np.logaddexp(0.0, -margin) + m_err).mean(axis=1)
    coef_err = expit(-margin) * (1.0 + m_err) + TINY / EPS
    grad = (coef_err[:, None, :] @ h)[:, 0, :] / p.l_samples
    reg_loss = np.array([p._reg_loss(x) for x in x_rows])
    return loss + reg_loss, grad + np.abs(p._reg_grad(x_rows))


def check_kernels_match_einsum_forms(p, x_rows, ulps=8):
    """Every kernel within `ulps` of its scale of the einsum/logaddexp/expit form."""
    tol = ulps * EPS
    loss_scale, grad_scale = kernel_error_scales(p, x_rows)
    grads = p.grads_all(x_rows)
    assert (np.abs(grads - kernel_grads_all(p, x_rows)) <= tol * grad_scale).all()
    for i, x in enumerate(x_rows):
        assert abs(p.local_loss(i, x) - kernel_local_loss(p, i, x)) <= tol * loss_scale[i]
        assert (np.abs(p.grad(i, x) - kernel_grad(p, i, x)) <= tol * grad_scale[i]).all()
        assert (np.abs(grads[i] - p.grad(i, x)) <= tol * grad_scale[i]).all()
    x = x_rows[0]
    loss_scale, grad_scale = kernel_error_scales(p, np.tile(x, (p.n, 1)))
    assert abs(p.loss(x) - kernel_loss(p, x)) <= tol * loss_scale.mean()
    global_err = np.abs(p.global_grad(x) - kernel_global_grad(p, x))
    assert (global_err <= tol * grad_scale.mean(axis=0)).all()


def random_problem(kind, n, samples, d, rng):
    if kind == "least-squares":   # at least d samples keep the normal equations regular
        return eq.make_least_squares(n, d, max(samples, d), 0.5, 0.1, rng)
    p = eq.make_logistic_ncvx(n, d, samples, 0.01, 0.5, 0.1, rng)
    p.y = rng.choice([-1.0, 1.0], size=p.y.shape)   # the generator labels every sample +1
    return p


@given(kind=st.sampled_from(["least-squares", "logistic"]), n=st.integers(1, 6),
       samples=st.integers(1, 30), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3, 1e5]))
@settings(max_examples=300, deadline=None, database=None)
def test_kernels_match_einsum_forms(kind, n, samples, d, seed, scale):
    rng = np.random.default_rng(seed)
    p = random_problem(kind, n, samples, d, rng)
    check_kernels_match_einsum_forms(p, scale * rng.standard_normal((n, d)))


@pytest.mark.parametrize("scale", [1e3, 1e5])
def test_kernels_match_einsum_forms_beyond_exp_range(scale):
    rng = np.random.default_rng(40)
    p = random_problem("logistic", 5, 40, 4, rng)
    x_rows = scale * rng.standard_normal((5, 4))
    margin = p.y * (p.h @ x_rows[:, :, None])[:, :, 0]
    assert (margin > 745).any() and (margin < -745).any()
    check_kernels_match_einsum_forms(p, x_rows)


@pytest.mark.parametrize("kind", ["least-squares", "logistic"])
@pytest.mark.parametrize("seed", range(10))
def test_kernels_match_einsum_forms_at_paper_scale(kind, seed):
    # n 50, 200 samples, d 10: the global sums run over 10^4 terms
    rng = np.random.default_rng(seed)
    p = random_problem(kind, 50, 200, 10, rng)
    for scale in (1e-3, 1.0, 30.0, 1e3, 1e5):
        check_kernels_match_einsum_forms(p, scale * rng.standard_normal((50, 10)))


def test_logistic_helpers_give_exact_limits():
    m = np.array([-np.inf, -1000.0, 1000.0, np.inf, np.nan])
    with np.errstate(all="raise"):
        softplus, sigmoid = _softplus_neg(m), _expit_neg(m)
    assert np.array_equal(softplus, [np.inf, 1000.0, 0.0, 0.0, np.nan], equal_nan=True)
    assert np.array_equal(sigmoid, [1.0, 1.0, 0.0, 0.0, np.nan], equal_nan=True)
    with np.errstate(invalid="ignore"):   # logaddexp flags its NaN input
        assert np.array_equal(softplus, np.logaddexp(0.0, -m), equal_nan=True)
    assert np.array_equal(sigmoid, expit(-m), equal_nan=True)


def test_logistic_helpers_match_library_forms():
    m = np.concatenate([np.linspace(-800.0, 800.0, 20001), [-0.0, 0.0, 5e-324, -5e-324]])
    assert np.allclose(_softplus_neg(m), np.logaddexp(0.0, -m), rtol=4 * EPS, atol=0.0)
    inside = m < 709.78   # above it expit(-m) < TINY and the one-exp form gives 0
    assert np.allclose(_expit_neg(m)[inside], expit(-m[inside]), rtol=4 * EPS, atol=0.0)
    assert (np.abs(_expit_neg(m) - expit(-m))[~inside] < TINY).all()


def test_cli_import_leaves_scipy_special_out():
    code = "import sys, equitopo.cli; print('scipy.special' in sys.modules)"
    path = os.pathsep.join([str(Path(eq.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------- steps

def test_dsgd_zero_step_is_fixed_point(ls_problem):
    p = eq.make_least_squares(8, 5, 20, 0.1, 0.0, np.random.default_rng(10))
    x0 = np.random.default_rng(11).standard_normal(5)
    state = eq.init_state("dsgd", p, x0, np.random.default_rng(12))
    w = eq.build_topology(eq.TopologySpec("ring", 8))
    out = eq.dsgd_step(state, w, 0.0, p, np.random.default_rng(13))
    assert np.allclose(out.x, state.x, rtol=0, atol=1e-14)


def test_dsgd_dimension_mismatch(ls_problem):
    state = eq.init_state("dsgd", ls_problem, np.zeros(5), np.random.default_rng(0))
    w = eq.build_topology(eq.TopologySpec("ring", 9))
    with pytest.raises(eq.ParameterError):
        eq.dsgd_step(state, w, 0.1, ls_problem, np.random.default_rng(0))


def test_dsgd_uniform_mixing_reduces_to_gradient_descent():
    p = eq.make_least_squares(12, 6, 15, 0.2, 0.0, np.random.default_rng(14))
    w = eq.build_topology(eq.TopologySpec("complete", 12))
    sched = eq.StepSchedule(0.08)
    x0 = np.random.default_rng(15).standard_normal(6)
    path = gradient_descent_path(p.global_grad, x0, sched, 100)
    state = eq.init_state("dsgd", p, x0, np.random.default_rng(16))
    for t in range(100):
        state = eq.dsgd_step(state, w, sched.gamma(t), p, np.random.default_rng(17))
        ref = path[t + 1]
        assert np.abs(state.x - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_dsgt_uniform_mixing_reduces_to_gradient_descent():
    p = eq.make_least_squares(12, 6, 15, 0.2, 0.0, np.random.default_rng(18))
    w = eq.build_topology(eq.TopologySpec("complete", 12))
    sched = eq.StepSchedule(0.08)
    x0 = np.random.default_rng(19).standard_normal(6)
    path = gradient_descent_path(p.global_grad, x0, sched, 100)
    state = eq.init_state("dsgt", p, x0, np.random.default_rng(20))
    for t in range(100):
        state = eq.dsgt_step(state, w, sched.gamma(t), p, np.random.default_rng(21))
        ref = path[t + 1]
        assert np.abs(state.x - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_dsgt_identity_zero_step_freezes_state():
    p = eq.make_least_squares(6, 4, 10, 0.1, 0.0, np.random.default_rng(22))
    x0 = np.random.default_rng(23).standard_normal(4)
    state = eq.init_state("dsgt", p, x0, np.random.default_rng(24))
    w = identity_matrix(6)
    out = state
    for _ in range(5):
        out = eq.dsgt_step(out, w, 0.0, p, np.random.default_rng(25))
    assert np.array_equal(out.x, state.x)
    assert np.array_equal(out.y, state.y)


def test_dsgt_requires_initialized_tracking(ls_problem):
    state = eq.OptState(x=np.zeros((8, 5)))
    w = eq.build_topology(eq.TopologySpec("ring", 8))
    with pytest.raises(eq.ParameterError):
        eq.dsgt_step(state, w, 0.1, ls_problem, np.random.default_rng(0))


def test_dsgt_tracking_identity_short_run():
    p = eq.make_least_squares(10, 4, 12, 0.1, 1.0, np.random.default_rng(26))
    rng = np.random.default_rng(27)
    state = eq.init_state("dsgt", p, rng.standard_normal(4), rng)
    sampler = eq.build_topology(eq.TopologySpec("ou-equidyn", 10, m=9, seed=1))
    for _ in range(50):
        state = eq.dsgt_step(state, sampler.sample(), 0.05, p, rng)
        dev = np.abs(state.y.sum(axis=0) - state.g_prev.sum(axis=0)).max()
        assert dev <= 1e-12 * max(1.0, np.abs(state.g_prev.sum(axis=0)).max())


def test_dsgd_gradient_norm_decreases_on_least_squares():
    # pre-run at this seed showed the window mean drops well below half the
    # initial value; the assertion pins that margin
    p = eq.make_least_squares(50, 10, 50, 0.1, 1.0, eq.make_rng(0, "problem"))
    spec = eq.TopologySpec("d-equistatic", 50, rho=0.6, seed=0)
    trace = eq.run("dsgd", p, spec, eq.StepSchedule(0.02), iters=100, trials=1,
                   master_seed=0)
    g = trace.records[0]["grad_norm_sq"]
    assert g[90:].mean() < 0.5 * g[0]


# ---------------------------------------------------------------- run driver

def test_run_is_deterministic():
    p = eq.make_least_squares(10, 4, 12, 0.1, 1.0, np.random.default_rng(28))
    spec = eq.TopologySpec("od-equidyn", 10, m=9, seed=0)
    sched = eq.StepSchedule(0.05, 1.4, 40)
    a = eq.run("dsgd", p, spec, sched, iters=30, trials=2, master_seed=5)
    b = eq.run("dsgd", p, spec, sched, iters=30, trials=2, master_seed=5)
    for ra, rb in zip(a.records, b.records):
        for key in ra:
            assert np.array_equal(ra[key], rb[key])


def test_run_truncates_and_flags_divergence():
    p = eq.make_least_squares(8, 4, 10, 0.1, 0.0, np.random.default_rng(29))
    spec = eq.TopologySpec("ring", 8, seed=0)
    trace = eq.run("dsgd", p, spec, eq.StepSchedule(100.0), iters=300, trials=1,
                   master_seed=1)
    assert trace.diverged
    assert trace.diverged_trials == (0,)
    rec = trace.records[0]
    assert len(rec["grad_norm_sq"]) < 301
    assert trace.diverged_at == (f"0:{len(rec['grad_norm_sq'])}",)
    assert np.isfinite(rec["grad_norm_sq"]).all()


def test_run_rejects_unknown_algorithm(ls_problem):
    with pytest.raises(eq.ParameterError):
        eq.run("adam", ls_problem, eq.TopologySpec("ring", 8), eq.StepSchedule(0.1), 5)


@pytest.mark.parametrize("call, match", [
    (lambda p: eq.run("dsgd", p, eq.TopologySpec("ring", 8), eq.StepSchedule(0.1), 0),
     "iters"),
    (lambda p: eq.dsgd_step(eq.init_state("dsgd", p, np.zeros(5), None),
                            eq.build_topology(eq.TopologySpec("ring", 8)), -0.1, p,
                            np.random.default_rng(0)), "gamma"),
    (lambda p: eq.dsgt_step(eq.init_state("dsgt", p, np.zeros(5), np.random.default_rng(0)),
                            eq.build_topology(eq.TopologySpec("ring", 8)), -0.1, p,
                            np.random.default_rng(0)), "gamma"),
    (lambda p: eq.make_logistic_ncvx(8, 5, 0, 0.001, 0.2, 0.1, np.random.default_rng(1)),
     "l_samples"),
    (lambda p: eq.make_least_squares(8, 5, 0, 0.1, 0.1, np.random.default_rng(1)), "k_samples"),
], ids=["run-zero-iters", "dsgd-negative-gamma", "dsgt-negative-gamma",
        "logistic-zero-samples", "least-squares-zero-samples"])
def test_parameter_errors(call, match, ls_problem):
    with pytest.raises(eq.ParameterError, match=match):
        call(ls_problem)


def test_trace_csv_schema():
    p = eq.make_least_squares(6, 3, 8, 0.1, 0.5, np.random.default_rng(30))
    trace = eq.run("dsgd", p, eq.TopologySpec("ring", 6, seed=0), eq.StepSchedule(0.05),
                   iters=4, trials=2, master_seed=2)
    lines = trace.csv_text().strip().splitlines()
    assert lines[0] == "algo,family,n,trial,iter,grad_norm_sq,loss,consensus_residual"
    assert len(lines) == 1 + 2 * 5
    assert lines[1].startswith("dsgd,ring,6,0,0,")


def test_schedule_staircase():
    sched = eq.StepSchedule(0.037, 1.4, 40)
    assert sched.gamma(0) == 0.037
    assert sched.gamma(39) == 0.037
    assert sched.gamma(40) == pytest.approx(0.037 / 1.4)
    assert sched.gamma(80) == pytest.approx(0.037 / 1.4**2)
    assert eq.StepSchedule(0.1).gamma(1000) == 0.1


@pytest.mark.parametrize("args, field", [
    ((0.0,), "gamma0"), ((-0.1,), "gamma0"), ((float("nan"),), "gamma0"),
    ((0.1, 0.5), "decay_factor"), ((0.1, 0.0, 10), "decay_factor"),
    ((0.1, float("nan"), 10), "decay_factor"), ((0.1, 2.0, 0), "decay_period"),
    ((0.1, 2.0, -3), "decay_period"),
])
def test_schedule_rejects_the_command_line_ranges(args, field):
    with pytest.raises(eq.ParameterError, match=field):
        eq.StepSchedule(*args)
