"""NFXP estimation: gradient oracle, ascent behavior, failure taxonomy."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from rlogit import core, nfxp, nrl
from rlogit.errors import ValueSolveFailed
from rlogit.generators import bic_dag, random_geometric_network
from rlogit.network import build_network
from rlogit.simulate import ObservationSet, generate_observations, make_observation

from conftest import differenced_hessian, make_infeasible_net, path_information

BETA_TRUE = np.array([-4.0, -0.1, -0.05, -0.3])
BETA_CYCLIC = np.array([-8.0, -0.2, -0.1, -0.6])


def _instance(seed=1, n_obs=300, beta=BETA_TRUE):
    net = random_geometric_network(20, 0.35, seed=seed)
    obs = generate_observations(net, core.UtilitySpec(beta), "o", n_obs, seed=seed)
    return obs.net_by_group(), obs


@pytest.mark.parametrize("beta", [-353.0, -356.0, -360.0])
def test_gradient_where_exp_values_underflow(beta):
    # V(o) = 2 beta sits near the bottom of the floating-point range, where
    # e^V / e^V(o) scales overflow; 5 of the 55 paths take the direct arc, so
    # the gradient is 5 * 2.5 + 50 * 2 - 55 * 2 = 2.5 up to e^(0.5 beta).
    # e^V(o) is subnormal at beta = -360, which costs V(o) about 1e-10.  The
    # Hessian, -55 * 0.25 p (1 - p) for the direct arc's p ~ e^(0.5 beta),
    # is far below any difference quotient: path enumeration is its oracle
    net = build_network(["o", "a", "d"], "d",
                        [("o", "a", [1.0]), ("a", "d", [1.0]), ("o", "d", [2.5])], ["cost"])
    obs = ObservationSet(net, [make_observation(net, ["o", "a", "d"])] * 50
                         + [make_observation(net, ["o", "d"])] * 5)
    nets = obs.net_by_group()
    _, grad, hess = nfxp.loglik_and_gradient(nets, core.UtilitySpec([beta]), obs)
    assert np.isfinite(grad[0]) and grad[0] == pytest.approx(2.5, rel=1e-9)
    assert hess[0, 0] < 0
    np.testing.assert_allclose(hess, -55 * path_information(nets, [beta], obs), rtol=1e-9)


def test_gradient_where_values_span_beyond_the_exp_range(monkeypatch):
    # V spans about 719 at beta = -360: the gradient comes from a factor of
    # I - P and matches the log-space NRL gradient at mu = 1, up to the
    # rounding of the subnormal e^V(o) in the exp-space value solve.  The
    # Hessian's forward solve reuses that factor: one splu for the value
    # solve, one for I - P
    net = build_network(["o", "a", "b", "d"], "d",
                        [("o", "a", [1.0]), ("a", "d", [1.0]), ("o", "d", [2.5]),
                         ("o", "b", [2.0]), ("b", "d", [0.001])], ["cost"])
    paths = [["o", "a", "d"]] * 50 + [["o", "d"]] * 5 + [["o", "b", "d"]] * 5
    obs = ObservationSet(net, [make_observation(net, p) for p in paths])
    beta = np.array([-360.0])
    vf, _ = core.solve_value_linear(net, core.UtilitySpec(beta))
    assert np.ptp(vf.values) > core._EXP_CAP
    factors = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: factors.append(1) or splu(*a, **k))
    _, grad, hess = nfxp.loglik_and_gradient(obs.net_by_group(), core.UtilitySpec(beta), obs)
    assert len(factors) == 2
    _, ref, _ = nrl.nrl_loglik_and_gradient(net, beta, nrl.ScaleField.uniform(net), obs)
    assert np.all(np.isfinite(grad))
    np.testing.assert_allclose(grad, ref, rtol=1e-9)
    np.testing.assert_allclose(hess, -60 * path_information(obs.net_by_group(), beta, obs),
                               rtol=1e-8)


def _cyclic_instance():
    net = random_geometric_network(30, 0.3, seed=2274, acyclic=False)
    obs = generate_observations(net, core.UtilitySpec(BETA_CYCLIC), "o", 300, seed=1)
    return obs.net_by_group(), obs


@pytest.mark.parametrize("case", ["dag", "cyclic"])
def test_hessian_matches_differenced_gradient(case):
    if case == "dag":
        (groups, obs), beta = _instance(seed=1, n_obs=100), np.array([-2.0, -0.4, -0.2, -0.6])
    else:
        (groups, obs), beta = _cyclic_instance(), 1.1 * BETA_CYCLIC
    _, _, hess = nfxp.loglik_and_gradient(groups, core.UtilitySpec(beta), obs)
    fd = differenced_hessian(groups, beta, obs)
    np.testing.assert_allclose(hess, fd, rtol=0, atol=1e-7 * np.max(np.abs(fd)))
    np.testing.assert_allclose(hess, hess.T, rtol=1e-12)
    assert np.all(np.linalg.eigvalsh(hess) < 0)


def test_hessian_is_minus_the_path_information():
    # L = sum_n x_n beta - V(o_n), so -H sums, over the observations, the
    # covariance of the path attribute totals from their origins
    groups, obs = _instance(seed=1, n_obs=100)
    beta = np.array([-2.0, -0.4, -0.2, -0.6])
    _, _, hess = nfxp.loglik_and_gradient(groups, core.UtilitySpec(beta), obs)
    np.testing.assert_allclose(hess, -len(obs) * path_information(groups, beta, obs),
                               rtol=1e-9)


def _fd_gradient(net_by_group, beta, obs, h=1e-5):
    grad = np.empty(len(beta))
    for k in range(len(beta)):
        bp, bm = beta.copy(), beta.copy()
        bp[k] += h
        bm[k] -= h
        lp = core.log_likelihood(net_by_group, core.UtilitySpec(bp), obs)
        lm = core.log_likelihood(net_by_group, core.UtilitySpec(bm), obs)
        grad[k] = (lp - lm) / (2 * h)
    return grad


def test_gradient_matches_finite_differences():
    groups, obs = _instance(seed=1, n_obs=100)
    beta = np.array([-2.0, -0.4, -0.2, -0.6])
    loglik, grad, _ = nfxp.loglik_and_gradient(groups, core.UtilitySpec(beta), obs)
    assert loglik == pytest.approx(
        core.log_likelihood(groups, core.UtilitySpec(beta), obs)
    )
    fd = _fd_gradient(groups, beta, obs)
    assert np.max(np.abs(grad - fd)) <= 1e-5


def test_gradient_across_random_triples():
    rng = np.random.default_rng(0)
    checked = 0
    seed = 0
    while checked < 8:
        seed += 1
        try:
            groups, obs = _instance(seed=seed, n_obs=40)
        except Exception:
            continue
        beta = rng.uniform(-2.0, -0.1, size=4)
        _, grad, _ = nfxp.loglik_and_gradient(groups, core.UtilitySpec(beta), obs)
        fd = _fd_gradient(groups, beta, obs)
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(grad - fd)) / scale <= 1e-5
        checked += 1


def test_gradient_zero_for_absent_attribute():
    # composite DAG whose second attribute column is identically zero
    alt = np.hstack([np.linspace(-1, 1, 4).reshape(4, 1), np.zeros((4, 1))])
    net = bic_dag(4, 1, 3, alt)
    spec = core.UtilitySpec(np.array([-0.5, -0.7]))
    obs = generate_observations(net, spec, "n0_0", 50, seed=2)
    _, grad, _ = nfxp.loglik_and_gradient(obs.net_by_group(), spec, obs)
    assert grad[1] == 0.0


def test_infeasible_instance_raises_value_solve_failed():
    net = make_infeasible_net(0.5)
    obs = ObservationSet(net, [make_observation(net, ["s0", "s1", "d"])])
    with pytest.raises(nfxp.ValueSolveFailed):
        nfxp.loglik_and_gradient(obs.net_by_group(), core.UtilitySpec([1.0]), obs)
    res = nfxp.estimate_nfxp(obs.net_by_group(), obs, beta_init=[1.0])
    assert res.status == nfxp.INNER_SOLVE_FAILED


def test_estimate_from_truth_converges_fast():
    groups, obs = _instance(seed=2, n_obs=3000)
    res = nfxp.estimate_nfxp(groups, obs, beta_init=BETA_TRUE)
    assert res.status == nfxp.CONVERGED
    assert res.iterations <= 30
    assert res.gradient_norm <= 1e-6 * max(1.0, abs(res.loglik))
    assert res.loglik_per_obs <= 0
    # with N=3000 the MLE sits near the ground truth
    assert np.max(np.abs(res.beta_hat - BETA_TRUE)) < 0.5


def test_estimate_default_init_recovers_truth():
    groups, obs = _instance(seed=4, n_obs=1000)
    res = nfxp.estimate_nfxp(groups, obs)  # beta_init = -1.5 everywhere
    assert res.status == nfxp.CONVERGED
    # estimate agrees with the run started at the truth
    res2 = nfxp.estimate_nfxp(groups, obs, beta_init=BETA_TRUE)
    assert np.max(np.abs(res.beta_hat - res2.beta_hat)) < 1e-4
    assert res.loglik == pytest.approx(res2.loglik, abs=1e-8)


def test_monotone_ascent_and_trace():
    groups, obs = _instance(seed=2, n_obs=200)
    res = nfxp.estimate_nfxp(groups, obs)
    assert res.status == nfxp.CONVERGED
    logliks = [entry[1] for entry in res.trace]
    assert all(b >= a - 1e-12 for a, b in zip(logliks, logliks[1:]))
    assert len(res.trace) == res.iterations + 1


def _counted(objective):
    """``objective`` with a list of the points it was evaluated at."""
    points = []

    def evaluate(x):
        points.append(np.array(x))
        return objective(x)

    return evaluate, points


def _quadratic(x_star, curvature):
    def objective(x):
        d = x - x_star
        return -1.0 - 0.5 * curvature * float(d @ d), -curvature * d
    return objective


def test_backtrack_interpolates_an_overlong_first_step():
    # the gradient at 0 has unit sup norm, so the first trial step is 1 long
    # while the maximizer along it lies 1e-4 away: halving needs 14 trials,
    # the interpolated step 5 (each at least a tenth of the one before)
    x_star = np.array([1e-4, -0.5e-4])
    evaluate, points = _counted(_quadratic(x_star, 1e4))
    x, _, _, status, _, _ = nfxp.bfgs_maximize(
        evaluate, np.zeros(2), nfxp.EstimationOptions(max_iters=1))
    assert status == nfxp.MAX_ITERATIONS
    assert len(points) <= 6
    np.testing.assert_allclose(x, x_star, rtol=1e-9)


def test_backtrack_halves_after_an_inner_solve_failure():
    quadratic = _quadratic(np.array([0.3]), 1.0)

    def objective(x):
        if x[0] > 0.2:
            raise ValueSolveFailed("d", "status Diverged")
        return quadratic(x)

    evaluate, points = _counted(objective)
    nfxp.bfgs_maximize(evaluate, np.zeros(1), nfxp.EstimationOptions(max_iters=1))
    # first trial at the full step 0.3 fails, then 0.15 is tried and accepted
    trials = [float(p[0]) for p in points[1:]]
    assert trials == [0.3, 0.15]


def test_projected_gradient_norm_at_max_iterations():
    # the maximizer x = 5 lies outside the box [-1, 1]; the one iteration
    # ends on the bound, where the outward gradient 4 is no stationarity
    # violation: the projected norm reported there is 0
    evaluate, _ = _counted(_quadratic(np.array([5.0]), 1.0))
    x, _, grad_norm, status, iters, trace = nfxp.bfgs_maximize(
        evaluate, np.zeros(1), nfxp.EstimationOptions(max_iters=1),
        project=lambda x: np.clip(x, -1.0, 1.0))
    assert status == nfxp.MAX_ITERATIONS and iters == 1 and x[0] == 1.0
    assert grad_norm == 0.0 and trace[-1][2] == 0.0


def test_curvature_updates_near_the_optimum():
    # started 1e-6 from the maximizer of a quadratic with curvatures 1 to
    # 300, every BFGS step has s'y below 1e-10: an absolute curvature bound
    # skips each update, and the unit-scaled steepest ascent that is left
    # takes dozens of iterations; the bound relative to |s| |y| keeps them
    curvature = np.array([1.0, 30.0, 300.0])

    def objective(x):
        return -1.0 - 0.5 * float(x @ (curvature * x)), -curvature * x

    _, _, _, status, iters, trace = nfxp.bfgs_maximize(
        objective, np.array([2e-6, -1e-6, 5e-7]), nfxp.EstimationOptions())
    assert status == nfxp.CONVERGED
    assert iters <= 4
    points = [entry[0] for entry in trace]
    sy = [float((b - a) @ (curvature * (b - a))) for a, b in zip(points, points[1:])]
    assert sy and max(sy) < 1e-10


def _recorded(monkeypatch):
    """Every point ``estimate_nfxp`` evaluates, with its log-likelihood
    (None where the value system has no solution)."""
    trials = []
    evaluate = nfxp.loglik_and_gradient

    def recorded(net_by_group, spec, obs):
        try:
            out = evaluate(net_by_group, spec, obs)
        except ValueSolveFailed:
            trials.append((spec.beta.copy(), None))
            raise
        trials.append((spec.beta.copy(), out[0]))
        return out

    monkeypatch.setattr(nfxp, "loglik_and_gradient", recorded)
    return trials


def test_newton_reports_an_unusable_initial_point(monkeypatch):
    net = make_infeasible_net(0.5)
    obs = ObservationSet(net, [make_observation(net, ["s0", "s1", "d"])])
    res = nfxp.estimate_nfxp(obs.net_by_group(), obs, beta_init=[1.0])
    assert (res.status, res.iterations, res.trace) == (nfxp.INNER_SOLVE_FAILED, 0, [])
    # path probabilities never exceed one: a positive log-likelihood is invalid
    groups, obs = _instance(seed=2, n_obs=50)
    monkeypatch.setattr(nfxp, "loglik_and_gradient",
                        lambda *args: (1.0, np.ones(4), -np.eye(4)))
    res = nfxp.estimate_nfxp(groups, obs)
    assert (res.status, res.iterations, res.trace) == (nfxp.INVALID_LIKELIHOOD, 0, [])


def _two_loop_sample():
    """200 paths at beta = -0.5 on two loops through s0 of utility 2 beta,
    whose value system has no solution once 2 e^(2 beta) >= 1."""
    net = build_network(["s0", "s1", "s2", "d"], "d",
                        [("s0", "s1", [1.0]), ("s0", "s2", [1.0]), ("s1", "s0", [1.0]),
                         ("s2", "s0", [1.0]), ("s1", "d", [0.0]), ("s2", "d", [0.0])], ["u"])
    return generate_observations(net, core.UtilitySpec([-0.5]), "s0", 200, seed=1)


def test_newton_halves_a_step_into_an_infeasible_cyclic_point(monkeypatch):
    # two loops through s0 of utility 2 beta: the value system has no
    # solution once 2 e^(2 beta) >= 1.  At beta = -3 the likelihood is nearly
    # linear, so the Newton step lands far inside the infeasible region, and
    # every failed trial halves it until the value system solves again
    obs = _two_loop_sample()
    trials = _recorded(monkeypatch)
    res = nfxp.estimate_nfxp(obs.net_by_group(), obs, beta_init=[-3.0])
    assert res.converged and abs(res.beta_hat[0] + 0.5) < 0.05
    failed = next(i for i, (_, loglik) in enumerate(trials[1:], 1) if loglik is not None) - 1
    assert failed >= 3
    steps = np.array([b[0] + 3.0 for b, _ in trials[1:failed + 2]])
    np.testing.assert_allclose(steps, steps[0] / 2.0 ** np.arange(failed + 1), rtol=1e-12)


@pytest.mark.parametrize("beta_init", [-3.0, -5.0, -10.0])
def test_newton_bounds_its_steps_far_below_the_estimate(monkeypatch, beta_init):
    # far below the two-loop network's estimate the likelihood is nearly
    # linear and the Newton step runs 274 (from -3) to 3.4e8 (from -10) long.
    # Cut to STEP_BOUND |beta| and, after its failed trials, restarted at the
    # fraction that solved, the fit rejects at most three trials
    obs = _two_loop_sample()
    ref = nfxp.estimate_nfxp(obs.net_by_group(), obs, beta_init=[-1.0])
    trials = _recorded(monkeypatch)
    res = nfxp.estimate_nfxp(obs.net_by_group(), obs, beta_init=[beta_init])
    assert res.converged and res.beta_hat[0] == pytest.approx(ref.beta_hat[0], abs=1e-6)
    assert trials[1][0][0] - beta_init == pytest.approx(nfxp.STEP_BOUND * -beta_init)
    assert sum(loglik is None for _, loglik in trials) <= 3


@pytest.mark.parametrize("beta_init", [-360.0, -400.0])
def test_newton_falls_back_where_the_curvature_underflows(monkeypatch, beta_init):
    # the two-loop network far below its estimate: the loops' probability
    # e^(2 beta) leaves a curvature that underflows to zero (-400) or to a
    # subnormal whose Newton step overflows (-360).  BFGS's first step
    # g / max(1, |g|) stands in until Newton has curvature to work with
    obs = _two_loop_sample()
    trials = _recorded(monkeypatch)
    res = nfxp.estimate_nfxp(obs.net_by_group(), obs, beta_init=[beta_init])
    assert res.converged and res.iterations <= 100
    assert trials[1][0][0] == beta_init + 1.0
    ref = nfxp.estimate_nfxp(obs.net_by_group(), obs, beta_init=[-1.0])
    assert res.beta_hat[0] == pytest.approx(ref.beta_hat[0], abs=1e-6)


def test_newton_line_search_failure(monkeypatch):
    # every trial point fails its value solve: the step halves below MIN_STEP
    groups, obs = _instance(seed=2, n_obs=50)
    evaluate = nfxp.loglik_and_gradient
    calls = []

    def first_only(*args):
        calls.append(args)
        if len(calls) > 1:
            raise ValueSolveFailed("d", "status SingularOrNonpositive")
        return evaluate(*args)

    monkeypatch.setattr(nfxp, "loglik_and_gradient", first_only)
    res = nfxp.estimate_nfxp(groups, obs)
    assert (res.status, res.iterations, len(res.trace)) == (nfxp.LINE_SEARCH_FAILED, 1, 1)
    np.testing.assert_array_equal(res.beta_hat, nfxp.default_beta_init(4))
    assert 30 < len(calls) < 60


def test_newton_max_iterations():
    groups, obs = _instance(seed=2, n_obs=200)
    res = nfxp.estimate_nfxp(groups, obs, opts=nfxp.EstimationOptions(max_iters=2))
    assert (res.status, res.iterations) == (nfxp.MAX_ITERATIONS, 2)
    assert len(res.trace) == res.iterations + 1
    assert res.gradient_norm == res.trace[-1][2] > 0


def test_newton_warm_start_at_the_estimate(monkeypatch):
    groups, obs = _instance(seed=2, n_obs=200)
    res = nfxp.estimate_nfxp(groups, obs)
    trials = _recorded(monkeypatch)
    warm = nfxp.estimate_nfxp(groups, obs, beta_init=res.beta_hat)
    assert (warm.status, warm.iterations, len(trials)) == (nfxp.CONVERGED, 0, 1)
    np.testing.assert_array_equal(warm.beta_hat, res.beta_hat)


def test_duplicated_attribute_takes_no_newton_step(monkeypatch):
    # with the first column twice, -H is singular: the duplicate's Cholesky
    # pivot is rounding.  It keeps its start value while Newton runs on the
    # other attributes and reaches the fit without the duplicate, whose first
    # coefficient is the sum of the two
    base = random_geometric_network(20, 0.35, seed=1)
    attrs = np.column_stack([base.attrs[:, :1], base.attrs])
    net = build_network(list(base.states), base.destination,
                        [(base.states[i], base.states[j], attrs[a])
                         for a, (i, j) in enumerate(zip(base.arc_from, base.arc_to))])
    obs = generate_observations(base, core.UtilitySpec(BETA_TRUE), "o", 300, seed=1)
    dup = ObservationSet(net, [make_observation(net, list(ob.path)) for ob in obs.observations])
    ref = nfxp.estimate_nfxp(obs.net_by_group(), obs)
    _, _, hess = nfxp.loglik_and_gradient(dup.net_by_group(),
                                          core.UtilitySpec(nfxp.default_beta_init(5)), dup)
    eig = np.linalg.eigvalsh(-hess)
    assert abs(eig[0]) <= 1e-12 * eig[-1]
    trials = _recorded(monkeypatch)
    res = nfxp.estimate_nfxp(dup.net_by_group(), dup)
    assert res.converged and res.iterations <= 10
    assert all(b[1] == nfxp.DEFAULT_BETA_INIT for b, _ in trials)
    np.testing.assert_allclose(res.beta_hat[0] + res.beta_hat[1], ref.beta_hat[0], atol=1e-6)
    np.testing.assert_allclose(res.beta_hat[2:], ref.beta_hat[1:], atol=1e-6)
    assert res.loglik == pytest.approx(ref.loglik, abs=1e-8)


def test_result_serialization():
    groups, obs = _instance(seed=2, n_obs=50)
    res = nfxp.estimate_nfxp(groups, obs)
    doc = res.to_dict()
    assert set(doc) == {
        "beta_hat",
        "loglik",
        "loglik_per_obs",
        "status",
        "iterations",
        "gradient_norm",
        "wall_time",
    }
    assert doc["status"] == "Converged"
    assert len(doc["beta_hat"]) == 4


def test_success_rate_harness_all_converge():
    groups, obs = _instance(seed=2, n_obs=100)
    sampler = nfxp.uniform_beta_init_sampler(4, seed=0)
    rows = nfxp.success_rate_harness(
        [(groups, obs)],
        runs=5,
        beta_init_sampler=sampler,
        estimators={"nfxp": nfxp.estimate_nfxp},
    )
    assert len(rows) == 1
    assert rows[0]["success_rate"] == 100.0
    assert rows[0]["mean_time"] > 0


def test_success_rate_harness_counts_failures():
    net = make_infeasible_net(0.5)
    obs = ObservationSet(net, [make_observation(net, ["s0", "s1", "d"])])
    rows = nfxp.success_rate_harness(
        [(obs.net_by_group(), obs)],
        runs=3,
        beta_init_sampler=lambda run: np.array([1.0]),
        estimators={"nfxp": nfxp.estimate_nfxp},
    )
    assert rows[0]["success_rate"] == 0.0
    assert np.isnan(rows[0]["mean_time"])
