"""Nested RL: scaled Bellman operator, monotonicity, likelihood, estimation."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from rlogit import core, nfxp, nrl
from rlogit.conic import builder
from rlogit.errors import UnsupportedHeterogeneousScale
from rlogit.generators import random_geometric_network
from rlogit.network import build_network
from rlogit.simulate import ObservationSet, generate_observations, make_observation

from conftest import objective_coefficients

BETA_TRUE = np.array([-4.0, -0.1, -0.05, -0.3])


def _chain_mu(net, by_state):
    vals = np.ones(net.n_states)
    for s, m in by_state.items():
        vals[net.state_index(s)] = m
    return nrl.ScaleField(vals)


def test_scale_field_requires_positive():
    with pytest.raises(ValueError):
        nrl.ScaleField(np.array([1.0, 0.0]))


def test_bellman_uniform_mu_matches_rl(chain_net):
    beta = np.array([-1.0])
    values = np.array([0.3, -0.7, 1.1, 0.0])
    scaled = nrl.nrl_bellman_apply(chain_net, beta, nrl.ScaleField.uniform(chain_net), values)
    plain = core.bellman_apply(chain_net, core.UtilitySpec(beta), values)
    np.testing.assert_allclose(scaled, plain, atol=1e-10)


def test_bellman_single_successor_mu_cancels(chain_net):
    beta = np.array([-1.0])
    mu = _chain_mu(chain_net, {"o": 5.0, "a": 0.3})
    values = np.array([0.0, 0.0, 0.0, 0.0])
    out = nrl.nrl_bellman_apply(chain_net, beta, mu, values)
    # chain arcs have costs 1, 2, 3 at beta=-1
    assert out[chain_net.state_index("o")] == pytest.approx(-1.0, abs=1e-12)
    assert out[chain_net.state_index("a")] == pytest.approx(-2.0, abs=1e-12)


def test_bellman_two_zero_utility_successors():
    net = build_network(
        ["o", "a", "b", "d"],
        "d",
        [("o", "a", [0.0]), ("o", "b", [0.0]), ("a", "d", [0.0]), ("b", "d", [0.0])],
        ["cost"],
    )
    mu = _chain_mu(net, {"o": 2.0})
    out = nrl.nrl_bellman_apply(net, np.array([-1.0]), mu, np.zeros(4))
    assert out[net.state_index("o")] == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_mu_monotone_chain_and_uniform(chain_net):
    ok, viol = nrl.check_mu_monotone(
        chain_net, _chain_mu(chain_net, {"o": 3.0, "a": 2.0, "b": 1.0})
    )
    assert ok and viol == []
    ok, _ = nrl.check_mu_monotone(chain_net, nrl.ScaleField.uniform(chain_net, 0.7))
    assert ok
    ok, viol = nrl.check_mu_monotone(
        chain_net, _chain_mu(chain_net, {"o": 1.0, "a": 2.0})
    )
    assert not ok and ("o", "a") in viol


def test_mu_monotone_cycle_rigidity(cycle_net):
    # a 2-cycle with unequal scales violates one orientation
    uneven = _chain_mu(cycle_net, {"s0": 2.0, "s1": 1.0})
    ok, viol = nrl.check_mu_monotone(cycle_net, uneven)
    assert not ok and ("s1", "s0") in viol
    ok, _ = nrl.check_mu_monotone(cycle_net, nrl.ScaleField.uniform(cycle_net))
    assert ok


def test_objective_coefficients_uniform_telescope(chain_net):
    obs = ObservationSet(
        chain_net,
        [make_observation(chain_net, ["o", "a", "b", "d"])] * 3,
    )
    coef = objective_coefficients(obs, nrl.ScaleField.uniform(chain_net))
    assert coef[chain_net.state_index("o")] == pytest.approx(-3.0)
    assert coef[chain_net.state_index("a")] == pytest.approx(0.0)
    assert coef[chain_net.state_index("b")] == pytest.approx(0.0)
    assert coef[chain_net.state_index("d")] == 0.0


def test_objective_coefficients_sign_under_monotonicity():
    net = random_geometric_network(15, 0.4, seed=1)
    obs = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 50, seed=1)
    # forward-monotone scale: decrease with x-coordinate progress via a
    # uniform field (trivially monotone)
    mu = nrl.ScaleField.uniform(net, 1.3)
    ok, _ = nrl.check_mu_monotone(net, mu)
    assert ok
    coef = objective_coefficients(obs, mu)
    assert np.all(coef <= 1e-12)
    assert coef[net.state_index("o")] < 0


def test_objective_coefficient_violation_is_positive():
    net = build_network(
        ["o", "a", "d"],
        "d",
        [("o", "a", [1.0]), ("a", "d", [1.0]), ("o", "d", [5.0])],
        ["cost"],
    )
    obs = ObservationSet(net, [make_observation(net, ["o", "a", "d"])])
    mu = _chain_mu(net, {"o": 1.0, "a": 2.0})
    ok, _ = nrl.check_mu_monotone(net, mu)
    assert not ok
    coef = objective_coefficients(obs, mu)
    # +1/mu_o - 1/mu_a = 1 - 0.5
    assert coef[net.state_index("a")] == pytest.approx(0.5)


def test_loglik_uniform_reduction():
    net = random_geometric_network(15, 0.4, seed=1)
    obs = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 100, seed=2)
    beta = np.array([-3.0, -0.2, -0.1, -0.4])
    l_nrl = nrl.nrl_log_likelihood(net, beta, nrl.ScaleField.uniform(net), obs)
    l_rl = core.log_likelihood(obs.net_by_group(), core.UtilitySpec(beta), obs)
    assert abs(l_nrl - l_rl) <= 1e-10


def test_loglik_single_forced_path(chain_net):
    obs = ObservationSet(chain_net, [make_observation(chain_net, ["o", "a", "b", "d"])])
    mu = _chain_mu(chain_net, {"o": 2.0, "a": 0.5})
    assert nrl.nrl_log_likelihood(chain_net, np.array([-1.0]), mu, obs) == pytest.approx(
        0.0, abs=1e-10
    )


def test_value_solve_uniform_matches_linear(chain_net):
    net = random_geometric_network(15, 0.4, seed=2)
    beta = np.full(net.n_attributes, -1.0)
    vf, report = nrl.solve_nrl_value(net, beta, nrl.ScaleField.uniform(net))
    assert report.status == core.SOLVED
    ref, _ = core.solve_value_linear(net, core.UtilitySpec(beta))
    np.testing.assert_allclose(vf.values, ref.values, atol=1e-9)
    # at mu = 1 the scaled operator is the plain one and both run core's one
    # value-iteration loop: the same values to the bit and the same iterations
    for net, beta in ((net, beta), (chain_net, np.array([-0.3]))):
        vf, report = nrl.solve_nrl_value(net, beta, nrl.ScaleField.uniform(net))
        ref, ref_report = core.solve_value_iteration(net, core.UtilitySpec(beta))
        assert report.status == ref_report.status == core.SOLVED
        assert report.iterations == ref_report.iterations
        assert np.array_equal(vf.values, ref.values)


def test_gradient_matches_finite_differences():
    net = random_geometric_network(15, 0.4, seed=1)
    obs = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 100, seed=3)
    rng = np.random.default_rng(7)
    mu = nrl.ScaleField(np.exp(rng.uniform(-0.4, 0.4, net.n_states)))
    beta = np.array([-3.0, -0.2, -0.1, -0.4])
    _, dbeta, dlogmu = nrl.nrl_loglik_and_gradient(net, beta, mu, obs)
    h = 1e-5

    def ll(b, m):
        # tight inner tolerance so fixed-point error stays below FD noise
        return nrl.nrl_log_likelihood(net, b, m, obs, value_tol=1e-13)

    for k in range(len(beta)):
        e = np.zeros(len(beta))
        e[k] = h
        fd = (ll(beta + e, mu) - ll(beta - e, mu)) / (2 * h)
        assert abs(dbeta[k] - fd) <= 1e-5 * max(1.0, abs(fd))
    logmu = np.log(mu.values)
    for s in range(net.n_states):
        e = np.zeros(net.n_states)
        e[s] = h
        fd = (
            ll(beta, nrl.ScaleField(np.exp(logmu + e)))
            - ll(beta, nrl.ScaleField(np.exp(logmu - e)))
        ) / (2 * h)
        assert abs(dlogmu[s] - fd) <= 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("per_state", [False, True])
def test_uniform_scale_is_not_identified(per_state):
    # V(k beta, k mu) = k V(beta, mu), so L depends on (beta, mu) only
    # through beta / mu, and the gradient is orthogonal to (beta, 1)
    net = random_geometric_network(30, 0.3, seed=1)
    obs = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 1000, seed=7)
    rng = np.random.default_rng(3)
    mu = nrl.ScaleField(np.exp(rng.uniform(-0.3, 0.3, net.n_states)) if per_state
                        else np.full(net.n_states, 1.2))
    beta = np.array([-3.5, -0.2, -0.1, -0.4])
    loglik, dbeta, dlogmu = nrl.nrl_loglik_and_gradient(net, beta, mu, obs)
    for k in (0.6, 1.7):
        scaled = nrl.nrl_log_likelihood(net, k * beta, nrl.ScaleField(k * mu.values), obs)
        assert scaled == pytest.approx(loglik, rel=1e-12)
    assert abs(beta @ dbeta + dlogmu.sum()) <= 1e-9 * np.abs(beta * dbeta).sum()


def test_gradient_on_a_cyclic_network_matches_finite_differences():
    # the value solve ends on a Newton step here, and the adjoint reuses
    # that step's factor of I - P
    net = random_geometric_network(30, 0.3, seed=6769, acyclic=False)
    beta_sim = np.array([-8.0, -0.2, -0.1, -0.6])
    obs = generate_observations(net, core.UtilitySpec(beta_sim), "o", 200, seed=5)
    mu = nrl.ScaleField(np.exp(np.random.default_rng(2).uniform(-0.4, 0.0, net.n_states)))
    assert nrl.solve_nrl_value(net, beta_sim, mu)[0].factor is not None
    _, dbeta, dlogmu = nrl.nrl_loglik_and_gradient(net, beta_sim, mu, obs)
    h = 1e-5

    def ll(b, m):
        return nrl.nrl_log_likelihood(net, b, m, obs, value_tol=1e-13)

    for k in range(len(beta_sim)):
        e = np.zeros(len(beta_sim))
        e[k] = h
        fd = (ll(beta_sim + e, mu) - ll(beta_sim - e, mu)) / (2 * h)
        assert abs(dbeta[k] - fd) <= 1e-5 * max(1.0, abs(fd))
    logmu = np.log(mu.values)
    for s in range(net.n_states):
        e = np.zeros(net.n_states)
        e[s] = h
        fd = (ll(beta_sim, nrl.ScaleField(np.exp(logmu + e)))
              - ll(beta_sim, nrl.ScaleField(np.exp(logmu - e)))) / (2 * h)
        assert abs(dlogmu[s] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_adjoint_reuses_the_newton_factor(monkeypatch):
    factorizations = []
    splu = spla.splu

    def counted(*args, **kwargs):
        factorizations.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)

    def gradient_factorizations(net, beta):
        obs = generate_observations(net, core.UtilitySpec(beta), "o", 50, seed=1)
        del factorizations[:]
        nrl.nrl_loglik_and_gradient(net, beta, nrl.ScaleField.uniform(net), obs)
        return len(factorizations)

    # cyclic: the uniform start's factor plus one per Newton step of the
    # value solve, and no other
    cyclic = random_geometric_network(30, 0.3, seed=6769, acyclic=False)
    beta = np.array([-8.0, -0.2, -0.1, -0.6])
    _, report = nrl.solve_nrl_value(cyclic, beta, nrl.ScaleField.uniform(cyclic))
    assert gradient_factorizations(cyclic, beta) == report.iterations + 1
    # acyclic: the value solve and the adjoint are level passes
    assert gradient_factorizations(random_geometric_network(15, 0.4, seed=1), BETA_TRUE) == 0


def test_estimate_fixed_mu_matches_rl():
    net = random_geometric_network(15, 0.4, seed=1)
    obs = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 300, seed=4)
    res = nrl.estimate_nrl_nfxp(net, obs, mu_mode="fixed")
    ref = nfxp.estimate_nfxp(obs.net_by_group(), obs)
    assert res.converged and ref.converged
    assert np.max(np.abs(res.beta_hat - ref.beta_hat)) <= 1e-6
    # a uniform scale mu is the RL model at beta / mu; the last attribute
    # column is all zero on this network and keeps its start value
    scaled = nrl.estimate_nrl_nfxp(net, obs, mu_init=2.0, mu_mode="fixed")
    assert scaled.converged and np.all(scaled.mu_hat.values == 2.0)
    assert scaled.loglik == pytest.approx(ref.loglik, abs=1e-8)
    np.testing.assert_allclose(scaled.beta_hat[:3], 2.0 * ref.beta_hat[:3], rtol=0, atol=1e-6)
    assert scaled.loglik == pytest.approx(
        nrl.nrl_log_likelihood(net, scaled.beta_hat, scaled.mu_hat, obs), abs=1e-8)


def _shared_scale_instance(name):
    if name == "dag32":
        net = random_geometric_network(30, 0.3, seed=1)
        return net, generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 1000, seed=7), None
    net = random_geometric_network(30, 0.3, seed=6769, acyclic=False)
    beta_sim = np.array([-8.0, -0.2, -0.1, -0.6])
    return net, generate_observations(net, core.UtilitySpec(beta_sim), "o", 300, seed=9), beta_sim


@pytest.mark.parametrize("mu_init", [1.0, 2.0])
@pytest.mark.parametrize("name", ["dag32", "cyclic6769"])
def test_shared_scale_is_the_fixed_scale_fit(name, mu_init):
    # a shared scale is not identified, so it is normalised to mu_init: the
    # fit is the fixed-scale one, RL Newton at beta / mu_init, to the bit
    net, obs, beta_start = _shared_scale_instance(name)
    beta_init = None if beta_start is None else mu_init * beta_start
    shared = nrl.estimate_nrl_nfxp(net, obs, beta_init=beta_init, mu_init=mu_init,
                                   mu_mode="shared")
    fixed = nrl.estimate_nrl_nfxp(net, obs, beta_init=beta_init, mu_init=mu_init,
                                  mu_mode="fixed")
    assert shared.converged
    assert np.array_equal(shared.beta_hat, fixed.beta_hat)
    assert shared.loglik == fixed.loglik
    assert (shared.status, shared.iterations) == (fixed.status, fixed.iterations)
    assert np.all(shared.mu_hat.values == mu_init) and np.all(fixed.mu_hat.values == mu_init)


def test_estimate_recovers_unit_scale():
    net = random_geometric_network(15, 0.4, seed=1)
    obs = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 3000, seed=3)
    res = nrl.estimate_nrl_nfxp(net, obs, mu_mode="shared")
    assert res.converged
    assert abs(res.mu_hat.values[0] - 1.0) <= 0.15
    assert res.to_dict()["mu_uniform"] == pytest.approx(res.mu_hat.values[0])


def test_warm_start_does_not_hurt():
    net = random_geometric_network(15, 0.4, seed=1)
    obs = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 500, seed=6)
    rl = nfxp.estimate_nfxp(obs.net_by_group(), obs)
    warm = nrl.estimate_nrl_nfxp(net, obs, beta_init=rl.beta_hat, mu_mode="shared")
    cold = nrl.estimate_nrl_nfxp(net, obs, mu_mode="shared")
    assert warm.converged
    assert warm.iterations <= max(cold.iterations, 1)


def test_warm_start_near_the_optimum_keeps_curvature_updates(monkeypatch):
    # criterion-06 instance 6769, started at an ECP estimate of beta: the
    # log-mu gradient there is just above tolerance, and the BFGS steps are
    # about 1e-7 long; with an absolute curvature bound (s'y > 1e-10) every
    # update was skipped and the search took 34 iterations.  The first
    # trial step is about 3e4 times too long in log mu: halving it took 43
    # likelihood evaluations, the interpolating backtrack takes 7
    evaluations = []
    evaluate = nrl.nrl_loglik_and_gradient

    def counted(*args):
        evaluations.append(args)
        return evaluate(*args)

    monkeypatch.setattr(nrl, "nrl_loglik_and_gradient", counted)
    net = random_geometric_network(30, 0.3, seed=6769, acyclic=False)
    beta_sim = np.array([-8.0, -0.2, -0.1, -0.6])
    obs = generate_observations(net, core.UtilitySpec(beta_sim), "o", 300, seed=9)
    beta0 = np.array([-8.369450777256642, -0.140542419190975,
                      -0.050793709111071214, -0.5265617644598547])
    res = nrl.estimate_nrl_nfxp(net, obs, beta_init=beta0, mu_mode="shared")
    assert res.converged
    assert res.iterations <= 8
    assert len(evaluations) <= 10


def test_per_state_serialization():
    net = random_geometric_network(15, 0.4, seed=1)
    obs = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 200, seed=8)
    res = nrl.estimate_nrl_nfxp(
        net, obs, mu_mode="per_state", opts=nfxp.EstimationOptions(max_iters=400)
    )
    doc = res.to_dict()
    assert "mu" in doc or "mu_uniform" in doc
    if "mu" in doc:
        assert len(doc["mu"]) == net.n_states


def test_invalid_mu_mode_rejected():
    net = random_geometric_network(15, 0.4, seed=1)
    with pytest.raises(ValueError):
        nrl.estimate_nrl_nfxp(net, None, mu_mode="nested")


def test_conic_build_rejects_heterogeneous_scale(chain_net):
    obs = ObservationSet(chain_net, [make_observation(chain_net, ["o", "a", "b", "d"])])
    groups = builder.group_observations(obs)
    mu = _chain_mu(chain_net, {"o": 2.0})
    with pytest.raises(UnsupportedHeterogeneousScale):
        builder.build_ecp(chain_net, groups, mu=mu)
    with pytest.raises(ValueError):
        builder.build_ecp(chain_net, groups, mu=nrl.ScaleField.uniform(chain_net, 2.0))
    prog, _ = builder.build_ecp(chain_net, groups, mu=nrl.ScaleField.uniform(chain_net))
    assert prog.n_cones == chain_net.n_arcs
