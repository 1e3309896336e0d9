"""Sufficient statistics of an ObservationSet against per-observation and
per-transition reference loops, on a pooled multi-destination set, on a
20,000-path set and on generated small DAGs."""

from collections import Counter

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings

from rlogit import core, nfxp, nrl
from rlogit.conic import builder
from rlogit.conic.solver import OPTIMAL
from rlogit.errors import UnknownArc, UnknownState
from rlogit.generators import random_geometric_network
from rlogit.simulate import ObservationSet, generate_observations

from conftest import (
    dag_samples,
    differenced_hessian,
    objective_coefficients,
    path_information,
    pooled_set,
    relabel,
)

BETA_TRUE = np.array([-4.0, -0.1, -0.05, -0.3])


def _value_jacobian(net, spec, values):
    """(n_states, K) matrix of dV_s / dbeta_k by forward implicit
    differentiation, dense.  In exp-space z = e^V solves (I - M) z = b, so
    (I - M) dz/dbeta_k holds e^{v_a} z_to(a) attr_ak summed into row
    from(a), and dV_s/dbeta_k = (dz_s/dbeta_k) / z_s."""
    rows = net.free_states
    z = np.exp(values)
    ev = np.exp(core.arc_utilities(net, spec))
    m = np.zeros((net.n_states, net.n_states))
    np.add.at(m, (net.arc_from, net.arc_to), ev)
    rhs = np.zeros((net.n_states, net.n_attributes))
    np.add.at(rhs, net.arc_from, (ev * z[net.arc_to])[:, None] * net.attrs)
    out = np.zeros_like(rhs)
    system = np.eye(len(rows)) - m[np.ix_(rows, rows)]
    out[rows] = np.linalg.solve(system, rhs[rows]) / z[rows, None]
    return out


def _reference_nfxp(nets, spec, obs):
    """Log-likelihood and gradient summed one observation at a time, the
    gradient from the forward value Jacobian."""
    total, grad = 0.0, np.zeros(len(spec.beta))
    for ob in obs.observations:
        net = nets[ob.destination]
        vf, _ = core.solve_value_linear(net, spec)
        dV = _value_jacobian(net, spec, vf.values)
        o = net.state_index(ob.origin)
        total += float(ob.attr_sum @ spec.beta) - vf.values[o]
        grad += ob.attr_sum - dV[o]
    return total, grad


@pytest.fixture(scope="module")
def pooled():
    """Two destination groups on their own networks."""
    return pooled_set((1, 2), 800, BETA_TRUE)


def test_pooled_groups_resolve_against_their_own_networks(pooled):
    nets, obs = pooled
    assert set(obs.statistics.groups) == {"d0", "d1"}
    assert all(net is not obs.network for net in nets.values())
    spec = core.UtilitySpec(np.array([-3.0, -0.2, -0.1, -0.4]))
    ll, grad, _ = nfxp.loglik_and_gradient(nets, spec, obs)
    ref_ll, ref_grad = _reference_nfxp(nets, spec, obs)
    assert ll == pytest.approx(ref_ll, rel=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-9)
    assert core.log_likelihood(nets, spec, obs) == pytest.approx(ref_ll, rel=1e-12)
    for key, group in builder.group_observations(obs).items():
        in_order = np.zeros(len(BETA_TRUE))
        for n in obs.groups[key]:
            in_order += obs.observations[n].attr_sum
        assert np.array_equal(group.attr_total, in_order)
        assert group.n_obs == len(obs.groups[key]) == 800


def test_hessian_of_a_three_destination_set():
    # each group adds its own visit-weighted covariance; -H / N is the
    # covariance of the path attribute totals, enumerated per group
    nets, obs = pooled_set((1, 2, 3), 200, BETA_TRUE)
    assert len(obs.statistics.groups) == 3
    beta = np.array([-3.0, -0.2, -0.1, -0.4])
    _, _, hess = nfxp.loglik_and_gradient(nets, core.UtilitySpec(beta), obs)
    np.testing.assert_allclose(hess, -len(obs) * path_information(nets, beta, obs), rtol=1e-9)
    np.testing.assert_allclose(hess, differenced_hessian(nets, beta, obs), rtol=0,
                               atol=1e-7 * np.max(np.abs(hess)))


def test_one_assembly_and_factorization_per_group(pooled, monkeypatch):
    """One NFXP evaluation assembles and factors each cyclic group's
    exp-space system once: the value Jacobian reuses the value solve's
    factor.  The DAG groups of ``pooled`` assemble and factor nothing."""
    calls = Counter()

    def counted(name, fn):
        def stand_in(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return stand_in

    monkeypatch.setattr(core, "_exp_space_system", counted("assemble", core._exp_space_system))
    monkeypatch.setattr(spla, "splu", counted("splu", spla.splu))
    nets, obs = pooled
    nfxp.loglik_and_gradient(nets, core.UtilitySpec(BETA_TRUE), obs)
    assert len(nets) == 2 and calls == {}
    beta = np.array([-8.0, -0.2, -0.1, -0.6])
    nets, members = {}, []
    for k, seed in enumerate((2274, 6769)):
        net = relabel(random_geometric_network(30, 0.3, seed=seed, acyclic=False), f"d{k}")
        nets[net.destination] = net
        members += generate_observations(net, core.UtilitySpec(beta), "o", 100,
                                         seed=k).observations
    obs = ObservationSet(nets["d0"], members)
    calls.clear()
    nfxp.loglik_and_gradient(nets, core.UtilitySpec(beta), obs)
    assert calls == {"assemble": 2, "splu": 2}


def test_pooled_ecp_matches_nfxp(pooled):
    nets, obs = pooled
    r_nfxp = nfxp.estimate_nfxp(nets, obs)
    r_ecp = builder.estimate_ecp(nets, obs)
    assert r_nfxp.converged and r_ecp.status == OPTIMAL
    assert obs._arc_counts is None  # only NRL counts arcs
    assert abs(r_nfxp.loglik_per_obs - r_ecp.loglik_per_obs) <= 1e-4
    assert np.max(np.abs(r_nfxp.beta_hat - r_ecp.beta_hat)) <= 1e-3


def _in_order_sum(observations, k):
    """Attribute total added up one observation at a time."""
    total = np.zeros(k)
    for ob in observations:
        total += ob.attr_sum
    return total


def _counter_arc_counts(net, obs):
    """Per-arc counts through a Counter of (from id, to id) pairs."""
    transitions = Counter(pair for ob in obs.observations for pair in zip(ob.path, ob.path[1:]))
    counts = np.zeros(net.n_arcs)
    for (u, v), n in transitions.items():
        counts[net.arc_id(u, v)] = n
    return counts


def test_attr_total_is_bitwise_the_in_order_sum(pooled):
    net = random_geometric_network(30, 0.3, seed=1)
    large = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 20_000, seed=7)
    for obs in (large, pooled[1]):
        for key, group in obs.statistics.groups.items():
            members = [ob for ob in obs.observations if ob.destination == key]
            assert group.attr_total.tobytes() == _in_order_sum(members, 4).tobytes()


def test_arc_counts_of_pooled_members_match_transition_counter(pooled):
    nets, obs = pooled
    for key, net in nets.items():
        members = ObservationSet(net, [ob for ob in obs.observations if ob.destination == key])
        np.testing.assert_array_equal(members.arc_counts(net), _counter_arc_counts(net, members))
    # the pooled set also holds the other network's paths
    with pytest.raises((UnknownState, UnknownArc)):
        obs.arc_counts(nets["d0"])


# --- generated small DAGs ----------------------------------------------------


def _reference_nrl(net, beta, mu, obs):
    """Nested log-likelihood and gradient, one observed transition at a time,
    with a dense adjoint solve."""
    values = nrl.solve_nrl_value(net, beta, mu)[0].values
    v = net.attrs @ beta
    m = mu.values
    loglik, dbeta = 0.0, np.zeros(len(beta))
    dlogmu, coef = np.zeros(net.n_states), np.zeros(net.n_states)
    for ob in obs.observations:
        for s_cur, s_nxt in zip(ob.path[:-1], ob.path[1:]):
            cur, nxt = net.state_index(s_cur), net.state_index(s_nxt)
            a = net.arc_id(s_cur, s_nxt)
            step = (v[a] + values[nxt] - values[cur]) / m[cur]
            loglik += step
            dbeta += net.attrs[a] / m[cur]
            dlogmu[cur] -= step
            coef[cur] -= 1.0 / m[cur]
            coef[nxt] += 1.0 / m[cur]
    d = net.destination_index
    coef[d] = 0.0
    keep = np.arange(net.n_states) != d
    p = np.zeros((net.n_states, net.n_states))
    w = v + values[net.arc_to]
    probs = np.exp((w - values[net.arc_from]) / m[net.arc_from])
    p[net.arc_from, net.arc_to] = probs
    lam = np.linalg.solve((np.eye(keep.sum()) - p[np.ix_(keep, keep)]).T, coef[keep])
    dt_beta = np.zeros((net.n_states, len(beta)))
    pw = np.zeros(net.n_states)
    for a in range(net.n_arcs):
        dt_beta[net.arc_from[a]] += probs[a] * net.attrs[a]
        pw[net.arc_from[a]] += probs[a] * w[a]
    dbeta += dt_beta[keep].T @ lam
    dlogmu[keep] += lam * (values - pw)[keep]
    dlogmu[d] = 0.0
    return loglik, dbeta, dlogmu, coef


@settings(max_examples=15, deadline=None)
@given(dag_samples())
def test_nfxp_statistics_match_per_path_loop(sample):
    net, obs, beta, _mu = sample
    spec = core.UtilitySpec(beta)
    nets = obs.net_by_group()
    ll, grad, _ = nfxp.loglik_and_gradient(nets, spec, obs)
    ref_ll, ref_grad = _reference_nfxp(nets, spec, obs)
    assert ll == pytest.approx(ref_ll, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-10)
    assert core.log_likelihood(nets, spec, obs) == pytest.approx(ref_ll, rel=1e-12, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(dag_samples())
def test_adjoint_gradient_from_every_origin_matches_forward_jacobian(sample):
    # the visit-flow (adjoint) gradient takes one transposed solve for all
    # origins; the oracle differentiates V forward, one column per attribute
    net, _obs, beta, _mu = sample
    spec = core.UtilitySpec(beta)
    obs = generate_observations(net, spec, list(net.states[:-1]), 60, seed=5)
    assert len(obs.statistics.groups[net.destination].origin_counts) == net.n_states - 1
    ll, grad, _ = nfxp.loglik_and_gradient(obs.net_by_group(), spec, obs)
    ref_ll, ref_grad = _reference_nfxp(obs.net_by_group(), spec, obs)
    assert ll == pytest.approx(ref_ll, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(dag_samples())
def test_value_jacobian_matches_forward_oracle(sample):
    net, _obs, beta, _mu = sample
    spec = core.UtilitySpec(beta)
    vf, _ = core.solve_value_linear(net, spec)
    jac = core.value_jacobian(net, vf, core.choice_probabilities(net, spec, vf))
    np.testing.assert_allclose(jac, _value_jacobian(net, spec, vf.values), rtol=1e-10, atol=1e-12)


def test_value_jacobian_on_a_cyclic_network():
    # the exp-space factor, a Newton factor of I - P and a fresh one give
    # the dense forward oracle's Jacobian
    net = random_geometric_network(30, 0.3, seed=2274, acyclic=False)
    spec = core.UtilitySpec(np.array([-8.0, -0.2, -0.1, -0.6]))
    linear, _ = core.solve_value_linear(net, spec)
    newton, _ = core.solve_value_iteration(net, spec)
    assert linear.z is not None and newton.factor is not None
    probs = core.choice_probabilities(net, spec, linear)
    ref = _value_jacobian(net, spec, linear.values)
    for vf in (linear, newton, core.ValueField(linear.values)):
        np.testing.assert_allclose(core.value_jacobian(net, vf, probs), ref, rtol=1e-9, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(dag_samples())
def test_nrl_statistics_match_per_transition_loop(sample):
    net, obs, beta, mu = sample
    ref_ll, ref_dbeta, ref_dlogmu, ref_coef = _reference_nrl(net, beta, mu, obs)
    ll, dbeta, dlogmu = nrl.nrl_loglik_and_gradient(net, beta, mu, obs)
    assert ll == pytest.approx(ref_ll, rel=1e-12, abs=1e-12)
    assert nrl.nrl_log_likelihood(net, beta, mu, obs) == pytest.approx(ref_ll, rel=1e-12,
                                                                       abs=1e-12)
    np.testing.assert_allclose(dbeta, ref_dbeta, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(dlogmu, ref_dlogmu, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(objective_coefficients(obs, mu), ref_coef,
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(dag_samples())
def test_builder_attr_total_is_in_order_sum(sample):
    net, obs, _beta, _mu = sample
    in_order = np.zeros(net.n_attributes)
    for ob in obs.observations:
        in_order += ob.attr_sum
    group = builder.group_observations(obs)[net.destination]
    assert np.array_equal(group.attr_total, in_order)
    assert group.n_obs == len(obs)
    counts = {}
    for ob in obs.observations:
        counts[ob.origin] = counts.get(ob.origin, 0) + 1
    assert list(group.origin_counts.items()) == list(counts.items())


@settings(max_examples=15, deadline=None)
@given(dag_samples())
def test_arc_counts_match_transition_counter(sample):
    net, obs, _beta, _mu = sample
    np.testing.assert_array_equal(obs.arc_counts(net), _counter_arc_counts(net, obs))
