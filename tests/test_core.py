"""Value-function solving, choice probabilities and likelihood oracles.

Closed forms used here:
* deterministic chain: V(o) = total remaining cost * beta;
* two-loop cyclic network with exp-utility 0.4 per cycle arc:
  z(s0) = 0.8 / 0.68, so V(s0) = log(0.8 / 0.68);
* the opposed-loop family with utilities +t / -t has loop mass
  e^{2t} + e^{-2t} >= 2 and therefore no positive solution for any t.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings, strategies as st
from scipy.special import logsumexp

from rlogit import core, nfxp, nrl, trim
from rlogit.errors import (
    DisconnectedInstance,
    EmptySuccessorSet,
    InvalidPath,
    UnsolvedValueField,
    ValueSolveFailed,
)
from rlogit.generators import (bic_dag, layered_dag_from_undirected, muc_dag,
                               random_geometric_network)
from rlogit.network import build_network, enumerate_paths, network_from_arrays
from rlogit.simulate import ObservationSet, generate_observations, make_observation

from conftest import cyclic_geometric_networks, dag_samples, make_infeasible_net

CYCLE_V_S0 = math.log(0.8 / 0.68)


def spec(*beta, mu=1.0):
    return core.UtilitySpec(np.asarray(beta, dtype=float), mu)


def test_utility_spec_validation():
    with pytest.raises(ValueError):
        core.UtilitySpec(np.array([np.nan]))
    with pytest.raises(ValueError):
        core.UtilitySpec(np.array([1.0]), mu=0.0)


def test_arc_utility(chain_net):
    s = spec(-2.0)
    assert core.utility(chain_net, s, ("a", "b")) == pytest.approx(-4.0)
    assert core.utility(chain_net, s, 0) == pytest.approx(-2.0)


def test_chain_values_linear(chain_net):
    s = spec(-1.0)
    vf, rep = core.solve_value_linear(chain_net, s)
    assert rep.status == core.SOLVED
    # deterministic chain: value is the remaining cost-to-go
    assert vf[chain_net.state_index("b")] == pytest.approx(-3.0)
    assert vf[chain_net.state_index("a")] == pytest.approx(-5.0)
    assert vf[chain_net.state_index("o")] == pytest.approx(-6.0)
    assert vf[chain_net.destination_index] == 0.0


def test_two_route_logsumexp(two_route_net):
    s = spec(-1.0)
    vf, rep = core.solve_value_linear(two_route_net, s)
    assert rep.status == core.SOLVED
    # two equal two-hop routes: V(o) = log(2 e^{-2}) = log 2 - 2
    assert vf[two_route_net.state_index("o")] == pytest.approx(math.log(2) - 2)


def test_bellman_residual_at_solution(two_route_net):
    s = spec(-0.7)
    vf, _ = core.solve_value_linear(two_route_net, s)
    assert core.bellman_residual(two_route_net, s, vf.values) < 1e-12


def test_cycle_closed_form(cycle_net):
    s = spec(1.0)
    vf, rep = core.solve_value_linear(cycle_net, s)
    assert rep.status == core.SOLVED
    assert vf[cycle_net.state_index("s0")] == pytest.approx(CYCLE_V_S0, abs=1e-12)


def test_cycle_value_iteration_agrees(cycle_net):
    s = spec(1.0)
    vf, rep = core.solve_value_iteration(cycle_net, s, tol=1e-12)
    assert rep.status == core.SOLVED
    assert vf[cycle_net.state_index("s0")] == pytest.approx(CYCLE_V_S0, abs=1e-8)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_opposed_loops_have_no_solution(t):
    net = make_infeasible_net(t)
    s = spec(1.0)
    _, rep = core.solve_value_linear(net, s)
    assert rep.status == core.SINGULAR
    _, rep_it = core.solve_value_iteration(net, s)
    assert rep_it.status == core.DIVERGED and rep_it.iterations <= 10


def test_value_iteration_on_dag_matches_linear():
    net = random_geometric_network(30, 0.3, seed=2)
    s = spec(-4.0, -0.1, -0.05, -0.3)
    vf_lin, rep_lin = core.solve_value_linear(net, s)
    vf_it, rep_it = core.solve_value_iteration(net, s, tol=1e-12)
    assert rep_lin.status == rep_it.status == core.SOLVED
    np.testing.assert_allclose(vf_lin.values, vf_it.values, atol=1e-9)


def test_linear_solve_on_a_large_dag_is_not_singular():
    # 843 states with V up to 30.8: the level pass has Bellman residual 0,
    # and it agrees with the exp-space factorization, whose log z carries a
    # residual of 1.6e-10; the sampler built on it succeeds
    net = random_geometric_network(300, 0.11, seed=1)
    s = spec(-4.0, -0.1, -0.05, -0.3)
    vf_lin, rep_lin = core.solve_value_linear(net, s)
    exp_space, rep_exp = core._solve_exp_space(net, s)
    assert net.n_states == 843 and net.acyclic
    assert rep_lin.status == rep_exp.status == core.SOLVED and rep_lin.residual == 0.0
    np.testing.assert_allclose(vf_lin.values, exp_space.values, rtol=0, atol=1e-9)
    assert len(generate_observations(net, s, "o", 50, seed=7)) == 50


def test_relative_residual_rule_on_a_large_cyclic_network():
    # the 843-state DAG with one costly arc back along one of its arcs: on
    # this cyclic network the exp-space solve answers, and its log z carries
    # a Bellman residual of 1.6e-10, above LINEAR_RESIDUAL_TOL in absolute
    # terms but not relative to ||V||_inf = 30.8
    dag = random_geometric_network(300, 0.11, seed=1)
    head, tail = dag.arc_from[50], dag.arc_to[50]
    net = network_from_arrays(dag.states, dag.destination, np.append(dag.arc_from, tail),
                              np.append(dag.arc_to, head), np.vstack([dag.attrs, [12.5, 0, 0, 0]]),
                              dag.attribute_names)
    s = spec(-4.0, -0.1, -0.05, -0.3)
    vf_lin, rep_lin = core.solve_value_linear(net, s)
    vf_it, rep_it = core.solve_value_iteration(net, s)
    assert not net.acyclic and vf_lin.z is not None
    assert rep_lin.status == rep_it.status == core.SOLVED
    assert core.LINEAR_RESIDUAL_TOL < rep_lin.residual <= core.LINEAR_RESIDUAL_TOL * 30.8
    np.testing.assert_allclose(vf_lin.values, vf_it.values, rtol=0, atol=1e-9)


BETA_CYCLIC = np.array([-8.0, -0.2, -0.1, -0.6])


def _swept(apply, n_states, sweeps=3000):
    """Plain value iteration: ``sweeps`` applications of ``apply`` from V = 0."""
    values = np.zeros(n_states)
    for _ in range(sweeps):
        values = apply(values)
    return values


def test_newton_value_solve_on_a_slowly_contracting_instance():
    # criterion-06 instance 3680 (146 states): P's spectral radius is about
    # 0.986, and sweeps alone change by less than 1e-10 only after 1,418
    # iterations, still 6.9e-9 away from the fixed point
    net = random_geometric_network(30, 0.3, seed=3680, acyclic=False)
    s = core.UtilitySpec(BETA_CYCLIC)
    vf, rep = core.solve_value_iteration(net, s)
    assert rep.status == core.SOLVED and rep.iterations <= 30
    assert vf.factor is not None  # it ended on a Newton step
    assert core.bellman_residual(net, s, vf.values) <= 1e-10
    ref = _swept(lambda values: core.bellman_apply(net, s, values), net.n_states)
    np.testing.assert_allclose(vf.values, ref, rtol=0, atol=1e-12)


def test_newton_value_solve_with_per_state_scales():
    net = random_geometric_network(30, 0.3, seed=3680, acyclic=False)
    mu = nrl.ScaleField(np.exp(np.random.default_rng(1).uniform(-0.4, 0.0, net.n_states)))
    vf, rep = nrl.solve_nrl_value(net, BETA_CYCLIC, mu)
    assert rep.status == core.SOLVED and vf.factor is not None
    ref = _swept(lambda values: nrl.nrl_bellman_apply(net, BETA_CYCLIC, mu, values),
                 net.n_states)
    np.testing.assert_allclose(vf.values, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("nodes, radius, seed, beta", [
    (300, 0.11, 1, (-120.0, -0.2, -0.1, -0.6)),
    (300, 0.11, 1, (-200.0, -0.2, -0.1, -0.6)),
    *[(30, 0.3, seed, beta) for seed in (29, 2274, 6769, 3680)
      for beta in ((-80.0, -0.2, -0.1, -0.6), (-400.0, -2.0, -1.0, -6.0))],
])
def test_newton_solves_cyclic_networks_at_steep_beta(nodes, radius, seed, beta):
    # the 3,048-state network and criterion-06 instances, where five sweeps
    # from V = 0 and an unguarded first step reported Diverged, and where
    # Newton from V = 0 fails on five of the eight small cases: from the
    # uniform policy's value, a sub-solution, every step is taken
    net = random_geometric_network(nodes, radius, seed=seed, acyclic=False)
    s = spec(*beta)
    linear, rep_lin = core.solve_value_linear(net, s)
    vf, rep = core.solve_value_iteration(net, s)
    assert rep_lin.status == rep.status == core.SOLVED and vf.factor is not None
    assert rep.iterations <= 20
    np.testing.assert_allclose(vf.values, linear.values, rtol=0, atol=1e-9)


def test_linear_solve_falls_back_to_newton_at_a_very_steep_travel_time():
    # e^V underflows on the 3,048-state network at beta_TT = -1000: the
    # exp-space solve fails and the Newton loop answers
    net = random_geometric_network(300, 0.11, seed=1, acyclic=False)
    s = spec(-1000.0, -0.2, -0.1, -0.6)
    assert core._solve_exp_space(net, s)[1].status == core.SINGULAR
    vf, rep = core.solve_value_linear(net, s)
    assert rep.status == vf.status == core.SOLVED and vf.z is None
    assert rep.residual <= 1e-14 * np.max(np.abs(vf.values))


@pytest.mark.parametrize("seed", [2274, 6769, 3680])
@pytest.mark.parametrize("scales", ["unit", "per-state"])
def test_newton_iterates_rise_as_sub_solutions(seed, scales):
    # capped at k steps, the loop returns values that never fall in k, and
    # each is a sub-solution V <= T[V], both up to rounding relative to |V|
    net = random_geometric_network(30, 0.3, seed=seed, acyclic=False)
    v = core.arc_utilities(net, core.UtilitySpec(BETA_CYCLIC))
    mu = (np.ones(net.n_states) if scales == "unit"
          else np.exp(np.random.default_rng(1).uniform(-0.4, 0.0, net.n_states)))
    previous, status, k = None, core.MAX_ITERATIONS, 0
    while status == core.MAX_ITERATIONS:
        k += 1
        vf, rep = core.iterate_values(net, v, mu, max_iter=k)
        status, values = rep.status, vf.values
        assert status in (core.MAX_ITERATIONS, core.SOLVED) and k <= 30
        slack = 1e-12 * max(1.0, float(np.max(np.abs(values))))
        assert np.all(values <= core.scaled_bellman(net, v, mu, values)[0] + slack)
        if previous is not None:
            assert np.all(values >= previous - slack)
        previous = values
    assert rep.iterations == k


def test_acyclic_networks_end_in_sweeps():
    # on a DAG the level pass reaches the fixed point exactly
    net = random_geometric_network(30, 0.3, seed=2)
    assert net.acyclic and not random_geometric_network(30, 0.3, seed=3680, acyclic=False).acyclic
    vf, rep = core.solve_value_iteration(net, spec(-4.0, -0.1, -0.05, -0.3))
    assert rep.status == core.SOLVED and vf.factor is None
    assert rep.residual == 0.0


def _dense_visits(net, probs, weights):
    """F = w + P'F on every state, by a dense solve."""
    p = np.zeros((net.n_states, net.n_states))
    np.add.at(p, (net.arc_from, net.arc_to), probs)
    return np.linalg.solve(np.eye(net.n_states) - p.T, weights)


@st.composite
def _generated_dags(draw):
    """(DAG, per-arc utilities, per-state scales): a random geometric DAG,
    a composite-choice DAG or the layered DAG of a cyclic network, at unit
    or per-state scales."""
    kind = draw(st.sampled_from(["geometric", "bic", "muc", "layered"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "geometric":
        try:
            net = random_geometric_network(draw(st.integers(10, 60)), 0.3,
                                           seed=draw(st.integers(0, 500)))
        except DisconnectedInstance:
            assume(False)
        beta = BETA_DAG * draw(st.sampled_from([0.5, 1.0, 50.0]))
    elif kind == "layered":
        base = random_geometric_network(30, 0.3, seed=draw(st.sampled_from([2274, 6769])),
                                        acyclic=False)
        net, beta = layered_dag_from_undirected(base, "o"), BETA_CYCLIC
    else:
        m = draw(st.integers(1, 7))
        low = draw(st.integers(0, m))
        up = draw(st.integers(low, m))
        net = (bic_dag if kind == "bic" else muc_dag)(m, low, up, rng.uniform(-2, 2, (m, 1)))
        beta = np.array([-1.0])
    mu = np.ones(net.n_states) if draw(st.booleans()) else rng.uniform(0.5, 1.5, net.n_states)
    return net, core.arc_utilities(net, core.UtilitySpec(beta)), mu


@settings(max_examples=40, deadline=None)
@given(_generated_dags())
def test_level_passes_on_generated_dags(case):
    # V is the fixed point to the bit; J and F equal dense solves
    net, v, mu = case
    vf, rep = core.iterate_values(net, v, mu)
    assert net.acyclic and rep.status == core.SOLVED and vf.factor is None
    assert rep.residual == 0.0 and rep.iterations == len(net.levels)
    _, e, sums = core.scaled_bellman(net, v, mu, vf.values)
    probs = core._probabilities(net, e, sums)
    weights = np.random.default_rng(2).uniform(0.0, 3.0, net.n_states)
    np.testing.assert_allclose(core.visit_flows(net, vf, probs, weights),
                               _dense_visits(net, probs, weights), rtol=1e-10, atol=1e-12)
    p = np.zeros((net.n_states, net.n_states))
    np.add.at(p, (net.arc_from, net.arc_to), probs)
    rhs = core.tail_sums(net, probs[:, None] * net.attrs)
    np.testing.assert_allclose(core.value_jacobian(net, vf, probs),
                               np.linalg.solve(np.eye(net.n_states) - p, rhs),
                               rtol=1e-10, atol=1e-12)


def test_visit_flows_agree_on_every_factor():
    # the exp-space factor of I - M, the Newton factor of I - P and a fresh
    # factor of I - P give the same visits as a dense solve
    net = random_geometric_network(30, 0.3, seed=3680, acyclic=False)
    s = core.UtilitySpec(BETA_CYCLIC)
    weights = np.random.default_rng(2).uniform(0.0, 3.0, net.n_states)
    linear, _ = core.solve_value_linear(net, s)
    newton, _ = core.solve_value_iteration(net, s)
    assert linear.z is not None and newton.factor is not None and newton.z is None
    swept = core.ValueField(newton.values)
    probs = core.choice_probabilities(net, s, linear)
    ref = _dense_visits(net, probs, weights)
    for vf in (linear, newton, swept):
        np.testing.assert_allclose(core.visit_flows(net, vf, probs, weights), ref,
                                   rtol=1e-10, atol=0)


def _count_factorizations(monkeypatch):
    """The list that every splu and spsolve call appends its name to."""
    calls = []

    def counted(name, fn):
        def stand_in(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return stand_in

    monkeypatch.setattr(spla, "splu", counted("splu", spla.splu))
    monkeypatch.setattr(spla, "spsolve", counted("spsolve", spla.spsolve))
    return calls


def test_visit_flows_reuse_the_value_factor(monkeypatch):
    # on a cyclic network, flows and the NFXP gradient factor nothing beyond
    # the exp-space value solve: one splu per destination group, no spsolve
    calls = _count_factorizations(monkeypatch)
    net = random_geometric_network(30, 0.3, seed=2274, acyclic=False)
    s = core.UtilitySpec(BETA_CYCLIC)
    trim.flow_vector(net, s.beta, "o")
    assert calls == ["splu"]
    obs = generate_observations(net, s, ["o", net.states[3]], 100, seed=1)
    del calls[:]
    nfxp.loglik_and_gradient(obs.net_by_group(), s, obs)
    assert calls == ["splu"]


def test_nothing_is_factored_on_a_dag(monkeypatch):
    # values, flows, the NFXP gradient and Hessian and the NRL adjoint come
    # from level passes
    calls = _count_factorizations(monkeypatch)
    net = random_geometric_network(20, 0.35, seed=2)
    s = spec(-4.0, -0.1, -0.05, -0.3)
    trim.flow_vector(net, np.full(net.n_attributes, -1.0), "o")
    obs = generate_observations(net, s, ["o", net.states[3]], 100, seed=1)
    nfxp.loglik_and_gradient(obs.net_by_group(), s, obs)
    mu = nrl.ScaleField(np.exp(np.random.default_rng(1).uniform(-0.4, 0.0, net.n_states)))
    nrl.nrl_loglik_and_gradient(net, s.beta, mu, obs)
    assert calls == [] and "free_pattern" not in net.__dict__


def test_dag_value_equals_path_logsumexp():
    net = bic_dag(5, 0, 3, np.linspace(-1, 1, 5).reshape(5, 1))
    s = spec(-0.5)
    vf, rep = core.solve_value_linear(net, s)
    assert rep.status == core.SOLVED
    # on a DAG the origin value is log sum over paths of exp(path utility)
    path_utils = []
    for p in enumerate_paths(net, "n0_0"):
        arcs = [net.arc_id(u, v) for u, v in zip(p[:-1], p[1:])]
        path_utils.append(core.arc_utilities(net, s)[arcs].sum())
    assert vf[net.state_index("n0_0")] == pytest.approx(logsumexp(path_utils))


BETA_DAG = np.array([-4.0, -0.1, -0.05, -0.3])


def test_linear_solve_on_a_dag_where_exp_values_underflow():
    # e^V(o) = e^-800 underflows to 0, where the exp-space solve fails; the
    # level pass reaches V exactly
    net = build_network(["o", "a", "d"], "d",
                        [("o", "a", [1.0]), ("a", "d", [1.0]), ("o", "d", [2.5])], ["cost"])
    vf, rep = core.solve_value_linear(net, spec(-400.0))
    assert rep.status == vf.status == core.SOLVED
    np.testing.assert_array_equal(vf.values, [-800.0, -400.0, 0.0])


def test_linear_solve_on_a_cycle_where_exp_values_underflow():
    # e^V(a) = e^-800 underflows to 0, so the exp-space solve fails, and
    # rho(M) > 1 is not proved: the Newton steps answer, exactly
    net = build_network(["o", "a", "b", "d"], "d",
                        [("o", "a", [1.0]), ("a", "b", [1.0]), ("b", "a", [1.0]),
                         ("b", "d", [1.0])], ["cost"])
    s = spec(-400.0)
    assert core._solve_exp_space(net, s)[1].status == core.SINGULAR
    assert not core._spectral_radius_above_one(net, s)
    vf, rep = core.solve_value_linear(net, s)
    assert rep.status == vf.status == core.SOLVED
    np.testing.assert_array_equal(vf.values, [-1200.0, -800.0, -400.0, 0.0])


def test_linear_solve_where_exp_values_are_subnormal():
    # e^V(o) = e^-720 is subnormal: log z would carry its rounding, so on
    # this cyclic network the Newton steps answer instead
    net = build_network(["o", "a", "d"], "d",
                        [("o", "a", [1.0]), ("a", "d", [1.0]), ("o", "d", [2.5]),
                         ("a", "o", [1.0])], ["cost"])
    s = spec(-360.0)
    exp_space, _ = core._solve_exp_space(net, s)
    assert not net.acyclic and 0 < exp_space.z.min() < np.finfo(float).tiny
    vf, rep = core.solve_value_linear(net, s)
    swept, _ = core.solve_value_iteration(net, s)
    assert rep.status == core.SOLVED and vf.z is None
    np.testing.assert_array_equal(vf.values, swept.values)


def test_spectral_radius_test_agrees_with_the_factorized_solve():
    # the cyclic networks criterion 06's search draws first, at its beta and
    # at one more: every network the test rejects, the factorization rejects
    betas = [BETA_CYCLIC, np.array([-10.0, -0.4, -0.2, -1.0])]
    caught, rejected = np.zeros(2), np.zeros(2)
    for nodes, radius in ((20, 0.35), (30, 0.3)):
        for seed in range(10, 210):
            try:
                net = random_geometric_network(nodes, radius, seed=seed, acyclic=False)
            except DisconnectedInstance:
                continue
            for k, s in enumerate(map(core.UtilitySpec, betas)):
                status = core.solve_value_linear(net, s)[1].status
                assert status == core._solve_exp_space(net, s)[1].status
                caught[k] += core._spectral_radius_above_one(net, s)
                rejected[k] += status == core.SINGULAR
    assert np.all(rejected > 100) and np.all(caught > 0.8 * rejected)


def _two_cycle(u):
    """s <-> t with utility u each way and exits to d: M = [[0, e^u], [e^u, 0]]
    and rho(M) = e^u."""
    return build_network(["s", "t", "d"], "d",
                         [("s", "t", [u]), ("t", "s", [u]), ("s", "d", [0.0]), ("t", "d", [0.0])],
                         ["u"])


def test_spectral_radius_test_rejects_before_the_factorization(monkeypatch):
    factorizations = []

    def counted(*args, **kwargs):
        factorizations.append(args)
        return splu(*args, **kwargs)

    splu = spla.splu
    monkeypatch.setattr(spla, "splu", counted)
    net = _two_cycle(0.1)
    vf, rep = core.solve_value_linear(net, spec(1.0))
    assert rep.status == vf.status == core.SINGULAR and factorizations == []
    assert "free_pattern" not in net.__dict__
    net = _two_cycle(-0.1)
    vf, rep = core.solve_value_linear(net, spec(1.0))
    # z = 1 + e^u z at both states
    assert rep.status == core.SOLVED and len(factorizations) == 1
    np.testing.assert_allclose(vf.values[:2], -math.log(1 - math.exp(-0.1)), rtol=1e-14)


@pytest.mark.parametrize("nodes, radius, seed", [
    (80, 0.18, 1), (80, 0.18, 4), (50, 0.22, 2), (50, 0.22, 4), (50, 0.22, 5)])
def test_linear_solve_on_dags_at_a_large_beta(nodes, radius, seed):
    # at 200 times the simulation coefficients e^V underflows at most states
    net = random_geometric_network(nodes, radius, seed=seed)
    s = core.UtilitySpec(200 * BETA_DAG)
    vf, rep = core.solve_value_linear(net, s)
    assert net.acyclic and rep.status == core.SOLVED
    assert np.all(np.isfinite(vf.values))
    assert core.bellman_residual(net, s, vf.values) <= 1e-9 * np.max(np.abs(vf.values))


def test_nfxp_on_a_dag_where_the_exp_space_solve_is_inaccurate():
    # 3,410 states: the exp-space factorization leaves a Bellman residual of
    # 5.3e-3 at BETA_DAG and 4.9e-7 at the default start; the level pass
    # solves both exactly
    net = random_geometric_network(500, 0.11, seed=1)
    s = core.UtilitySpec(BETA_DAG)
    vf, rep = core.solve_value_linear(net, s)
    assert net.n_states == 3410 and net.acyclic and rep.status == core.SOLVED
    assert core._solve_exp_space(net, s)[1].status == core.SINGULAR
    obs = generate_observations(net, s, "o", 3000, seed=7)
    assert len(obs) == 3000
    res = nfxp.estimate_nfxp(obs.net_by_group(), obs)
    assert res.converged and res.iterations == 5
    np.testing.assert_allclose(res.beta_hat, BETA_DAG, atol=0.5)


def test_empty_successor_set_rejected():
    net = build_network(["a", "b", "d"], "d", [("a", "d", [1.0]), ("a", "b", [1.0])])
    with pytest.raises(EmptySuccessorSet, match="'b'"):
        core.solve_value_linear(net, spec(0.0))


def test_choice_probabilities_normalize(two_route_net):
    s = spec(-1.0)
    vf, _ = core.solve_value_linear(two_route_net, s)
    p = core.choice_probabilities(two_route_net, s, vf)
    assert p[two_route_net.arc_id("o", "a")] == pytest.approx(0.5)
    assert p[two_route_net.arc_id("o", "b")] == pytest.approx(0.5)
    for st in two_route_net.states:
        if st == "d":
            continue
        row = p[two_route_net.out_arcs(two_route_net.state_index(st))]
        assert row.sum() == pytest.approx(1.0)


def _softmax_per_state(net, s, vf):
    """Choice probabilities by one softmax per state over its out-arcs."""
    v = core.arc_utilities(net, s)
    p = np.zeros(net.n_arcs)
    for i in range(net.n_states):
        a = np.flatnonzero(net.arc_from == i)
        if len(a) == 0:
            continue
        w = (v[a] + vf.values[net.arc_to[a]]) / s.mu
        w -= w.max()
        e = np.exp(w)
        p[a] = e / e.sum()
    return p


@settings(max_examples=25, deadline=None)
@given(st.one_of(
    dag_samples().map(lambda sample: (sample[0], sample[2])),
    cyclic_geometric_networks().map(lambda net: (net, np.array([-8.0, -0.2, -0.1, -0.6]))),
))
def test_choice_probabilities_match_per_state_softmax(case):
    # the segment sums round differently from ndarray.sum, by about one ulp
    net, beta = case
    s = core.UtilitySpec(beta)
    vf, rep = core.solve_value_linear(net, s)
    assume(rep.status == core.SOLVED)
    p = core.choice_probabilities(net, s, vf)
    np.testing.assert_allclose(p, _softmax_per_state(net, s, vf), rtol=1e-15, atol=0)
    row_sums = np.bincount(net.arc_from, p, net.n_states)
    np.testing.assert_allclose(np.delete(row_sums, net.destination_index), 1.0, rtol=1e-15)


def test_choice_probabilities_require_solved(two_route_net):
    bad = core.ValueField(np.zeros(4), status=core.SINGULAR)
    with pytest.raises(UnsolvedValueField):
        core.choice_probabilities(two_route_net, spec(-1.0), bad)


def test_path_log_prob(two_route_net, chain_net):
    s = spec(-1.0)
    vf, _ = core.solve_value_linear(two_route_net, s)
    assert core.path_log_prob(two_route_net, s, vf, ["o", "a", "d"]) == pytest.approx(
        math.log(0.5)
    )
    vf_c, _ = core.solve_value_linear(chain_net, s)
    assert core.path_log_prob(chain_net, s, vf_c, ["o", "a", "b", "d"]) == pytest.approx(0.0)


def test_path_probabilities_sum_to_one_on_dag():
    net = bic_dag(4, 1, 3, np.array([[0.3], [-0.2], [0.8], [0.1]]))
    s = spec(1.0)
    vf, _ = core.solve_value_linear(net, s)
    total = sum(
        math.exp(core.path_log_prob(net, s, vf, p)) for p in enumerate_paths(net, "n0_0")
    )
    assert total == pytest.approx(1.0)


def test_path_log_prob_matches_stepwise_product(cycle_net):
    s = spec(1.0)
    vf, _ = core.solve_value_linear(cycle_net, s)
    p = core.choice_probabilities(cycle_net, s, vf)
    path = ["s0", "s1", "s0", "s2", "d"]
    stepwise = sum(
        math.log(p[cycle_net.arc_id(u, v)]) for u, v in zip(path[:-1], path[1:])
    )
    assert core.path_log_prob(cycle_net, s, vf, path) == pytest.approx(stepwise)


def test_invalid_paths_rejected(chain_net):
    with pytest.raises(InvalidPath):
        core.validate_path(chain_net, ["o", "b", "d"])
    with pytest.raises(InvalidPath):
        core.validate_path(chain_net, ["o", "a", "b"])
    with pytest.raises(InvalidPath):
        core.validate_path(chain_net, ["d"])


def test_exp_space_system_matches_per_arc_assembly():
    # I - M is filled into the network's cached pattern; it must equal, in
    # values and in CSC structure, the identity minus M assembled from COO,
    # so that splu sees the same matrix
    nets = [random_geometric_network(15, 0.4, seed=1),
            random_geometric_network(12, 0.5, seed=3, acyclic=False)]
    for net in nets:
        spec = core.UtilitySpec(np.full(net.n_attributes, -0.7))
        system, b, rows = core._exp_space_system(net, spec)
        row_of = {s: r for r, s in enumerate(rows)}
        dense, ref_b = np.zeros(system.shape), np.zeros(len(rows))
        for a, ev in enumerate(np.exp(core.arc_utilities(net, spec))):
            i, j = int(net.arc_from[a]), int(net.arc_to[a])
            if j == net.destination_index:
                ref_b[row_of[i]] += ev
            else:
                dense[row_of[i], row_of[j]] = ev
        assert rows.tolist() == [i for i in range(net.n_states) if i != net.destination_index]
        ref = sp.identity(len(rows), format="csc") - sp.csc_matrix(dense)
        assert np.array_equal(system.toarray(), ref.toarray()) and np.array_equal(b, ref_b)
        assert np.array_equal(system.indptr, ref.indptr)
        assert np.array_equal(system.indices, ref.indices)
        assert np.array_equal(system.data, ref.data)


def test_log_likelihood_sums_path_log_probs(two_route_net):
    s = spec(-1.3)
    vf, _ = core.solve_value_linear(two_route_net, s)
    paths = [["o", "a", "d"], ["o", "b", "d"], ["o", "a", "d"]]
    obs = ObservationSet(
        two_route_net, [make_observation(two_route_net, p) for p in paths]
    )
    expected = sum(core.path_log_prob(two_route_net, s, vf, p) for p in paths)
    assert core.log_likelihood(obs.net_by_group(), s, obs) == pytest.approx(expected)


def test_log_likelihood_raises_on_unsolvable_group():
    net = make_infeasible_net(0.5)
    obs = ObservationSet(net, [make_observation(net, ["s0", "s1", "d"])])
    with pytest.raises(ValueSolveFailed):
        core.log_likelihood(obs.net_by_group(), spec(1.0), obs)


def test_mu_scaling(two_route_net):
    # halving mu doubles log-probabilities' spread; equal routes stay at 0.5
    s = spec(-1.0, mu=0.5)
    vf, rep = core.solve_value_iteration(two_route_net, s, tol=1e-12)
    assert rep.status == core.SOLVED
    p = core.choice_probabilities(two_route_net, s, vf)
    assert p[two_route_net.arc_id("o", "a")] == pytest.approx(0.5)
    assert vf[two_route_net.state_index("o")] == pytest.approx(
        0.5 * math.log(2 * math.exp(-2 / 0.5))
    )


def _assert_monotone(net, beta, data):
    """V <= W componentwise implies T V <= T W componentwise."""
    n = net.n_states
    values = np.array(data.draw(st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n)))
    raise_by = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
                                           min_size=n, max_size=n)))
    s = core.UtilitySpec(beta)
    lower = core.bellman_apply(net, s, values)
    upper = core.bellman_apply(net, s, values + raise_by)
    assert np.all(lower <= upper + 1e-12 * (1.0 + np.abs(upper)))


@settings(max_examples=40, deadline=None)
@given(dag_samples(), st.data())
def test_bellman_operator_monotone_on_generated_dags(sample, data):
    net, _obs, beta, _mu = sample
    _assert_monotone(net, beta, data)


@settings(max_examples=25, deadline=None)
@given(cyclic_geometric_networks(), st.data())
def test_bellman_operator_monotone_on_cyclic_networks(net, data):
    _assert_monotone(net, np.array([-8.0, -0.2, -0.1, -0.6]), data)
