"""Flow vectors, threshold trimming, and the connectivity guarantee."""

import numpy as np
import pytest
from hypothesis import assume, given, settings

from rlogit import core, nfxp, trim
from rlogit.errors import NoFeasibleReference, OriginTrimmed
from rlogit.generators import random_geometric_network
from rlogit.network import build_network, reachable_from
from rlogit.simulate import generate_observations

from conftest import cyclic_geometric_networks, dag_samples, make_infeasible_net

BETA_TRUE = np.array([-4.0, -0.1, -0.05, -0.3])


def test_chain_flow_is_all_ones(chain_net):
    flow = trim.flow_vector(chain_net, np.array([-1.0]), "o")
    np.testing.assert_allclose(flow.values, np.ones(4), atol=1e-12)


def test_symmetric_branch_splits_half(two_route_net):
    flow = trim.flow_vector(two_route_net, np.array([-1.0]), "o")
    net = two_route_net
    assert flow[net.state_index("o")] == pytest.approx(1.0, abs=1e-12)
    assert flow[net.state_index("a")] == pytest.approx(0.5, abs=1e-12)
    assert flow[net.state_index("b")] == pytest.approx(0.5, abs=1e-12)
    assert flow[net.state_index("d")] == pytest.approx(1.0, abs=1e-12)


def test_flow_matches_monte_carlo_visits():
    net = random_geometric_network(15, 0.4, seed=1)
    beta0 = np.full(net.n_attributes, -1.0)
    flow = trim.flow_vector(net, beta0, "o")
    n = 100_000
    obs = generate_observations(net, core.UtilitySpec(beta0), "o", n, seed=9)
    visits = np.zeros(net.n_states)
    for ob in obs.observations:
        for s in ob.path:
            visits[net.state_index(s)] += 1
    assert np.max(np.abs(visits / n - flow.values)) <= 0.01


def test_flow_conservation():
    net = random_geometric_network(20, 0.35, seed=2)
    beta0 = np.full(net.n_attributes, -1.0)
    spec = core.UtilitySpec(beta0)
    flow = trim.flow_vector(net, beta0, "o")
    vf, _ = core.solve_value_linear(net, spec)
    probs = core.choice_probabilities(net, spec, vf)
    inflow = np.zeros(net.n_states)
    np.add.at(inflow, net.arc_to, flow.values[net.arc_from] * probs)
    o = net.state_index("o")
    for s in range(net.n_states):
        if s == o:
            continue
        assert abs(flow.values[s] - inflow[s]) <= 1e-8


def _assert_flow_balance(net, beta, origin):
    """F = e_origin + P'F at every state, to 1e-8."""
    spec = core.UtilitySpec(beta)
    vf, report = core.solve_value_linear(net, spec)
    assume(report.status == core.SOLVED)
    flow = trim.flow_vector(net, beta, origin).values
    probs = core.choice_probabilities(net, spec, vf)
    balance = np.zeros(net.n_states)
    balance[net.state_index(origin)] = 1.0
    np.add.at(balance, net.arc_to, flow[net.arc_from] * probs)
    assert np.max(np.abs(flow - balance)) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(dag_samples())
def test_flow_conservation_on_generated_dags(sample):
    net, _obs, beta, _mu = sample
    _assert_flow_balance(net, beta, "s0")


@settings(max_examples=25, deadline=None)
@given(cyclic_geometric_networks())
def test_flow_conservation_on_cyclic_networks(net):
    # the reference scale criterion 07 uses; most of these networks have no
    # value fixed point at the criterion-06 coefficients
    beta0 = trim.choose_reference_beta(net, [-1.0, -2.0, -4.0, -8.0])
    _assert_flow_balance(net, beta0, "o")


def test_choose_reference_beta_grid_scan():
    net = random_geometric_network(15, 0.4, seed=1)
    beta0 = trim.choose_reference_beta(net, [-1.0, -2.0, -4.0])
    np.testing.assert_array_equal(beta0, np.full(net.n_attributes, -1.0))


def test_choose_reference_beta_infeasible_family():
    net = make_infeasible_net(0.5)
    with pytest.raises(NoFeasibleReference):
        trim.choose_reference_beta(net, [-1.0, -2.0, -4.0])
    with pytest.raises(NoFeasibleReference):
        trim.choose_reference_beta(net, [])


def test_epsilon_above_one_disconnects(two_route_net):
    flow = trim.flow_vector(two_route_net, np.array([-1.0]), "o")
    with pytest.raises(OriginTrimmed):
        trim.trim(two_route_net, flow, 1.5)
    with pytest.raises(ValueError):
        trim.trim(two_route_net, flow, 0.0)


def test_trim_keeps_reachability():
    net = random_geometric_network(25, 0.3, seed=1)
    beta0 = np.full(net.n_attributes, -1.0)
    flow = trim.flow_vector(net, beta0, "o")
    trimmed = trim.trim_quantile(net, flow, 0.5)
    assert trimmed.n_states <= net.n_states
    reach = reachable_from(trimmed, "o")
    assert set(trimmed.states) <= reach | {"o"}
    assert "d" in reach


def test_heavy_trim_keeps_connectivity():
    # aggressive cut comparable to removing ~90% of arcs
    net = random_geometric_network(25, 0.3, seed=2)
    beta0 = np.full(net.n_attributes, -1.0)
    flow = trim.flow_vector(net, beta0, "o")
    trimmed = trim.trim_quantile(net, flow, 0.9)
    reach = reachable_from(trimmed, "o")
    assert "d" in reach
    assert set(trimmed.states) <= reach | {"o"}


def test_nestedness():
    net = random_geometric_network(20, 0.35, seed=4)
    beta0 = np.full(net.n_attributes, -1.0)
    flow = trim.flow_vector(net, beta0, "o")
    positive = np.sort(flow.values[flow.values > 0])
    eps_small = float(positive[len(positive) // 4])
    eps_large = float(positive[len(positive) // 2])
    small = trim.trim(net, flow, eps_small)
    large = trim.trim(net, flow, eps_large)
    assert set(large.states) <= set(small.states)


def test_quantile_monotonicity():
    net = random_geometric_network(20, 0.35, seed=6)
    beta0 = np.full(net.n_attributes, -1.0)
    flow = trim.flow_vector(net, beta0, "o")
    sizes = [
        trim.trim_quantile(net, flow, f).n_states for f in (0.0, 0.3, 0.6)
    ]
    assert sizes[0] >= sizes[1] >= sizes[2]


def test_protected_states_survive():
    net = random_geometric_network(20, 0.35, seed=1)
    beta0 = np.full(net.n_attributes, -1.0)
    flow = trim.flow_vector(net, beta0, "o")
    obs = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 20, seed=5)
    protected = {s for ob in obs.observations for s in ob.path}
    trimmed = trim.trim_quantile(net, flow, 0.8, protected=protected)
    assert protected <= set(trimmed.states)
    # the likelihood stays computable on the trimmed network
    ll = core.log_likelihood(
        {"d": trimmed}, core.UtilitySpec(BETA_TRUE), obs
    )
    assert np.isfinite(ll) and ll < 0


def test_trim_report_shape():
    net = random_geometric_network(15, 0.4, seed=1)
    beta0 = np.full(net.n_attributes, -1.0)
    flow = trim.flow_vector(net, beta0, "o")
    trimmed = trim.trim(net, flow, 0.01)
    report = trim.trim_report(net, trimmed, flow, 0.01)
    assert report["states_after"] <= report["states_before"]
    assert 0 <= report["dropped_arc_fraction"] <= 1
    assert report["epsilon"] == 0.01


def test_two_stage_warm_start():
    # estimate on the trimmed subnetwork, then warm-start the full network
    net = random_geometric_network(25, 0.3, seed=3)
    obs = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 500, seed=3)
    beta0 = trim.choose_reference_beta(net, [-1.0, -2.0, -4.0])
    flow = trim.flow_vector(net, beta0, "o")
    protected = {s for ob in obs.observations for s in ob.path}
    trimmed = trim.trim_quantile(net, flow, 0.5, protected=protected)
    stage1 = nfxp.estimate_nfxp({"d": trimmed}, obs)
    assert stage1.converged
    stage2 = nfxp.estimate_nfxp({"d": net}, obs, beta_init=stage1.beta_hat)
    assert stage2.converged
    cold = nfxp.estimate_nfxp({"d": net}, obs)
    assert stage2.iterations <= max(cold.iterations, 1)
