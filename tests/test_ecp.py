"""ECP builder: program shape, exactness, recovery, monotone tightening."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rlogit import core, nfxp, trim
from rlogit.conic import builder
from rlogit.conic.solver import OPTIMAL, PRIMAL_INFEASIBLE, solve
from rlogit.errors import (
    BindingViolation,
    NotSuperSolution,
    UnreachableStateWithoutFix,
)
from rlogit.generators import random_geometric_network
from rlogit.network import build_network, ensure_connectivity
from rlogit.simulate import ObservationSet, generate_observations, make_observation

from conftest import (_dense_cyclic_instance, dag_samples, make_infeasible_net,
                      path_information)

BETA_TRUE = np.array([-4.0, -0.1, -0.05, -0.3])


def _one_arc_instance():
    net = build_network(["s0", "d"], "d", [("s0", "d", [2.0])], ["cost"])
    obs = ObservationSet(net, [make_observation(net, ["s0", "d"])])
    return net, obs


def test_smallest_program_shape():
    net, obs = _one_arc_instance()
    groups = builder.group_observations(obs)
    prog, layout = builder.build_ecp(net, groups)
    # variables: 1 beta, u_{s0}, one r
    assert prog.n_vars == 3
    assert prog.n_cones == 1
    assert layout.total == 3
    gl = layout.groups["d"]
    assert set(gl.u) == {"s0"}
    sol = solve(prog)
    assert sol.status == OPTIMAL
    # single path has probability one: objective 0, u_{s0} = v
    assert sol.obj_val == pytest.approx(0.0, abs=1e-6)


def test_grouping_weights_match_ungrouped_objective():
    net = build_network(
        ["o", "a", "b", "d"],
        "d",
        [("o", "a", [1.0]), ("o", "b", [2.0]), ("a", "d", [1.0]), ("b", "d", [0.5])],
        ["cost"],
    )
    obs = ObservationSet(
        net,
        [
            make_observation(net, ["o", "a", "d"]),
            make_observation(net, ["o", "a", "d"]),
            make_observation(net, ["o", "b", "d"]),
        ],
    )
    groups = builder.group_observations(obs)
    g = groups["d"]
    assert g.origin_counts == {"o": 3}
    assert g.n_obs == 3
    # grouped objective coefficients equal the per-observation sum at any
    # random (beta, u): check by direct evaluation
    prog, layout = builder.build_ecp(net, groups)
    rng = np.random.default_rng(0)
    point = rng.normal(size=prog.n_vars)
    grouped_val = float(prog.objective @ point)
    beta = point[: layout.n_beta]
    u = {s: point[i] for s, i in layout.groups["d"].u.items()}
    ungrouped = sum(
        float(ob.attr_sum @ beta) - u[ob.origin] for ob in obs.observations
    )
    assert grouped_val == pytest.approx(ungrouped, abs=1e-10)


def test_cone_count_scaling():
    net = random_geometric_network(20, 0.35, seed=1)
    obs = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 100, seed=0)
    groups = builder.group_observations(obs)
    prog, layout = builder.build_ecp(net, groups)
    assert prog.n_cones == net.n_arcs  # one cone per (group, arc); one group
    expected_vars = net.n_attributes + (net.n_states - 1) + net.n_arcs
    assert prog.n_vars == expected_vars


def test_unreachable_state_is_hard_error(partial_net):
    obs = ObservationSet(
        partial_net, [make_observation(partial_net, ["o", "s1", "d"])]
    )
    groups = builder.group_observations(obs)
    with pytest.raises(UnreachableStateWithoutFix):
        builder.build_ecp(partial_net, groups)
    # after the connectivity fix the build succeeds
    fixed = ensure_connectivity(partial_net, "o", penalty=50.0)
    obs2 = ObservationSet(fixed, [make_observation(fixed, ["o", "s1", "d"])])
    prog, _ = builder.build_ecp(fixed, builder.group_observations(obs2))
    assert prog.n_cones == fixed.n_arcs


def test_recover_binds_and_matches_likelihood():
    net = random_geometric_network(20, 0.35, seed=2)
    obs = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 500, seed=2)
    groups = builder.group_observations(obs)
    prog, layout = builder.build_ecp(net, groups)
    sol = solve(prog)
    assert sol.status == OPTIMAL
    beta_hat, values, cert = builder.recover_solution(prog, sol, layout, net)
    assert max(float(np.max(np.abs(r))) for r in cert.values()) <= 1e-6
    # objective at (beta, binding u) is algebraically the likelihood formula
    # evaluated with V = u
    ll_at_u = sum(
        float(ob.attr_sum @ beta_hat) - values["d"][net.state_index(ob.origin)]
        for ob in obs.observations
    )
    assert sol.obj_val == pytest.approx(ll_at_u, abs=1e-8)
    # and matches the exactly re-solved likelihood to solver accuracy
    ll = core.log_likelihood(obs.net_by_group(), core.UtilitySpec(beta_hat), obs)
    assert abs(sol.obj_val - ll) / len(obs) <= 1e-6
    # recovered u equals the solved value field
    vf, _ = core.solve_value_linear(net, core.UtilitySpec(beta_hat))
    np.testing.assert_allclose(values["d"].values, vf.values, atol=1e-5)


def test_perturbed_solution_raises_binding_violation():
    net = random_geometric_network(20, 0.35, seed=2)
    obs = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 100, seed=2)
    groups = builder.group_observations(obs)
    prog, layout = builder.build_ecp(net, groups)
    sol = solve(prog)
    # add slack at a non-origin state's value variable
    gl = layout.groups["d"]
    state = next(s for s in gl.u if s != "o")
    sol.x[gl.u[state]] += 0.1
    with pytest.raises(BindingViolation):
        builder.recover_solution(prog, sol, layout, net)


@pytest.fixture(scope="module")
def trimmed_dense():
    """Stage 1 of the criterion-08 pipeline: the dense cyclic instance, its
    simulation beta and its 0.9-quantile flow trim."""
    net = _dense_cyclic_instance()
    beta_sim = np.array([-2.2])
    return net, beta_sim, trim.trim_quantile(net, trim.flow_vector(net, beta_sim, "s0"), 0.9)


# 2, 6 and 24 kept a 1.1e-6 to 1.8e-6 slack at s30 while each step factored
# the full KKT matrix (polishing stalled on 2 and ran out of its 25
# iterations on 6 and 24); with the normal-equation step all three bind, as
# do path seeds 100-199, of which 7 missed before
@pytest.mark.parametrize("path_seed", [1, 2, 4, 5, 6, 7, 9, 11, 23, 24, 25])
def test_trimmed_dense_instance_binds_on_first_solve(trimmed_dense, path_seed):
    # the rarely visited state s30 kept a few-1e-6 Bellman slack on 1, 9 and
    # 11 while polishing stopped at the first out-of-tolerance iterate, and on
    # 2, 4, 5, 6, 7, 23, 24 and 25 while each step's ds came from the
    # complementarity row, which let the primal residual drift after
    # convergence
    net, beta_sim, trimmed = trimmed_dense
    obs = generate_observations(net, core.UtilitySpec(beta_sim), "s0", 300, seed=path_seed)
    kept = [make_observation(trimmed, list(ob.path)) for ob in obs.observations
            if set(ob.path) <= set(trimmed.states)]
    prog, layout = builder.build_ecp(
        trimmed, builder.group_observations(ObservationSet(trimmed, kept)))
    sol = solve(prog)
    assert sol.status == OPTIMAL
    _, _, cert = builder.recover_solution(prog, sol, layout, trimmed)
    assert max(float(np.max(np.abs(r))) for r in cert.values()) <= 1e-6


def test_full_dense_instance_reaches_optimal():
    # the whole criterion-08 dense instance, untrimmed: with the primal-only
    # scaling mu hess F(s) the solve stopped at MaxIters after 200 iterations
    net = _dense_cyclic_instance()
    beta_sim = np.array([-2.2])
    obs = generate_observations(net, core.UtilitySpec(beta_sim), "s0", 300, seed=8)
    r_ecp = builder.estimate_ecp(obs.net_by_group(), obs)
    r_nfxp = nfxp.estimate_nfxp(obs.net_by_group(), obs, beta_init=beta_sim)
    assert r_ecp.status == OPTIMAL and r_nfxp.converged
    assert abs(r_nfxp.loglik_per_obs - r_ecp.loglik_per_obs) <= 1e-4
    assert np.max(np.abs(r_nfxp.beta_hat - r_ecp.beta_hat)) <= 1e-3


def test_large_dag_solves_in_few_iterations(monkeypatch):
    # the 253-state DAG of the benchmark: 116 iterations with the
    # primal-only scaling and no corrector, 50 when polishing ran until the
    # complementarity stopped falling, 34 from the unit start; polishing now
    # ends once the recovered values bind within a tenth of the
    # certificate's bound, and the start is at the data's dual scale
    net = random_geometric_network(80, 0.18, seed=1)
    assert net.n_states == 253
    obs = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 3000, seed=7)
    certificates = []
    real_recover = builder.recover_solution

    def recording_recover(*args):
        out = real_recover(*args)
        certificates.append(out[2])
        return out

    monkeypatch.setattr(builder, "recover_solution", recording_recover)
    res = builder.estimate_ecp(obs.net_by_group(), obs)
    assert res.status == OPTIMAL and res.iterations <= 28
    assert max(np.max(np.abs(r)) for r in certificates[0].values()) <= 1e-7


def test_infeasible_family_certified():
    for t in (0.0, 0.5, 1.0):
        net = make_infeasible_net(t)
        obs = ObservationSet(net, [make_observation(net, ["s0", "s1", "d"])])
        prog, _ = builder.build_ecp(net, builder.group_observations(obs))
        sol = solve(prog)
        assert sol.status == PRIMAL_INFEASIBLE


def test_monotone_tighten_descends_to_fixed_point(cycle_net):
    spec = core.UtilitySpec(np.array([1.0]))
    vf, _ = core.solve_value_linear(cycle_net, spec)
    perturbed = vf.values + np.where(
        np.arange(cycle_net.n_states) == cycle_net.destination_index, 0.0, 1.0
    )
    # T[v + 1] <= v + 1 since T adds at most log-sum weights < e * mass
    tightened = builder.monotone_tighten(cycle_net, spec, perturbed)
    np.testing.assert_allclose(tightened.values, vf.values, atol=1e-8)
    # idempotent at the fixed point
    again = builder.monotone_tighten(cycle_net, spec, vf.values)
    np.testing.assert_allclose(again.values, vf.values, atol=1e-9)


def test_monotone_tighten_rejects_subsolution(cycle_net):
    spec = core.UtilitySpec(np.array([1.0]))
    vf, _ = core.solve_value_linear(cycle_net, spec)
    with pytest.raises(NotSuperSolution):
        builder.monotone_tighten(cycle_net, spec, vf.values - 0.5)


@pytest.mark.parametrize("name, beta", [("cycle_net", 1.0), ("two_route_net", -1.0)])
def test_monotone_tighten_is_the_value_iteration_fixed_point(name, beta, request):
    net = request.getfixturevalue(name)
    spec = core.UtilitySpec(np.array([beta]))
    swept, report = core.solve_value_iteration(net, spec)
    assert report.status == core.SOLVED
    above = swept.values + np.where(np.arange(net.n_states) == net.destination_index, 0.0, 1.0)
    tightened = builder.monotone_tighten(net, spec, above)
    assert tightened.status == core.SOLVED
    np.testing.assert_allclose(tightened.values, swept.values, rtol=0, atol=1e-10)
    with pytest.raises(NotSuperSolution):
        builder.monotone_tighten(net, spec, swept.values - 0.5)


def test_monotone_sequence_property(two_route_net):
    spec = core.UtilitySpec(np.array([-1.0]))
    vf, _ = core.solve_value_linear(two_route_net, spec)
    v = vf.values + 2.0
    v[two_route_net.destination_index] = 0.0
    prev = v.copy()
    for _ in range(50):
        nxt = core.bellman_apply(two_route_net, spec, prev)
        assert np.all(nxt <= prev + 1e-12)
        prev = nxt


def test_estimate_ecp_matches_nfxp():
    from rlogit import nfxp

    net = random_geometric_network(20, 0.35, seed=4)
    obs = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 1000, seed=4)
    r_nfxp = nfxp.estimate_nfxp(obs.net_by_group(), obs)
    r_ecp = builder.estimate_ecp(obs.net_by_group(), obs)
    assert r_nfxp.status == "Converged" and r_ecp.status == OPTIMAL
    assert abs(r_nfxp.loglik_per_obs - r_ecp.loglik_per_obs) <= 1e-4
    assert np.max(np.abs(r_nfxp.beta_hat - r_ecp.beta_hat)) <= 1e-3


def test_export_problem_formats(tmp_path):
    net, obs = _one_arc_instance()
    prog, layout = builder.build_ecp(net, builder.group_observations(obs))
    builder.export_problem(prog, tmp_path / "p.json", "json")
    builder.export_problem(prog, tmp_path / "p.cbf", "cbf")
    assert (tmp_path / "p.json").exists() and (tmp_path / "p.cbf").exists()
    with pytest.raises(ValueError):
        builder.export_problem(prog, tmp_path / "p.x", "mps")


def test_estimate_ecp_raises_binding_violation_without_retry(monkeypatch):
    # one solve and one recovery: a binding failure is not hidden by a
    # second, longer solve
    net = random_geometric_network(20, 0.35, seed=4)
    obs = generate_observations(net, core.UtilitySpec(BETA_TRUE), "o", 300, seed=4)
    solves, recovers = [], []
    real_solve = builder.cone_solver.solve

    def counting_solve(*args, **kwargs):
        solves.append(real_solve(*args, **kwargs))
        return solves[-1]

    def failing_recover(*args, **kwargs):
        recovers.append(args)
        raise BindingViolation("o", 2e-6)

    monkeypatch.setattr(builder.cone_solver, "solve", counting_solve)
    monkeypatch.setattr(builder, "recover_solution", failing_recover)
    with pytest.raises(BindingViolation):
        builder.estimate_ecp(obs.net_by_group(), obs)
    assert len(solves) == len(recovers) == 1 and solves[0].status == OPTIMAL


@settings(max_examples=15, deadline=None)
@given(dag_samples(), st.integers(0, 10**6))
def test_ecp_matches_nfxp_on_generated_dags(sample, path_seed):
    # the acceptance gate's tolerances, on 300 paths of a generated DAG whose
    # likelihood is curved where NFXP ends: samples whose likelihood keeps
    # rising towards infinite beta have no maximizer to agree on
    net, _obs, beta, _mu = sample
    obs = generate_observations(net, core.UtilitySpec(beta), ["s0", "s1"], 300, seed=path_seed)
    r_nfxp = nfxp.estimate_nfxp(obs.net_by_group(), obs)
    # the smallest Fisher information per observation: near zero, the
    # likelihood is flat in some direction of beta, and two maximizers can
    # differ while both meet their tolerances
    assume(np.linalg.eigvalsh(path_information(obs.net_by_group(), r_nfxp.beta_hat, obs))[0]
           >= 0.01)
    r_ecp = builder.estimate_ecp(obs.net_by_group(), obs)
    assert r_nfxp.converged and r_ecp.status == OPTIMAL
    assert abs(r_nfxp.loglik_per_obs - r_ecp.loglik_per_obs) <= 1e-4
    assert np.max(np.abs(r_nfxp.beta_hat - r_ecp.beta_hat)) <= 1e-3


@pytest.mark.xfail(strict=True, raises=BindingViolation,
                   reason="the recovered values keep a Bellman slack of 2.1e-6 at s2, "
                          "a state no sampled path visits")
def test_ecp_binds_on_sparse_visit_dag():
    # a draw of test_ecp_matches_nfxp_on_generated_dags that passes its
    # information filter (0.043) and on which NFXP converges
    states = [f"s{i}" for i in range(7)]
    pairs = [(i, i + 1) for i in range(6)] + [(0, 5), (0, 6), (1, 3), (1, 4), (1, 5), (1, 6)]
    attrs = {(0, 1): [1.0, 0.0], (4, 5): [2.0, 2.0], (5, 6): [0.0, 2.0]}
    net = build_network(states, "s6", [(states[i], states[j], attrs.get((i, j), [0.0, 0.0]))
                                       for i, j in pairs])
    obs = generate_observations(net, core.UtilitySpec(np.array([-2.0, -2.0])), ["s0", "s1"],
                                300, seed=0)
    r_nfxp = nfxp.estimate_nfxp(obs.net_by_group(), obs)
    assert r_nfxp.converged
    r_ecp = builder.estimate_ecp(obs.net_by_group(), obs)
    assert r_ecp.status == OPTIMAL
    assert abs(r_nfxp.loglik_per_obs - r_ecp.loglik_per_obs) <= 1e-4
    assert np.max(np.abs(r_nfxp.beta_hat - r_ecp.beta_hat)) <= 1e-3
