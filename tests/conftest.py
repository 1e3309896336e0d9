"""Shared fixtures: small hand-built networks with known closed forms."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, strategies as st

from rlogit import core, nfxp, nrl
from rlogit.errors import DisconnectedInstance
from rlogit.generators import random_geometric_network
from rlogit.network import build_network, enumerate_paths
from rlogit.simulate import generate_observations


@pytest.fixture
def chain_net():
    """Deterministic chain o -> a -> b -> d, single cost attribute."""
    return build_network(
        ["o", "a", "b", "d"],
        "d",
        [("o", "a", [1.0]), ("a", "b", [2.0]), ("b", "d", [3.0])],
        ["cost"],
    )


@pytest.fixture
def two_route_net():
    """Origin with two parallel two-hop routes of equal cost."""
    return build_network(
        ["o", "a", "b", "d"],
        "d",
        [
            ("o", "a", [1.0]),
            ("o", "b", [1.0]),
            ("a", "d", [1.0]),
            ("b", "d", [1.0]),
        ],
        ["cost"],
    )


@pytest.fixture
def cycle_net():
    """Two-loop cyclic network whose exp-space value system has the closed
    form z(s0) = 0.8 / 0.68 at beta = 1.

    The four cycle arcs have exp-utility 0.4 and the two exit arcs have
    utility 0, so the loop mass is S = 0.32 < 1.
    """
    x = math.log(0.4)
    return build_network(
        ["s0", "s1", "s2", "d"],
        "d",
        [
            ("s0", "s1", [x]),
            ("s0", "s2", [x]),
            ("s1", "s0", [x]),
            ("s2", "s0", [x]),
            ("s1", "d", [0.0]),
            ("s2", "d", [0.0]),
        ],
        ["u"],
    )


def objective_coefficients(obs, mu):
    """Net coefficient of each V_s in the nested path log-likelihoods.

    Every visit of state s as a current state contributes -1/mu_s; every
    entry into s from predecessor p contributes +1/mu_p.  Under forward
    monotonicity all coefficients are <= 0.
    """
    net = obs.network
    return nrl._value_coefficients(net, obs.arc_counts(net) / mu.values[net.arc_from])


def differenced_hessian(nets, beta, obs, h=1e-5):
    """Central differences of the analytic NFXP gradient, one column per
    attribute."""
    cols = []
    for k in range(len(beta)):
        e = np.zeros(len(beta))
        e[k] = h
        plus = nfxp.loglik_and_gradient(nets, core.UtilitySpec(beta + e), obs)[1]
        minus = nfxp.loglik_and_gradient(nets, core.UtilitySpec(beta - e), obs)[1]
        cols.append((plus - minus) / (2 * h))
    return np.column_stack(cols)


def path_information(nets, beta, obs):
    """Fisher information per observation at ``beta`` by path enumeration:
    the covariance of the path attribute totals under the model, averaged
    over the observations' (destination, origin) pairs.  It is -H / N for
    the Hessian H of the log-likelihood of N observations.  Path
    probabilities are the softmax of the path utilities, with no value
    solve.  ``nets`` maps destination groups to acyclic networks."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    info = np.zeros((len(beta), len(beta)))
    for (dest, origin), count in Counter((ob.destination, ob.origin)
                                         for ob in obs.observations).items():
        net = nets[dest]
        totals = np.array([net.attrs[[net.arc_id(u, v) for u, v in zip(p[:-1], p[1:])]].sum(0)
                           for p in enumerate_paths(net, origin)])
        utils = totals @ beta
        prob = np.exp(utils - utils.max())
        prob /= prob.sum()
        dev = totals - prob @ totals
        info += count * (dev.T * prob) @ dev
    return info / len(obs)


def make_infeasible_net(t: float):
    """Two-loop network with opposed utilities +t / -t on the loops.

    Loop mass S = e^{2t} + e^{-2t} >= 2 for every t, so the exp-space value
    system never has a positive solution.
    """
    return build_network(
        ["s0", "s1", "s2", "d"],
        "d",
        [
            ("s0", "s1", [t]),
            ("s1", "s0", [t]),
            ("s0", "s2", [-t]),
            ("s2", "s0", [-t]),
            ("s1", "d", [0.0]),
            ("s2", "d", [0.0]),
        ],
        ["u"],
    )


@pytest.fixture
def partial_net():
    """Network where s2 is not reachable from o (connectivity-repair cases)."""
    return build_network(
        ["o", "s1", "s2", "d"],
        "d",
        [("o", "s1", [1.0]), ("s1", "d", [1.0]), ("s2", "d", [1.0])],
        ["cost"],
    )


@st.composite
def dag_samples(draw):
    """(network, observations, beta, scale field) on a random DAG s0 -> ...
    -> s{n-1} with a chain backbone, extra forward arcs and two origins."""
    n = draw(st.integers(4, 7))
    states = [f"s{i}" for i in range(n)]
    pairs = [(i, i + 1) for i in range(n - 1)]
    pairs += [(i, j) for i in range(n) for j in range(i + 2, n) if draw(st.booleans())]
    unit = st.floats(0.0, 2.0)
    arcs = [(states[i], states[j], [draw(unit), draw(unit)]) for i, j in pairs]
    net = build_network(states, states[-1], arcs)
    beta = np.array([draw(st.floats(-2.0, -0.1)), draw(st.floats(-2.0, 0.5))])
    obs = generate_observations(net, core.UtilitySpec(beta), ["s0", "s1"],
                                draw(st.integers(1, 40)), seed=draw(st.integers(0, 10**6)))
    mu = nrl.ScaleField([draw(st.floats(0.5, 2.0)) for _ in range(n)])
    return net, obs, beta, mu


@st.composite
def cyclic_geometric_networks(draw):
    """Connected cyclic random geometric networks at the two criterion-06
    sizes, from generator seeds 10,000-10,199."""
    n_nodes, radius = draw(st.sampled_from([(20, 0.35), (30, 0.3)]))
    seed = draw(st.integers(10_000, 10_199))
    try:
        return random_geometric_network(n_nodes, radius, seed=seed, acyclic=False)
    except DisconnectedInstance:
        assume(False)


def _dense_cyclic_instance(n_states=200, out_degree=6, seed=21):
    """Strongly connected instance that is value-infeasible at beta = -1.5."""
    rng = np.random.default_rng(seed)
    names = [f"s{i}" for i in range(n_states)] + ["d"]
    arcs = {}
    for i in range(n_states):
        # ring arc keeps the graph strongly connected
        arcs[(f"s{i}", f"s{(i + 1) % n_states}")] = [float(rng.uniform(0.8, 1.5))]
        for j in rng.choice(n_states, size=out_degree, replace=False):
            if j != i:
                arcs[(f"s{i}", f"s{j}")] = [float(rng.uniform(0.8, 1.5))]
    for i in range(0, n_states, 10):
        # costly exit arcs so most observed mass stays on a corridor
        arcs[(f"s{i}", "d")] = [float(rng.uniform(4.0, 5.0))]
    arc_list = [(u, v, vec) for (u, v), vec in arcs.items()]
    return build_network(names, "d", arc_list, ["cost"])
