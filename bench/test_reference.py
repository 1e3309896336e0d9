"""Closed-form tests of the benchmark's reference computations.

    python3 -m pytest bench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference as R


def two_loop(u_loop, u_exit=0.0, opposed=False):
    """States s0, s1, s2, d: loops s0 <-> s1 and s0 <-> s2, exits s1, s2 -> d.
    With ``opposed`` the second loop carries -u_loop."""
    u2 = -u_loop if opposed else u_loop
    arcs = [(0, 1, u_loop), (0, 2, u2), (1, 0, u_loop), (2, 0, u2), (1, 3, u_exit),
            (2, 3, u_exit)]
    return R.RefNet(["s0", "s1", "s2", "d"], 3, [a[0] for a in arcs], [a[1] for a in arcs],
                    [[a[2]] for a in arcs])


def binary_choice_dag(m, low, up, alt):
    """Composite-choice DAG: one take/skip stage per elemental alternative;
    node (i, c) means i alternatives decided, c of them taken."""
    feasible = [(i, c) for i in range(m + 1) for c in range(min(i, up) + 1)
                if c + (m - i) >= low]
    states = [f"n{i}_{c}" for i, c in feasible] + ["d"]
    index = {s: k for k, s in enumerate(states)}
    src, dst, attrs = [], [], []

    def arc(a, b, vec):
        src.append(index[a])
        dst.append(index[b])
        attrs.append(vec)

    zero = np.zeros(alt.shape[1])
    for i, c in feasible:
        if i == m:
            if low <= c <= up:
                arc(f"n{i}_{c}", "d", zero)
            continue
        if c + 1 <= up:
            arc(f"n{i}_{c}", f"n{i + 1}_{c + 1}", alt[i])
        if (i + 1, c) in feasible:
            arc(f"n{i}_{c}", f"n{i + 1}_{c}", zero)
    return R.RefNet(states, index["d"], src, dst, attrs)


def all_paths(ref, start):
    succ = ref.successors()
    stack = [[start]]
    while stack:
        path = stack.pop()
        if path[-1] == ref.dest:
            yield path
            continue
        for a in succ[path[-1]]:
            stack.append(path + [int(ref.dst[a])])


def test_two_loop_cycle_closed_form():
    ref = two_loop(math.log(0.4))
    beta = np.array([1.0])
    assert R.topological_order(ref) is None
    assert R.spectral_radius(ref, beta) == pytest.approx(math.sqrt(0.32), abs=1e-12)
    v = R.dense_values(ref, beta)
    assert math.exp(v[0]) == pytest.approx(0.8 / 0.68, rel=1e-12)
    assert R.binding_residual(ref, beta, v) <= 1e-12
    assert R.values(ref, beta)[0] == v[0]


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_opposed_loops_are_infeasible(t):
    # loop mass e^{2t} + e^{-2t} >= 2, so no positive solution exists
    ref = two_loop(t, opposed=True)
    assert R.spectral_radius(ref, np.array([1.0])) >= 1.0
    assert R.dense_values(ref, np.array([1.0])) is None


def test_composite_choice_mnl_oracle():
    rng = np.random.default_rng(42)
    alt = rng.uniform(0.0, 1.0, size=(5, 2))
    ref = binary_choice_dag(5, 0, 3, alt)
    paths = list(all_paths(ref, ref.index["n0_0"]))
    assert len(paths) == 26  # subsets of five alternatives with at most three members
    for _ in range(20):
        beta = rng.uniform(-2.0, 2.0, size=2)
        v = R.dag_values(ref, beta)
        np.testing.assert_allclose(R.dense_values(ref, beta), v, atol=1e-12)
        u = ref.utilities(beta)
        probs = np.array([
            math.exp(sum(u[ref.arc_of[(a, b)]] for a, b in zip(p[:-1], p[1:])) - v[p[0]])
            for p in paths
        ])
        utils = np.array([
            sum(ref.attrs[ref.arc_of[(a, b)]] @ beta for a, b in zip(p[:-1], p[1:]))
            for p in paths
        ])
        mnl = np.exp(utils - utils.max())
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(probs, mnl / mnl.sum(), atol=1e-12)


def test_dag_values_survive_exp_underflow():
    # o -> a -> d costs 1 + 1, o -> d costs 2.5; at beta = -400 every e^V
    # underflows, but the log-space recursion still gives V = (-800, -400, 0)
    ref = R.RefNet(["o", "a", "d"], 2, [0, 1, 0], [1, 2, 2], [[1.0], [1.0], [2.5]])
    v = R.dag_values(ref, np.array([-400.0]))
    np.testing.assert_allclose(v, [-800.0, -400.0, 0.0], atol=1e-9)
    assert R.binding_residual(ref, np.array([-400.0]), v) <= 1e-9


def test_loglik_and_gradient_on_composite_dag():
    rng = np.random.default_rng(7)
    alt = rng.uniform(0.0, 1.0, size=(4, 2))
    ref = binary_choice_dag(4, 1, 2, alt)
    origin = ref.index["n0_0"]
    paths = [[ref.states[i] for i in p] for p in all_paths(ref, origin)]
    data = R.PathData(ref, paths * 3)
    beta = np.array([0.3, -0.7])
    v = R.dag_values(ref, beta)
    # the likelihood of every path once is the sum of its log-probabilities
    logp = [sum(ref.utilities(beta)[R.path_arcs(ref, p)]) - v[origin] for p in paths]
    assert data.loglik(beta) == pytest.approx(3 * sum(logp), abs=1e-10)
    # its gradient is observed minus expected attribute totals
    probs = np.exp(logp)
    expected = sum(pr * ref.attrs[R.path_arcs(ref, p)].sum(axis=0)
                   for pr, p in zip(probs, paths))
    grad = data.attr_total - data.n_obs * expected
    np.testing.assert_allclose(R.fd_gradient(data.loglik, beta), grad, atol=1e-6)


def test_path_checks_and_reachability():
    ref = R.RefNet(["o", "a", "b", "d"], 3, [0, 1, 2], [1, 3, 3], [[1.0], [1.0], [1.0]])
    assert R.path_arcs(ref, ["o", "a", "d"]) == [0, 1]
    for bad in (["o", "b", "d"], ["o", "a"], ["o"], ["o", "x", "d"]):
        with pytest.raises(R.BadInput):
            R.path_arcs(ref, bad)
    assert R.reachable(ref, 0) == {0, 1, 3}
    assert R.reachable(ref, 3, reverse=True) == {0, 1, 2, 3}
    order = R.topological_order(ref)
    assert order.index(0) < order.index(1) < order.index(3)
    assert order.index(2) < order.index(3)
