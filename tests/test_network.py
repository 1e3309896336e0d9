"""Network construction, validation, reachability and canonical JSON."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlogit.errors import (
    DanglingEndpoint,
    DestinationHasSuccessors,
    DuplicateArc,
    InvalidPenalty,
    UnknownArc,
    UnknownState,
)
from rlogit.network import (
    _reachable,
    build_network,
    canonical_json,
    coreachable_to,
    default_connectivity_penalty,
    ensure_connectivity,
    enumerate_paths,
    load_network,
    network_from_dict,
    network_to_dict,
    reachable_from,
    save_network,
)


def test_basic_queries(chain_net):
    assert chain_net.n_states == 4
    assert chain_net.n_arcs == 3
    assert chain_net.n_attributes == 1
    assert chain_net.successors("o") == ["a"]
    assert chain_net.predecessors("d") == ["b"]
    assert chain_net.arc_id("a", "b") == 1
    assert chain_net.destination_index == chain_net.state_index("d")


def test_duplicate_arc_rejected():
    with pytest.raises(DuplicateArc):
        build_network(["a", "d"], "d", [("a", "d", [1.0]), ("a", "d", [2.0])])


def test_dangling_endpoint_rejected():
    with pytest.raises(DanglingEndpoint):
        build_network(["a", "d"], "d", [("a", "zzz", [1.0])])


def test_destination_must_be_absorbing():
    with pytest.raises(DestinationHasSuccessors):
        build_network(["a", "d"], "d", [("a", "d", [1.0]), ("d", "a", [1.0])])


def test_attribute_length_mismatch_rejected():
    with pytest.raises(DanglingEndpoint):
        build_network(["a", "b", "d"], "d", [("a", "b", [1.0]), ("b", "d", [1.0, 2.0])])


def test_unknown_state_and_arc(chain_net):
    with pytest.raises(UnknownState):
        chain_net.state_index("nope")
    with pytest.raises(UnknownArc):
        chain_net.arc_id("o", "d")


def test_reachability(partial_net):
    assert reachable_from(partial_net, "o") == {"o", "s1", "d"}
    assert coreachable_to(partial_net, "d") == {"o", "s1", "s2", "d"}


def _bfs(net, start, reverse, allowed):
    """Breadth-first search over successor (or predecessor) lists."""
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for i in frontier:
            for a in (net.pred_arcs if reverse else net.succ_arcs)[i]:
                j = int(net.arc_from[a] if reverse else net.arc_to[a])
                if allowed[i] and allowed[j] and j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return seen


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(0, n - 2), st.integers(0, n - 1))),
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.integers(0, n - 1),
)))
def test_reachable_matches_breadth_first_search(case):
    n, pairs, allowed, start = case
    states = [f"s{i}" for i in range(n)]
    net = build_network(states, states[-1],
                        [(states[i], states[j], [1.0]) for i, j in sorted(pairs) if i != j])
    mask = np.array(allowed)
    for reverse in (False, True):
        for allow in (np.ones(n, dtype=bool), mask):
            got = _reachable(net, [start], reverse=reverse,
                             allowed=None if allow.all() else allow)
            assert set(np.flatnonzero(got)) == _bfs(net, start, reverse, allow)


def test_enumerate_paths_two_route(two_route_net):
    paths = sorted(tuple(p) for p in enumerate_paths(two_route_net, "o"))
    assert paths == [("o", "a", "d"), ("o", "b", "d")]


def test_enumerate_paths_skips_cycles(cycle_net):
    paths = list(enumerate_paths(cycle_net, "s0"))
    # only the two simple exits s0 -> s1 -> d and s0 -> s2 -> d
    assert sorted(tuple(p) for p in paths) == [("s0", "s1", "d"), ("s0", "s2", "d")]


def test_ensure_connectivity_adds_penalty_arc(partial_net):
    fixed = ensure_connectivity(partial_net, "o", penalty=50.0)
    assert reachable_from(fixed, "o") == set(fixed.states)
    a = fixed.arc_id("o", "s2")
    assert fixed.attrs[a, 0] == 50.0
    # idempotent on an already-connected network
    again = ensure_connectivity(fixed, "o", penalty=50.0)
    assert again.n_arcs == fixed.n_arcs


def test_ensure_connectivity_rejects_bad_penalty(partial_net):
    with pytest.raises(InvalidPenalty):
        ensure_connectivity(partial_net, "o", penalty=0.0)


def test_default_connectivity_penalty(chain_net):
    # largest |cost * beta| is 3 * 2 = 6 -> penalty 60
    assert default_connectivity_penalty(chain_net, [-2.0]) == pytest.approx(60.0)


def test_canonical_json_floats():
    s = canonical_json({"x": 0.1, "n": 3, "t": True, "v": None})
    assert s == '{"x": 0.10000000000000001, "n": 3, "t": true, "v": null}'
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_network_json_roundtrip_byte_identical(tmp_path, two_route_net):
    p1 = tmp_path / "net1.json"
    p2 = tmp_path / "net2.json"
    save_network(two_route_net, p1)
    net2 = load_network(p1)
    save_network(net2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert net2.states == two_route_net.states
    np.testing.assert_array_equal(net2.attrs, two_route_net.attrs)


def test_network_dict_roundtrip_with_positions():
    net = build_network(
        ["o", "d"],
        "d",
        [("o", "d", [1.0, 2.0])],
        ["a", "b"],
        positions={"o": (0.0, 0.5), "d": (1.0, 0.25)},
    )
    doc = json.loads(canonical_json(network_to_dict(net)))
    net2 = network_from_dict(doc)
    assert net2.positions == {"o": (0.0, 0.5), "d": (1.0, 0.25)}
    assert net2.attribute_names == ("a", "b")
