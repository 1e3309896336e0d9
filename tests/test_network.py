"""Network construction, validation, reachability and canonical JSON."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlogit import core
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
    ensure_connectivity,
    enumerate_paths,
    load_network,
    network_from_arrays,
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


def _reference_validation(states, destination, arcs):
    """The per-arc validation loop that predates the array checks: the
    exception (class, message) of the first invalid arc, or None."""
    state_set = set(states)
    if len(state_set) != len(states):
        return DuplicateArc, "duplicate state ids"
    if destination not in state_set:
        return DanglingEndpoint, f"destination {destination!r} not in states"
    seen = set()
    k = len(np.atleast_1d(arcs[0][2])) if arcs else 0
    for u, v, vec in arcs:
        if u not in state_set or v not in state_set:
            return DanglingEndpoint, f"arc ({u!r}, {v!r}) references unknown state"
        if u == destination:
            return (DestinationHasSuccessors,
                    f"destination {destination!r} has outgoing arc to {v!r}")
        if (u, v) in seen:
            return DuplicateArc, f"duplicate arc ({u!r}, {v!r})"
        seen.add((u, v))
        shape = np.atleast_1d(np.asarray(vec, dtype=float)).shape
        if shape != (k,):
            return DanglingEndpoint, f"arc ({u!r}, {v!r}) attribute length {shape} != ({k},)"
    return None


_IDS = ["a", "b", "c", "d", "zzz"]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(_IDS[:4]), min_size=1, max_size=5),
    st.sampled_from(_IDS),
    st.lists(st.tuples(st.sampled_from(_IDS), st.sampled_from(_IDS),
                       st.sampled_from([[1.0], 2.0, [1.0, 2.0], [[3.0]]])), max_size=8),
)
def test_array_checks_raise_as_per_arc_loop(states, destination, arcs):
    expected = _reference_validation(states, destination, arcs)
    if expected is None:
        net = build_network(states, destination, arcs)
        assert net.n_arcs == len(arcs)
        return
    with pytest.raises(expected[0]) as info:
        build_network(states, destination, arcs)
    assert str(info.value) == expected[1]


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(0, n - 1),
    st.lists(st.tuples(st.integers(0, n - 2), st.integers(0, n - 1)), unique=True),
)))
def test_arc_groups_match_per_arc_loop(case):
    n, d, drawn = case
    # tails skip the destination d; some states draw no out-arcs
    pairs = [(i + (i >= d), j) for i, j in drawn]
    states = [f"s{i}" for i in range(n)]
    net = network_from_arrays(states, states[d], [i for i, _ in pairs], [j for _, j in pairs],
                              np.ones((len(pairs), 1)))
    succ, pred = [[] for _ in range(n)], [[] for _ in range(n)]
    for a, (i, j) in enumerate(pairs):
        succ[i].append(a)
        pred[j].append(a)
        assert net.arc_lookup[(i, j)] == a
    assert len(net.arc_lookup) == len(pairs)
    assert net.index == {s: i for i, s in enumerate(states)}

    # the tail layout: per-state segments of one arc order
    owners = [i for i in range(n) if succ[i]]
    assert [net.out_arcs(i).tolist() for i in range(n)] == succ
    assert net.tail_order.tolist() == [a for arcs in succ for a in arcs]
    assert net.tail_offsets.tolist() == np.cumsum([0] + [len(arcs) for arcs in succ]).tolist()
    assert net.tail_owners.tolist() == owners
    assert net.tail_starts.tolist() == [net.tail_order.tolist().index(succ[i][0]) for i in owners]
    assert net.tail_segment.tolist() == [k for k, i in enumerate(owners) for _ in succ[i]]

    # the free rows of the value system
    free = [i for i in range(n) if i != d]
    assert net.free_states.tolist() == free
    assert net.free_row.tolist() == [free.index(i) if i != d else -1 for i in range(n)]

    # I - W on the free rows, W holding one distinct weight per arc between
    # free states (a self-loop's on the diagonal), in canonical CSC form
    weight = np.arange(1.0, len(pairs) + 1)
    dense = np.eye(n - 1)
    for a, (i, j) in enumerate(pairs):
        if j != d:
            dense[free.index(i), free.index(j)] -= weight[a]
    system = core.identity_minus(net, weight)
    assert system.has_canonical_format and np.array_equal(system.toarray(), dense)

    # a directed cycle, by depth-first search with three colours
    colour = [0] * n

    def closes_cycle(i):
        colour[i] = 1
        for a in succ[i]:
            j = pairs[a][1]
            if colour[j] == 1 or (colour[j] == 0 and closes_cycle(j)):
                return True
        colour[i] = 2
        return False

    assert net.acyclic == (not any(colour[i] == 0 and closes_cycle(i) for i in range(n)))
    if net.acyclic:
        # every arc once, in tail order within its level, each to a lower level
        level = np.zeros(n, dtype=int)
        for k, (arcs, starts, tails, seg) in enumerate(net.levels, 1):
            level[tails] = k
            assert net.arc_from[arcs].tolist() == sorted(net.arc_from[arcs].tolist())
            assert net.arc_from[arcs[starts]].tolist() == tails.tolist()
            assert tails[seg].tolist() == net.arc_from[arcs].tolist()
        assert sorted(a for arcs, *_ in net.levels for a in arcs.tolist()) == list(range(len(pairs)))
        assert np.all(level[net.arc_to] < level[net.arc_from])
        assert all(np.any(level[net.arc_to[succ[i]]] == level[i] - 1) for i in owners)

    for i, s in enumerate(states):
        assert net.successors(s) == [states[pairs[a][1]] for a in succ[i]]
        assert net.predecessors(s) == [states[pairs[a][0]] for a in pred[i]]
    for derived in (net.tail_order, net.tail_offsets, net.tail_owners, net.tail_starts,
                    net.tail_segment, net.free_states, net.free_row, *net._arc_keys,
                    *net.free_pattern, *(a for level in net.levels or () for a in level)):
        assert not derived.flags.writeable


def test_levels_of_a_network_without_arcs_and_of_a_self_loop():
    empty = network_from_arrays(["a", "b", "d"], "d", [], [], np.zeros((0, 1)))
    assert empty.levels == () and empty.acyclic
    loop = network_from_arrays(["a", "d"], "d", [0, 0], [0, 1], np.ones((2, 1)))
    assert loop.levels is None and not loop.acyclic


def test_array_constructor_checks():
    states = ["a", "b", "d"]
    ones = np.ones((2, 1))
    with pytest.raises(DanglingEndpoint, match="references unknown state"):
        network_from_arrays(states, "d", [0, 1], [1, 3], ones)
    with pytest.raises(DanglingEndpoint):
        network_from_arrays(states, "d", [0, -1], [1, 2], ones)
    with pytest.raises(DestinationHasSuccessors):
        network_from_arrays(states, "d", [0, 2], [2, 1], ones)
    with pytest.raises(DuplicateArc):
        network_from_arrays(states, "d", [0, 0], [2, 2], ones)
    with pytest.raises(DuplicateArc):
        network_from_arrays(["a", "a", "d"], "d", [0], [2], ones[:1])
    with pytest.raises(DanglingEndpoint):
        network_from_arrays(states, "x", [0], [2], ones[:1])
    with pytest.raises(DanglingEndpoint):
        network_from_arrays(states, "d", [0, 1], [1, 2], np.ones((3, 1)))
    with pytest.raises(DanglingEndpoint):
        network_from_arrays(states, "d", [0, 1], [1, 2], ones, ["x", "y"])
    net = network_from_arrays(states, "d", [0, 1], [1, 2], ones, ["cost"])
    assert net.arc_id("a", "b") == 0 and net.successors("b") == ["d"]


def test_unknown_state_and_arc(chain_net):
    with pytest.raises(UnknownState):
        chain_net.state_index("nope")
    with pytest.raises(UnknownArc):
        chain_net.arc_id("o", "d")


def test_reachability(partial_net):
    assert reachable_from(partial_net, "o") == {"o", "s1", "d"}
    coreachable = _reachable(partial_net, [partial_net.state_index("d")], reverse=True)
    assert {partial_net.states[i] for i in np.flatnonzero(coreachable)} == {"o", "s1", "s2", "d"}


def _bfs(net, start, reverse, allowed):
    """Breadth-first search over successor (or predecessor) lists."""
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for i in frontier:
            for a in np.flatnonzero(net.arc_to == i) if reverse else net.out_arcs(i):
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
