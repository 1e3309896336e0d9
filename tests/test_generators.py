"""Generator oracles: turn indicators, geometric route networks, layered
unrollings and the composite-choice DAG bijection."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from rlogit.errors import DisconnectedInstance, InvalidBounds
from rlogit.generators import (
    _turn_angles,
    DEST_STATE,
    ORIGIN_STATE,
    bic_dag,
    composite_from_path,
    layered_dag_from_undirected,
    layered_origin,
    muc_dag,
    random_geometric_network,
    turn_indicators,
)
from rlogit.network import (
    build_network,
    canonical_json,
    enumerate_paths,
    network_to_dict,
    reachable_from,
)


@pytest.mark.parametrize(
    "angle, expected",
    [
        (0.0, (0, 0, 0)),
        (29.9, (0, 0, 0)),
        (30.0, (1, 0, 0)),
        (90.0, (1, 0, 0)),
        (150.0, (1, 0, 0)),
        (150.1, (0, 0, 1)),
        (-30.0, (0, 1, 0)),
        (-150.0, (0, 1, 0)),
        (-179.0, (0, 0, 1)),
        (179.0, (0, 0, 1)),
    ],
)
def test_turn_indicators(angle, expected):
    assert turn_indicators(angle) == expected


# (cross, dot) products whose angle np.arctan2 puts one ulp past a turn
# threshold and math.atan2 one ulp short of it
_THRESHOLD_CASES = [
    ("0x1.48cd4672045dap-2", "0x1.1cc031d2d4418p-1"),
    ("0x1.94604245c8dfcp-3", "0x1.5e332c8ae0bf5p-2"),
    ("-0x1.e179f4229c7ffp-2", "0x1.a0f884e29064ep-1"),
    ("-0x1.5f7cabbf398d8p-2", "0x1.30658bfd88adep-1"),
]


def test_turn_angles_match_scalar_atan2_at_thresholds():
    rng = np.random.default_rng(0)
    cross = np.r_[[float.fromhex(c) for c, _ in _THRESHOLD_CASES], rng.standard_normal(500)]
    dot = np.r_[[float.fromhex(d) for _, d in _THRESHOLD_CASES], rng.standard_normal(500)]
    scalar = [math.degrees(math.atan2(c, d)) for c, d in zip(cross.tolist(), dot.tolist())]
    angle = _turn_angles(cross, dot)
    np.testing.assert_array_equal(np.stack(turn_indicators(angle), 1),
                                  [turn_indicators(a) for a in scalar])
    assert angle[:len(_THRESHOLD_CASES)].tolist() == scalar[:len(_THRESHOLD_CASES)]


def test_geometric_network_deterministic_and_valid():
    net1 = random_geometric_network(20, 0.35, seed=1)
    net2 = random_geometric_network(20, 0.35, seed=1)
    assert net1.states == net2.states
    np.testing.assert_array_equal(net1.attrs, net2.attrs)
    assert net1.destination == DEST_STATE
    assert ORIGIN_STATE in net1.states
    # every state lies on an origin-to-destination corridor
    assert reachable_from(net1, ORIGIN_STATE) == set(net1.states)
    assert net1.attribute_names == ("TT", "LT", "RT", "UT")
    # TT nonnegative, indicators in {0, 1} and mutually exclusive
    tt = net1.attrs[:, 0]
    ind = net1.attrs[:, 1:]
    assert np.all(tt >= 0)
    assert set(np.unique(ind)) <= {0.0, 1.0}
    assert np.all(ind.sum(axis=1) <= 1)


def test_geometric_network_acyclic():
    net = random_geometric_network(25, 0.3, seed=3, acyclic=True)
    # DFS cycle check over the state graph
    color = {s: 0 for s in net.states}

    def dfs(s):
        color[s] = 1
        for t in net.successors(s):
            if color[t] == 1:
                return False
            if color[t] == 0 and not dfs(t):
                return False
        color[s] = 2
        return True

    assert all(dfs(s) for s in net.states if color[s] == 0)


def test_geometric_network_extra_attributes():
    net = random_geometric_network(15, 0.4, seed=2, extra_attributes=2)
    assert net.attribute_names[-2:] == ("X0", "X1")
    extra = net.attrs[:, 4:]
    assert extra.shape[1] == 2
    assert np.all((extra >= 0) & (extra <= 1))


@pytest.mark.parametrize("extra", [-1, 2.7, 0.5])
def test_extra_attributes_must_be_a_nonnegative_integer(extra):
    with pytest.raises(InvalidBounds):
        random_geometric_network(15, 0.4, seed=2, extra_attributes=extra)


def test_integral_extra_attributes_accepted():
    net = random_geometric_network(15, 0.4, seed=2, extra_attributes=2.0)
    assert net.n_attributes == 6


def test_geometric_cyclic_variant_has_both_directions():
    net = random_geometric_network(15, 0.4, seed=5, acyclic=False)
    pairs = {(net.states[u], net.states[v]) for u, v, _ in zip(net.arc_from, net.arc_to, net.attrs)}
    # at least one reciprocal state pair exists (u-turn transitions)
    recip = [(a, b) for (a, b) in pairs if (b, a) in pairs]
    assert recip


def _project(path) -> list:
    """Map a layered-DAG state sequence of string ids back to the original
    ids, collapsing consecutive duplicates (destination padding steps)."""
    out = []
    for s in path:
        base = s.rsplit("@", 1)[0]
        if not out or out[-1] != base:
            out.append(base)
    return out


def test_layered_unrolling_path_counts(cycle_net):
    layered = layered_dag_from_undirected(cycle_net, "s0")
    # walks of length <= n_states - 1 = 3 transitions from s0:
    # s0 -> s1 -> d and s0 -> s2 -> d only (longer walks revisit s0 and
    # cannot exit within the layer budget)
    paths = [_project(p) for p in enumerate_paths(layered, layered_origin("s0"))]
    assert sorted(tuple(p) for p in paths) == [("s0", "s1", "d"), ("s0", "s2", "d")]


def test_layered_origin_naming():
    assert layered_origin("s0") == "s0@0"
    assert _project(["s0@0", "s1@1", "d@2", "d@3"]) == ["s0", "s1", "d"]


def test_layered_triangle_blocks_revisits():
    # fully connected triangle: o -> a -> d fits in three layers but any walk
    # revisiting o does not
    tri = build_network(
        ["o", "a", "d"],
        "d",
        [("o", "a", [1.0]), ("a", "o", [1.0]), ("o", "d", [1.0]), ("a", "d", [1.0])],
        ["c"],
    )
    layered = layered_dag_from_undirected(tri, "o")
    paths = [tuple(_project(p)) for p in enumerate_paths(layered, "o@0")]
    assert sorted(paths) == [("o", "a", "d"), ("o", "d")]


def test_bic_path_count_m5():
    # selections of between 0 and 3 of 5 alternatives: C(5,0..3) sums to 26
    net = bic_dag(5, 0, 3, np.zeros((5, 1)))
    paths = list(enumerate_paths(net, "n0_0"))
    assert len(paths) == 26


@pytest.mark.parametrize("m, low, up", [(1, 0, 1), (4, 2, 2), (6, 1, 4), (8, 0, 8)])
def test_bic_muc_bijection(m, low, up):
    alt = np.arange(m, dtype=float).reshape(m, 1) + 1.0
    expected = {
        frozenset(c)
        for r in range(low, up + 1)
        for c in itertools.combinations(range(m), r)
    }
    bic = bic_dag(m, low, up, alt)
    muc = muc_dag(m, low, up, alt)
    bic_sets = [composite_from_path("bic", p) for p in enumerate_paths(bic, "n0_0")]
    muc_sets = [composite_from_path("muc", p) for p in enumerate_paths(muc, "m0_0")]
    assert len(bic_sets) == len(set(bic_sets)) and set(bic_sets) == expected
    assert len(muc_sets) == len(set(muc_sets)) and set(muc_sets) == expected


def test_composite_path_utility_matches_selection():
    m, low, up = 5, 1, 3
    alt = np.array([[1.0], [2.0], [4.0], [8.0], [16.0]])
    for kind, net, origin in [
        ("bic", bic_dag(m, low, up, alt), "n0_0"),
        ("muc", muc_dag(m, low, up, alt), "m0_0"),
    ]:
        for path in enumerate_paths(net, origin):
            arcs = [net.arc_id(u, v) for u, v in zip(path[:-1], path[1:])]
            total = float(net.attrs[arcs].sum())
            chosen = composite_from_path(kind, path)
            assert total == pytest.approx(sum(alt[i, 0] for i in chosen))


def test_invalid_bounds_rejected():
    with pytest.raises(InvalidBounds):
        bic_dag(3, 2, 1, np.zeros((3, 1)))
    with pytest.raises(InvalidBounds):
        muc_dag(3, 0, 4, np.zeros((3, 1)))
    with pytest.raises(InvalidBounds):
        bic_dag(3, 0, 2, np.zeros((2, 1)))


# --- golden digests ---------------------------------------------------------
#
# sha256 of the canonical JSON of seeded networks.  They pin every state id,
# arc order, attribute bit and position, including the turn indicators at the
# +-30 / +-150 degree thresholds, so a change to how networks are built must
# leave them byte-identical.


def _digest(net) -> str:
    return hashlib.sha256(canonical_json(network_to_dict(net)).encode()).hexdigest()


def _geometric_digest(*args, **kwargs) -> str:
    try:
        return _digest(random_geometric_network(*args, **kwargs))
    except DisconnectedInstance:
        return "disconnected"


def test_cyclic_scan_golden_digest():
    # the (30, 0.3) cyclic scan of the benchmark's cyclic-two-stage workload
    h = hashlib.sha256()
    for seed in range(10_000, 10_048):
        h.update(_geometric_digest(30, 0.3, seed=seed, acyclic=False).encode())
    assert h.hexdigest() == "bfb9f9307286411b43acd151ecb709e0f1da6d57b6785519f1c324becee5099e"


def _raw_digest(net) -> str:
    """sha256 of a network's fields as stored: cheaper than its canonical
    JSON, and as strict (attributes and positions bit for bit)."""
    h = hashlib.sha256()
    h.update(repr((net.states, net.destination, net.attribute_names, net.positions)).encode())
    for a in (net.arc_from.astype(np.int64), net.arc_to.astype(np.int64), net.attrs):
        h.update(a.tobytes())
    return h.hexdigest()


def test_criterion_06_search_golden_digest():
    # the cyclic networks that criterion 06's instance search draws first
    h = hashlib.sha256()
    for n_nodes, radius in ((20, 0.35), (30, 0.3)):
        for seed in range(10, 210):
            try:
                net = random_geometric_network(n_nodes, radius, seed=seed, acyclic=False)
                h.update(_raw_digest(net).encode())
            except DisconnectedInstance:
                h.update(b"disconnected")
    assert h.hexdigest() == "fd344b0c654de2272d07fa73bf5c2391fdffb2e9d2946b32346c7c51cafc264b"


@pytest.mark.parametrize("n_nodes, radius, seed, acyclic, digest", [
    # criterion-06 instances of the benchmark
    (20, 0.35, 29, False, "7eaa91a56c81ba1b23c723cb70490f44479eda6f2d81e7d5822db87cc1ac2204"),
    (30, 0.3, 2274, False, "9b7c6f2940b02a7799d1114b51fcfdbebfc003376d33672c8d8499873379349a"),
    (30, 0.3, 6769, False, "bb3d4e9414c3d3ba1913ec641759c04f0b9d58feea210f039a186878aeaba0b6"),
    # benchmark DAGs
    (30, 0.3, 1, True, "9be8181e5e0308a854d1eab0066fedd59f87eb88b732a9c112b72b9b7c37df3e"),
    (50, 0.22, 1, True, "a28feef867daeccf344a11f114984a3c521ec5648f9bcfbc66edf216526985b5"),
    (80, 0.18, 1, True, "00f7e5f6f55015e5822ddeb96ae71f6eddfa509639d1cce31c1d2ec961d3350c"),
    (80, 0.18, 4, True, "6adc829dfca4b375ada9874172486a64d54f1dcde7cd3d170afa321f947d7737"),
    (50, 0.22, 2, True, "ee77daba8951806a289673c8e5e349f091ef9648492c2e53cf63f5f281856c51"),
    (50, 0.22, 4, True, "aa8482b1739a81d411e4d9e3ba8265d0fec21c8a78d506cfe1413634b6905bba"),
    (50, 0.22, 5, True, "91562b078864b2ee214b77a993bac6e89bbea1c42b3ef3de9a2a70226f9a9a0b"),
])
def test_geometric_network_golden_digest(n_nodes, radius, seed, acyclic, digest):
    assert _geometric_digest(n_nodes, radius, seed=seed, acyclic=acyclic) == digest


@pytest.mark.parametrize("n_nodes, radius, seed, acyclic, digest", [
    (15, 0.4, 2, True, "811222f58f036bfdf871a370bbe260ae5052bfafb729a72560234281b9c8a846"),
    (20, 0.35, 29, False, "41abb5d466229de3274f272ac944472a3db609de96a2c0947724f899ab7d4d97"),
])
def test_extra_attributes_golden_digest(n_nodes, radius, seed, acyclic, digest):
    net = random_geometric_network(n_nodes, radius, seed=seed, acyclic=acyclic,
                                   extra_attributes=3)
    assert _digest(net) == digest


def test_layered_unrolling_golden_digest(cycle_net):
    layered = layered_dag_from_undirected(cycle_net, "s0")
    assert _digest(layered) == "babecd5ea85feb0ec0001bb91a3821a116049d636e74104cffba342db3de60e3"


def test_muc_dag_golden_digest():
    net = muc_dag(6, 1, 4, np.arange(12.0).reshape(6, 2) / 7)
    assert _digest(net) == "bc34961b93863b6148cc2d76c10f7bd66f42cb0d264789982b6d1324c1319381"
