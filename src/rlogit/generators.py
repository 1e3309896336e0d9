"""Synthetic network generators.

Three families are produced here:

* random geometric route networks (DAG or undirected variant) with a
  link-based state space: states are directed road arcs, transitions are arc
  pairs sharing a node, and each transition carries travel-time and
  turn-indicator attributes;
* layered DAG conversions of cyclic networks, used to generate ground-truth
  observations with a bounded path length;
* composite-choice DAGs (binary-choice and multi-choice layouts) whose
  origin-to-destination paths are in bijection with selections of between L
  and U of m elemental alternatives.

The geometric and layered generators build their arc tables as bare integer
arrays (road arcs from ``np.nonzero``, successor blocks from one stable
argsort) and cut them to the origin-destination corridor first, with one
:func:`~rlogit.network._on_walk` search from both ends.  Only then are state
names, turn angles (one ``arctan2`` over the kept arc pairs) and attribute
rows built, for the kept states and arcs alone, and handed to
:func:`~rlogit.network.network_from_arrays` once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DisconnectedInstance, InvalidBounds, UnknownState
from .network import Network, _kept_arcs, _on_walk, build_network, network_from_arrays

ROUTE_ATTRIBUTES = ("TT", "LT", "RT", "UT")

ORIGIN_STATE = "o"
DEST_STATE = "d"


def turn_indicators(angle_deg):
    """(LT, RT, UT) indicators for signed turn angles in degrees, a scalar or
    an array.

    Left turns lie in [30, 150], right turns in [-150, -30], U-turns have
    absolute angle above 150.  Straight continuations fire nothing.
    """
    a = np.asarray(angle_deg, dtype=float)
    lt = ((30.0 <= a) & (a <= 150.0)).astype(float)
    rt = ((-150.0 <= a) & (a <= -30.0)).astype(float)
    ut = (np.abs(a) > 150.0).astype(float)
    return lt, rt, ut


def _turn_angles(cross: np.ndarray, dot: np.ndarray) -> np.ndarray:
    """Signed turn angles in degrees from the cross and dot products of
    consecutive arc vectors.

    np.arctan2 differs from math.atan2 by one ulp on some inputs, which can
    flip an indicator at exactly +-30 or +-150 degrees; angles within 1e-9
    degrees of either threshold (two comparisons on |angle|) are therefore
    recomputed with math.atan2, so the indicators match the scalar
    computation on every input.
    """
    angle = np.degrees(np.arctan2(cross, dot))
    size = np.abs(angle)
    near = (np.abs(size - 30.0) < 1e-9) | (np.abs(size - 150.0) < 1e-9)
    for i in np.flatnonzero(near):
        angle[i] = math.degrees(math.atan2(cross[i], dot[i]))
    return angle


def random_geometric_network(
    n_nodes: int,
    radius: float,
    seed: int,
    acyclic: bool = True,
    extra_attributes: int = 0,
) -> Network:
    """Random geometric route network on the unit square.

    Nodes are placed uniformly; nodes within ``radius`` are connected.  When
    ``acyclic`` each road edge is oriented from lower to higher x-coordinate
    and the leftmost / rightmost nodes act as origin and destination;
    otherwise both directions are present (the cyclic variant).

    States are directed road arcs ``"i-j"`` plus a virtual origin state
    ``"o"`` (a zero-length arc into the origin node) and an absorbing
    destination state ``"d"``.  A transition to arc (j, k) carries TT equal
    to the arc length and LT/RT/UT turn indicators.  States not on any
    origin-to-destination walk are dropped.  ``extra_attributes`` appends
    that many i.i.d. uniform [0, 1] columns (used by parameter-count
    sweeps); it must be a nonnegative integer.

    Raises DisconnectedInstance when the origin cannot reach the destination;
    the caller regenerates with a new seed.
    """
    if n_nodes < 3:
        raise InvalidBounds("need at least 3 nodes")
    if not radius > 0:
        raise InvalidBounds("radius must be positive")
    n_extra = int(extra_attributes)
    if n_extra != extra_attributes or n_extra < 0:
        raise InvalidBounds(
            f"extra_attributes must be a nonnegative integer, got {extra_attributes!r}"
        )
    rng = np.random.default_rng(seed)
    pos = rng.random((n_nodes, 2))

    origin_node = int(np.argmin(pos[:, 0]))
    dest_node = int(np.argmax(pos[:, 0]))

    # all pairwise distances in one call; bitwise equal to per-pair np.hypot
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    # road arcs (tail, head), edge by edge in row-major order, each oriented
    # by x; the cyclic variant follows every arc with its reverse
    ii, jj = np.nonzero(np.triu(dist <= radius, k=1))
    forward = pos[ii, 0] <= pos[jj, 0]
    lo, hi = np.where(forward, ii, jj), np.where(forward, jj, ii)
    if acyclic:
        tail, head = lo, hi
    else:
        tail, head = np.stack([lo, hi], 1).ravel(), np.stack([hi, lo], 1).ravel()
    n_road = len(tail)
    # cut to the corridor first, on the road graph: "o" enters every arc
    # leaving the origin node and every arc into a node turns into every arc
    # leaving it, so road arc (i, j) lies on a walk from "o" to "d" exactly
    # when nodes i and j lie on one from the origin to the destination node
    on = _on_walk(n_nodes, tail, head, origin_node, dest_node)
    road = on[tail] & on[head]
    if not road.any():
        raise DisconnectedInstance("origin cannot reach destination")

    # state 0 is "o", road arc r is state r + 1, and "d" comes last.  The
    # transitions: "o" enters each arc leaving the origin node, road arc r1
    # turns into each arc r2 leaving its head (the arcs leaving each node
    # taken in road order), and each arc into the destination node exits
    entry = np.flatnonzero(tail == origin_node)
    out = np.argsort(tail, kind="stable")
    out_deg = np.bincount(tail, minlength=n_nodes)
    out_start = np.cumsum(out_deg) - out_deg
    fan = out_deg[head]
    r1 = np.repeat(np.arange(n_road), fan)
    offset = np.arange(len(r1)) - np.repeat(np.cumsum(fan) - fan, fan)
    r2 = out[np.repeat(out_start[head], fan) + offset]
    exits = np.flatnonzero(head == dest_node)
    dest = n_road + 1
    arc_from = np.concatenate([np.zeros(len(entry), dtype=int), r1 + 1, exits + 1])
    arc_to = np.concatenate([entry + 1, r2 + 1, np.full(len(exits), dest)])

    keep = np.concatenate([[True], road, [True]])
    arcs, kept_from, kept_to = _kept_arcs(keep, arc_from, arc_to)
    # names, angles and attributes are built for what is kept only
    kept_turns = arcs[len(entry):len(entry) + len(r1)]
    entry, r1, r2 = entry[arcs[:len(entry)]], r1[kept_turns], r2[kept_turns]
    # each road arc's vector once, then the angle between consecutive ones
    vx, vy = pos[head, 0] - pos[tail, 0], pos[head, 1] - pos[tail, 1]
    angle = _turn_angles(vx[r1] * vy[r2] - vy[r1] * vx[r2], vx[r1] * vx[r2] + vy[r1] * vy[r2])
    length = dist[tail, head]
    attrs = np.zeros((len(kept_from), 4))
    attrs[:len(entry), 0] = length[entry]
    turns = slice(len(entry), len(entry) + len(r1))
    attrs[turns, 0] = length[r2]
    attrs[turns, 1:] = np.stack(turn_indicators(angle), 1)
    if n_extra:
        attrs = np.hstack([attrs, rng.random((len(arc_from), n_extra))[arcs]])

    node = [str(i) for i in range(n_nodes)]
    states = [ORIGIN_STATE]
    states += [node[i] + "-" + node[j] for i, j in zip(tail[road].tolist(), head[road].tolist())]
    states.append(DEST_STATE)
    names = ROUTE_ATTRIBUTES + tuple(f"X{i}" for i in range(n_extra))
    positions = dict(zip(node, map(tuple, pos.tolist())))
    return network_from_arrays(states, DEST_STATE, kept_from, kept_to, attrs, names, positions)


def _corridor_network(states, origin, dest, arc_from, arc_to, attrs, names,
                      positions=None):
    """The network on the states (indices ``origin`` and ``dest`` among
    ``states``) that lie on some origin-to-destination walk, with the arcs
    between them; raises DisconnectedInstance if that leaves no path.  The
    cut runs on the bare integer arc arrays first, and only the kept states
    and rows of ``attrs`` are handed to
    :func:`~rlogit.network.network_from_arrays`.  Returns (network,
    kept-state mask, kept-arc mask)."""
    keep = _on_walk(len(states), arc_from, arc_to, origin, dest)
    if not keep[origin] or keep.sum() < 2:
        raise DisconnectedInstance("origin cannot reach destination")
    arcs, kept_from, kept_to = _kept_arcs(keep, arc_from, arc_to)
    net = network_from_arrays([s for s, k in zip(states, keep.tolist()) if k], states[dest],
                              kept_from, kept_to, attrs[arcs], names, positions)
    return net, keep, arcs


def layered_dag_from_undirected(net: Network, origin, destination=None) -> Network:
    """Unroll a (possibly cyclic) state network into a layered DAG.

    Each layer holds one copy of every state; the number of layers equals the
    state count of the original network.  A copy at layer k connects to a
    copy at layer k+1 exactly when the underlying transition exists, the
    absorbing destination copy carries zero-attribute padding arcs ``d@k ->
    d@(k+1)``, and the final layer's destination copy is the absorbing state
    of the result.  Walk length is thereby capped at one less than the state
    count.  State ids are ``"{state}@{layer}"``.  Used to generate
    bounded-length ground-truth observations on cyclic networks.
    """
    return _layered_dag(net, origin, destination)[0]


def _layered_dag(net: Network, origin, destination=None):
    """:func:`layered_dag_from_undirected` with the way back to ``net``:
    returns (layered network, the index in ``net`` of each layered state,
    the index in ``net`` of each layered arc, -1 for destination padding)."""
    if destination is None:
        destination = net.destination
    if origin not in net.index or destination not in net.index:
        raise UnknownState(f"unknown origin/destination {origin!r}/{destination!r}")

    n = net.n_states  # also the number of layers
    d = net.index[destination]
    states = [f"{s}@{k}" for k in range(n) for s in net.states]
    # layer k holds states k*n .. k*n + n-1; each layer's arcs are the
    # network's arcs into the next layer, then the destination padding arc
    shift = n * np.arange(n - 1)[:, None]
    arc_from = (shift + np.append(net.arc_from, d)).ravel()
    arc_to = (shift + n + np.append(net.arc_to, d)).ravel()
    attrs = np.tile(np.vstack([net.attrs, np.zeros(net.n_attributes)]), (n - 1, 1))
    layered, keep, arcs = _corridor_network(states, net.index[origin], (n - 1) * n + d,
                                            arc_from, arc_to, attrs, net.attribute_names,
                                            net.positions)
    base_arc = np.tile(np.append(np.arange(net.n_arcs), -1), n - 1)
    return layered, np.tile(np.arange(n), n)[keep], base_arc[arcs]


def layered_origin(origin) -> str:
    return f"{origin}@0"


# --- composite-choice DAGs -------------------------------------------------


def _check_bounds(m, low, up, alt_attributes):
    alt = np.atleast_2d(np.asarray(alt_attributes, dtype=float))
    if not (0 <= low <= up <= m):
        raise InvalidBounds(f"need 0 <= L <= U <= m, got L={low}, U={up}, m={m}")
    if alt.shape[0] != m:
        raise InvalidBounds(f"alt_attributes has {alt.shape[0]} rows, expected {m}")
    return alt


def bic_dag(m: int, low: int, up: int, alt_attributes) -> Network:
    """Binary-choice composite DAG.

    One include/exclude stage per elemental alternative.  Node ``n{i}_{c}``
    means: alternatives 0..i-1 decided, c of them selected.  "Take" arcs
    carry the alternative's attribute row, "skip" and terminal arcs carry
    zeros, so path utility equals the sum over selected alternatives.
    """
    alt = _check_bounds(m, low, up, alt_attributes)
    k = alt.shape[1]
    zero = np.zeros(k)

    def feasible(i, c):
        # can still reach a total selection count within [low, up]
        return c <= up and c + (m - i) >= low

    states = [f"n{i}_{c}" for i in range(m + 1) for c in range(min(i, up) + 1) if feasible(i, c)]
    states.append(DEST_STATE)
    arcs = []
    for i in range(m):
        for c in range(min(i, up) + 1):
            if not feasible(i, c):
                continue
            if c + 1 <= up:
                arcs.append((f"n{i}_{c}", f"n{i + 1}_{c + 1}", alt[i]))
            if feasible(i + 1, c):
                arcs.append((f"n{i}_{c}", f"n{i + 1}_{c}", zero))
    for c in range(up + 1):
        if low <= c <= up and feasible(m, c):
            arcs.append((f"n{m}_{c}", DEST_STATE, zero))
    names = tuple(f"x{i}" for i in range(k))
    return build_network(states, DEST_STATE, arcs, names)


def muc_dag(m: int, low: int, up: int, alt_attributes) -> Network:
    """Multi-choice composite DAG.

    Each decision picks which alternative to select next (in increasing index
    order), so node ``m{i}_{c}`` means: last selected alternative i (0 = none
    yet), c selected so far.  Denser than the binary-choice layout but
    path-equivalent to it.
    """
    alt = _check_bounds(m, low, up, alt_attributes)
    k = alt.shape[1]
    zero = np.zeros(k)

    states = ["m0_0"]
    for c in range(1, up + 1):
        states.extend(f"m{i}_{c}" for i in range(c, m + 1))
    states.append(DEST_STATE)

    arcs = []
    if low == 0:
        arcs.append(("m0_0", DEST_STATE, zero))
    if up >= 1:
        for j in range(1, m + 1):
            arcs.append(("m0_0", f"m{j}_1", alt[j - 1]))
    for c in range(1, up + 1):
        for i in range(c, m + 1):
            name = f"m{i}_{c}"
            if c >= low:
                arcs.append((name, DEST_STATE, zero))
            if c + 1 <= up:
                for j in range(i + 1, m + 1):
                    arcs.append((name, f"m{j}_{c + 1}", alt[j - 1]))
    names = tuple(f"x{i}" for i in range(k))
    net = build_network(states, DEST_STATE, arcs, names)
    return _corridor_network(net.states, net.index["m0_0"], net.destination_index,
                             net.arc_from, net.arc_to, net.attrs, names)[0]


def composite_from_path(net_kind: str, path) -> frozenset[int]:
    """Selected-alternative set encoded by an origin-to-destination path.

    ``net_kind`` is "bic" or "muc"; works on the state-id conventions of the
    builders above.
    """
    chosen = []
    if net_kind == "bic":
        prev_c = 0
        for s in path[1:]:
            if s == DEST_STATE:
                break
            i, c = (int(t) for t in s[1:].split("_"))
            if c == prev_c + 1:
                chosen.append(i - 1)
            prev_c = c
    elif net_kind == "muc":
        for s in path[1:]:
            if s == DEST_STATE:
                break
            i, _c = (int(t) for t in s[1:].split("_"))
            chosen.append(i - 1)
    else:
        raise ValueError(f"unknown kind {net_kind!r}")
    return frozenset(chosen)
