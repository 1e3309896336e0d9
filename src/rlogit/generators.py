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
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DisconnectedInstance, InvalidBounds, UnknownState
from .network import Network, build_network, coreachable_to, reachable_from

ROUTE_ATTRIBUTES = ("TT", "LT", "RT", "UT")

ORIGIN_STATE = "o"
DEST_STATE = "d"


def turn_indicators(angle_deg: float) -> tuple[float, float, float]:
    """(LT, RT, UT) indicators for a signed turn angle in degrees.

    Left turns lie in [30, 150], right turns in [-150, -30], U-turns have
    absolute angle above 150.  Straight continuations fire nothing.
    """
    lt = 1.0 if 30.0 <= angle_deg <= 150.0 else 0.0
    rt = 1.0 if -150.0 <= angle_deg <= -30.0 else 0.0
    ut = 1.0 if abs(angle_deg) > 150.0 else 0.0
    return lt, rt, ut


def _signed_angle_deg(v1, v2) -> float:
    a = math.degrees(
        math.atan2(v1[0] * v2[1] - v1[1] * v2[0], v1[0] * v2[0] + v1[1] * v2[1])
    )
    return a


def arc_state_id(i: int, j: int) -> str:
    return f"{i}-{j}"


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

    States are directed road arcs plus a virtual origin state ``"o"`` (a
    zero-length arc into the origin node) and an absorbing destination state
    ``"d"``.  A transition to arc (j, k) carries TT equal to the arc length
    and LT/RT/UT turn indicators.  States not on any origin-to-destination
    walk are dropped.  ``extra_attributes`` appends i.i.d. uniform [0, 1]
    columns (used by parameter-count sweeps).

    Raises DisconnectedInstance when the origin cannot reach the destination;
    the caller regenerates with a new seed.
    """
    if n_nodes < 3:
        raise InvalidBounds("need at least 3 nodes")
    if not radius > 0:
        raise InvalidBounds("radius must be positive")
    rng = np.random.default_rng(seed)
    pos = rng.random((n_nodes, 2))

    origin_node = int(np.argmin(pos[:, 0]))
    dest_node = int(np.argmax(pos[:, 0]))

    # all pairwise distances in one call; bitwise equal to per-pair np.hypot,
    # so seeded networks do not change
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    road_arcs: list[tuple[int, int]] = []
    for i, j in zip(*np.nonzero(np.triu(dist <= radius, k=1))):
        lo, hi = (int(i), int(j)) if pos[i, 0] <= pos[j, 0] else (int(j), int(i))
        road_arcs.append((lo, hi))
        if not acyclic:
            road_arcs.append((hi, lo))

    def length(i, j):
        return float(dist[i, j])

    out_by_node: dict[int, list[tuple[int, int]]] = {}
    for (i, j) in road_arcs:
        out_by_node.setdefault(i, []).append((i, j))

    states = [ORIGIN_STATE] + [arc_state_id(i, j) for i, j in road_arcs] + [DEST_STATE]
    arcs = []
    n_extra = int(extra_attributes)

    def attr_vec(tt, lt, rt, ut):
        base = [tt, lt, rt, ut]
        if n_extra:
            base.extend(rng.random(n_extra))
        return np.asarray(base)

    # virtual origin: straight entry into each arc leaving the origin node
    for (i, j) in out_by_node.get(origin_node, []):
        arcs.append((ORIGIN_STATE, arc_state_id(i, j), attr_vec(length(i, j), 0, 0, 0)))
    # arc-to-arc transitions
    for (i, j) in road_arcs:
        v1 = pos[j] - pos[i]
        for (j2, k) in out_by_node.get(j, []):
            v2 = pos[k] - pos[j]
            ang = _signed_angle_deg(v1, v2)
            lt, rt, ut = turn_indicators(ang)
            arcs.append(
                (arc_state_id(i, j), arc_state_id(j, k), attr_vec(length(j, k), lt, rt, ut))
            )
    # absorbing destination
    for (i, j) in road_arcs:
        if j == dest_node:
            arcs.append((arc_state_id(i, j), DEST_STATE, attr_vec(0, 0, 0, 0)))

    names = ROUTE_ATTRIBUTES + tuple(f"X{i}" for i in range(n_extra))
    positions = {str(i): (float(pos[i, 0]), float(pos[i, 1])) for i in range(n_nodes)}
    net = build_network(states, DEST_STATE, arcs, names, positions)
    return _prune_to_corridor(net, ORIGIN_STATE)


def _prune_to_corridor(net: Network, origin) -> Network:
    """Restrict to states reachable from origin and co-reachable to the
    destination; raises DisconnectedInstance if that leaves no path."""
    fwd = reachable_from(net, origin)
    bwd = coreachable_to(net, net.destination)
    keep = (fwd & bwd) | {net.destination}
    if origin not in keep or len(keep) < 2:
        raise DisconnectedInstance("origin cannot reach destination")
    states = [s for s in net.states if s in keep]
    arcs = [(u, v, vec) for u, v, vec in net.arcs() if u in keep and v in keep]
    return build_network(states, net.destination, arcs, net.attribute_names, net.positions)


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
    if destination is None:
        destination = net.destination
    if origin not in net.index or destination not in net.index:
        raise UnknownState(f"unknown origin/destination {origin!r}/{destination!r}")

    n_layers = net.n_states
    zero = np.zeros(net.n_attributes)

    def copy_id(s, k):
        return f"{s}@{k}"

    states = [copy_id(s, k) for k in range(n_layers) for s in net.states]
    layered_dest = copy_id(destination, n_layers - 1)

    arcs = []
    for k in range(n_layers - 1):
        for a in range(net.n_arcs):
            u = net.states[net.arc_from[a]]
            v = net.states[net.arc_to[a]]
            arcs.append((copy_id(u, k), copy_id(v, k + 1), net.attrs[a]))
        arcs.append((copy_id(destination, k), copy_id(destination, k + 1), zero))

    layered = build_network(states, layered_dest, arcs, net.attribute_names, net.positions)
    return _prune_to_corridor(layered, copy_id(origin, 0))


def project_layered_path(path) -> list:
    """Map a layered-DAG state sequence back to original state ids,
    collapsing consecutive duplicates (destination padding steps)."""
    out = []
    for s in path:
        base = s.rsplit("@", 1)[0] if isinstance(s, str) and "@" in s else s
        if not out or out[-1] != base:
            out.append(base)
    return out


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
    return _prune_to_corridor(net, "m0_0")


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
