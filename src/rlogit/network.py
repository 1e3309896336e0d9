"""Directed state networks with an absorbing destination.

A :class:`Network` is the state graph of a sequential choice process: a set of
state ids, one absorbing destination, and attributed arcs between states.
Attribute vectors all share the same length K and are stored as a dense
``(n_arcs, K)`` matrix.  Instances are immutable after construction and safe
to share across threads.

Every network is built by one array-level constructor,
:func:`network_from_arrays`: it takes state indices per arc and the attribute
matrix and runs all validity checks on whole arrays.  :func:`build_network`
is its front end for ``(from, to, attributes)`` triples; generators call the
constructor directly.

Indices derived from the arc arrays (the CSR grouping of arcs by tail state,
a DAG's levels, the free rows of the value system, the sorted pair keys) are
computed once, on the network, and every consumer reads them there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DanglingEndpoint,
    DestinationHasSuccessors,
    DuplicateArc,
    InvalidPenalty,
    UnknownArc,
    UnknownState,
)

StateId = int | str


@dataclass(frozen=True)
class Network:
    """Immutable directed state graph with one absorbing destination.

    Attributes:
        states: state ids in canonical order.
        destination: absorbing state id (no outgoing arcs).
        arc_from / arc_to: integer state indices per arc.
        attrs: (n_arcs, K) attribute matrix.
        attribute_names: K column names.
        positions: optional mapping node -> (x, y), carried by generators.

    Derived indices are cached on first use; the arrays among them are
    read-only.
    """

    states: tuple[StateId, ...]
    destination: StateId
    arc_from: np.ndarray
    arc_to: np.ndarray
    attrs: np.ndarray
    attribute_names: tuple[str, ...]
    positions: dict | None = None

    # --- derived indices --------------------------------------------------

    @cached_property
    def index(self) -> dict:
        return dict(zip(self.states, range(len(self.states))))

    @cached_property
    def arc_lookup(self) -> dict:
        pairs = zip(self.arc_from.tolist(), self.arc_to.tolist())
        return dict(zip(pairs, range(self.n_arcs)))

    @cached_property
    def tail_order(self) -> np.ndarray:
        """Arc indices sorted stably by tail state: each state's out-arcs
        form one contiguous segment, in ascending arc order."""
        return _read_only(np.argsort(self.arc_from, kind="stable"))

    @cached_property
    def tail_offsets(self) -> np.ndarray:
        """State i's out-arcs are ``tail_order[tail_offsets[i]:tail_offsets[i + 1]]``."""
        counts = np.bincount(self.arc_from, minlength=self.n_states)
        return _read_only(np.concatenate([[0], np.cumsum(counts)]))

    @cached_property
    def tail_owners(self) -> np.ndarray:
        """States with at least one out-arc, ascending: the segment owners."""
        return _read_only(np.flatnonzero(np.diff(self.tail_offsets)))

    @cached_property
    def tail_starts(self) -> np.ndarray:
        """Start of each owner's segment in ``tail_order``."""
        return _read_only(self.tail_offsets[self.tail_owners])

    @cached_property
    def tail_segment(self) -> np.ndarray:
        """Segment index of each arc of ``tail_order``."""
        sizes = np.diff(self.tail_offsets)[self.tail_owners]
        return _read_only(np.repeat(np.arange(len(sizes)), sizes))

    @cached_property
    def free_states(self) -> np.ndarray:
        """Non-destination states: the rows of the exp-space value system."""
        return _read_only(np.delete(np.arange(self.n_states), self.destination_index))

    @cached_property
    def free_row(self) -> np.ndarray:
        """Row of each state in ``free_states``, -1 at the destination."""
        row = np.full(self.n_states, -1)
        row[self.free_states] = np.arange(len(self.free_states))
        return _read_only(row)

    @cached_property
    def levels(self) -> tuple | None:
        """The arcs by their tail's level from level 1 up; None if the network
        has a directed cycle.  A state's level, the length of its longest walk
        to a state with no out-arc, is set once none of its arcs is ``left`` to
        an unlevelled state.  Each level is read-only arrays: its arcs in tail
        order, each tail segment's start and tail, and each arc's segment."""
        left, level = np.diff(self.tail_offsets), np.full(self.n_states, -1)
        front, k = left == 0, 0
        while front.any():
            level[front] = k
            left = left - np.bincount(self.arc_from, front[self.arc_to], self.n_states)
            front, k = (left == 0) & (level < 0), k + 1
        if np.any(level < 0):
            return None
        order = self.tail_order[np.argsort(level[self.arc_from[self.tail_order]], kind="stable")]
        tails = self.arc_from[order]
        new_tail = np.diff(tails, prepend=-1) != 0
        first, seg = np.flatnonzero(new_tail), np.cumsum(new_tail) - 1
        arc_end, seg_end = (np.searchsorted(level[t], np.arange(1, k + 1))
                            for t in (tails, tails[first]))
        return tuple(tuple(_read_only(a) for a in (order[a0:a1], first[s0:s1] - a0,
                                                    tails[first[s0:s1]], seg[a0:a1] - s0))
                     for a0, a1, s0, s1 in zip(arc_end, arc_end[1:], seg_end, seg_end[1:]))

    @property
    def acyclic(self) -> bool:
        """Whether no directed cycle exists (``levels`` is not None)."""
        return self.levels is not None

    @cached_property
    def free_pattern(self) -> tuple[np.ndarray, ...]:
        """Canonical CSC pattern of I - W on the free rows, where W has one
        entry per arc between free states: (indptr, indices, the slot of
        each diagonal entry, the arcs between free states, their slots).
        A self-loop's slot is its diagonal one."""
        m = len(self.free_states)
        inner = np.flatnonzero(self.arc_to != self.destination_index)
        rows = np.concatenate([np.arange(m), self.free_row[self.arc_from[inner]]])
        cols = np.concatenate([np.arange(m), self.free_row[self.arc_to[inner]]])
        keys, slot = np.unique(cols * m + rows, return_inverse=True)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // m, minlength=m))])
        return tuple(_read_only(a) for a in (indptr, keys % m, slot[:m], inner, slot[m:]))

    @cached_property
    def _arc_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted keys from * n_states + to, ended by -1, and their arcs."""
        keys = self.arc_from * self.n_states + self.arc_to
        order = np.argsort(keys)
        return _read_only(np.append(keys[order], -1)), _read_only(np.append(order, -1))

    # --- basic queries ----------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_arcs(self) -> int:
        return len(self.arc_from)

    @property
    def n_attributes(self) -> int:
        return self.attrs.shape[1]

    @property
    def destination_index(self) -> int:
        return self.index[self.destination]

    def state_index(self, state: StateId) -> int:
        try:
            return self.index[state]
        except KeyError:
            raise UnknownState(f"unknown state {state!r}") from None

    def out_arcs(self, idx: int) -> np.ndarray:
        """Arcs leaving state index ``idx``, ascending."""
        return self.tail_order[self.tail_offsets[idx]:self.tail_offsets[idx + 1]]

    def successors(self, state: StateId) -> list[StateId]:
        idx = self.state_index(state)
        return [self.states[j] for j in self.arc_to[self.out_arcs(idx)].tolist()]

    def predecessors(self, state: StateId) -> list[StateId]:
        idx = self.state_index(state)
        return [self.states[i] for i in self.arc_from[self.arc_to == idx].tolist()]

    def arc_id(self, from_state: StateId, to_state: StateId) -> int:
        key = (self.state_index(from_state), self.state_index(to_state))
        try:
            return self.arc_lookup[key]
        except KeyError:
            raise UnknownArc(f"no arc {from_state!r} -> {to_state!r}") from None

    def arc_indices(self, from_idx, to_idx) -> np.ndarray:
        """Arc index of each (from, to) pair of state-index arrays, -1 where
        the pair is no arc or an index is -1."""
        keys, order = self._arc_keys
        from_idx, to_idx = np.asarray(from_idx), np.asarray(to_idx)
        query = np.where((from_idx < 0) | (to_idx < 0), -2, from_idx * self.n_states + to_idx)
        pos = np.searchsorted(keys[:-1], query)
        return np.where(keys[pos] == query, order[pos], -1)

    def arcs(self) -> Iterable[tuple[StateId, StateId, np.ndarray]]:
        for a in range(self.n_arcs):
            yield (self.states[self.arc_from[a]], self.states[self.arc_to[a]], self.attrs[a])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def network_from_arrays(
    states: Sequence[StateId],
    destination: StateId,
    arc_from,
    arc_to,
    attrs,
    attribute_names: Sequence[str] | None = None,
    positions: dict | None = None,
    arc_ids: Sequence[tuple] | None = None,
) -> Network:
    """Build a validated :class:`Network` from per-arc state indices and an
    ``(n_arcs, K)`` attribute matrix.

    Raises :class:`DuplicateArc` on repeated state ids or arcs,
    :class:`DanglingEndpoint` on an endpoint index outside the states, a
    destination outside the states or a mismatched attribute shape, and
    :class:`DestinationHasSuccessors` on an arc leaving the destination.  The
    checks run on whole arrays; of several invalid arcs the first in arc
    order is reported, with the first of its failed checks in that order.
    ``arc_ids`` names the arcs' endpoints in messages (default: the state ids
    at their indices, or the index where it is out of range).
    """
    states = tuple(states)
    n = len(states)
    if len(set(states)) != n:
        raise DuplicateArc("duplicate state ids")
    if destination not in states:
        raise DanglingEndpoint(f"destination {destination!r} not in states")
    arc_from = np.asarray(arc_from, dtype=np.intp)
    arc_to = np.asarray(arc_to, dtype=np.intp)
    attrs = np.asarray(attrs, dtype=float)
    m = len(arc_from)
    if attrs.ndim != 2 or attrs.shape[0] != m or arc_to.shape != (m,):
        raise DanglingEndpoint("attrs must be an (n_arcs, K) matrix, one row per arc")

    dangling = (arc_from < 0) | (arc_from >= n) | (arc_to < 0) | (arc_to >= n)
    from_dest = arc_from == states.index(destination)
    # a repeated (from, to) pair flags every occurrence after the first;
    # dangling arcs get keys of their own
    key = np.where(dangling, -1 - np.arange(m), arc_from * n + arc_to)
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(m, dtype=bool)
    repeat[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    bad = dangling | from_dest | repeat
    if bad.any():
        a = int(np.argmax(bad))
        u, v = arc_ids[a] if arc_ids is not None else (
            states[i] if 0 <= i < n else i for i in (int(arc_from[a]), int(arc_to[a])))
        if dangling[a]:
            raise DanglingEndpoint(f"arc ({u!r}, {v!r}) references unknown state")
        if from_dest[a]:
            raise DestinationHasSuccessors(
                f"destination {destination!r} has outgoing arc to {v!r}"
            )
        raise DuplicateArc(f"duplicate arc ({u!r}, {v!r})")

    if attribute_names is None:
        attribute_names = tuple(f"attr{i}" for i in range(attrs.shape[1]))
    else:
        attribute_names = tuple(attribute_names)
        if len(attribute_names) != attrs.shape[1]:
            raise DanglingEndpoint("attribute_names length does not match attributes")

    return Network(
        states=states,
        destination=destination,
        arc_from=arc_from,
        arc_to=arc_to,
        attrs=attrs,
        attribute_names=attribute_names,
        positions=dict(positions) if positions else None,
    )


def build_network(
    states: Sequence[StateId],
    destination: StateId,
    arcs: Sequence[tuple],
    attribute_names: Sequence[str] | None = None,
    positions: dict | None = None,
) -> Network:
    """Build a validated :class:`Network` from ``(from, to, attributes)``
    triples.

    Maps the ids to state indices and stacks the attribute vectors, then
    hands them to :func:`network_from_arrays`, which checks them and raises
    :class:`DuplicateArc`, :class:`DanglingEndpoint` or
    :class:`DestinationHasSuccessors` on invalid input.
    """
    states = tuple(states)
    index = dict(zip(states, range(len(states))))
    ids = [(u, v) for u, v, _ in arcs]
    arc_from = np.array([index.get(u, -1) for u, _ in ids], dtype=np.intp)
    arc_to = np.array([index.get(v, -1) for _, v in ids], dtype=np.intp)
    if not ids:
        attrs = np.zeros((0, len(attribute_names) if attribute_names else 0))
    else:
        attrs, b = _attribute_matrix([vec for _, _, vec in arcs])
        if b is not None:
            # arc b's vector has the wrong length: report that unless an
            # earlier arc or b's own endpoints fail first
            network_from_arrays(states, destination, arc_from[:b + 1], arc_to[:b + 1],
                                np.zeros((b + 1, attrs.shape[1])), arc_ids=ids[:b + 1])
            shape = np.atleast_1d(np.asarray(arcs[b][2], dtype=float)).shape
            raise DanglingEndpoint(f"arc ({ids[b][0]!r}, {ids[b][1]!r}) attribute length "
                                   f"{shape} != ({attrs.shape[1]},)")
    return network_from_arrays(states, destination, arc_from, arc_to, attrs,
                               attribute_names, positions, arc_ids=ids)


def _attribute_matrix(vectors: list) -> tuple[np.ndarray, int | None]:
    """Per-arc attribute vectors (scalars count as length one) stacked into
    an ``(n_arcs, K)`` matrix, K being the first vector's length, and None;
    or, when some vector has another length, an empty ``(0, K)`` matrix and
    the index of the first such vector."""
    k = len(np.atleast_1d(vectors[0]))
    try:
        attrs = np.asarray(vectors, dtype=float)
    except ValueError:  # ragged
        attrs = np.zeros(0)
    if attrs.ndim == 1 and k == 1 and len(attrs) == len(vectors):
        attrs = attrs[:, None]
    if attrs.shape == (len(vectors), k):
        return attrs, None
    rows = [np.atleast_1d(np.asarray(vec, dtype=float)) for vec in vectors]
    bad = [b for b, row in enumerate(rows) if row.shape != (k,)]
    if bad:
        return np.zeros((0, k)), bad[0]
    return np.array(rows), None


def _reachable(net: Network, starts, reverse: bool = False, allowed=None) -> np.ndarray:
    """Boolean state mask of everything reachable from the ``starts``
    indices (included), walking arcs backwards when ``reverse`` and, when an
    ``allowed`` mask is given, only through allowed states."""
    return _reach(net.n_states, net.arc_from, net.arc_to, starts, reverse, allowed)


def _reach(n_states, arc_from, arc_to, starts, reverse=False, allowed=None) -> np.ndarray:
    """:func:`_reachable` on bare arc arrays, for arcs not yet in a network.
    Each pass marks the heads of the arcs out of every marked state, one
    breadth-first level per pass, until a pass marks nothing new."""
    src, dst = (arc_to, arc_from) if reverse else (arc_from, arc_to)
    if allowed is not None:
        usable = allowed[src] & allowed[dst]
        src, dst = src[usable], dst[usable]
    seen = np.zeros(n_states, dtype=bool)
    seen[np.asarray(starts, dtype=int)] = True
    count, marked = 0, np.count_nonzero(seen)
    while marked > count:
        seen[dst[seen[src]]] = True
        count, marked = marked, np.count_nonzero(seen)
    return seen


def _on_walk(n_states, arc_from, arc_to, origin, dest, allowed=None) -> np.ndarray:
    """Mask of the states on some walk from ``origin`` to ``dest`` (through
    ``allowed`` states only, when a mask is given): the states reachable
    from ``origin`` that reach ``dest``.  Both searches run as one
    :func:`_reach` on two copies of the states, the second walked backwards,
    so they take as many passes as the longer of them."""
    n = n_states
    both = _reach(2 * n, np.concatenate([arc_from, arc_to + n]),
                  np.concatenate([arc_to, arc_from + n]), [origin, dest + n],
                  allowed=None if allowed is None else np.tile(allowed, 2))
    return both[:n] & both[n:]


def _kept_arcs(keep, arc_from, arc_to):
    """The mask of the arcs between ``keep`` states, and those arcs'
    endpoints numbered among the kept states."""
    arcs = keep[arc_from] & keep[arc_to]
    new_index = np.cumsum(keep) - 1
    return arcs, new_index[arc_from[arcs]], new_index[arc_to[arcs]]


def reachable_from(net: Network, origin: StateId) -> set[StateId]:
    """Forward-reachable state set (origin included)."""
    mask = _reachable(net, [net.state_index(origin)])
    return {net.states[i] for i in np.flatnonzero(mask)}


def enumerate_paths(net: Network, origin: StateId, max_paths: int = 1_000_000):
    """Enumerate origin-to-destination paths by depth-first search.

    Intended as a brute-force oracle on small DAGs; on cyclic networks only
    simple paths are produced.  Yields state-id lists.
    """
    start = net.state_index(origin)
    dest = net.destination_index
    count = 0
    stack: list[tuple[int, list[int]]] = [(start, [start])]
    while stack:
        node, path = stack.pop()
        if node == dest:
            count += 1
            if count > max_paths:
                raise RuntimeError(f"more than {max_paths} paths")
            yield [net.states[i] for i in path]
            continue
        for j in net.arc_to[net.out_arcs(node)].tolist():
            if j != dest and j in path:
                continue  # skip cycles
            stack.append((j, path + [j]))


def ensure_connectivity(net: Network, origin: StateId, penalty: float) -> Network:
    """Add artificial high-cost arcs so every state is reachable from origin.

    For each unreachable state an arc origin -> state is added whose first
    attribute equals ``penalty`` and all others are zero.  Idempotent when the
    network is already connected.
    """
    if not penalty > 0:
        raise InvalidPenalty(f"penalty must be > 0, got {penalty}")
    missing = [s for s in net.states if s not in reachable_from(net, origin)]
    if not missing:
        return net
    arcs = [(u, v, vec.copy()) for u, v, vec in net.arcs()]
    k = net.n_attributes
    for s in missing:
        vec = np.zeros(k)
        vec[0] = penalty
        arcs.append((origin, s, vec))
    return build_network(net.states, net.destination, arcs, net.attribute_names, net.positions)


# --- JSON serialization ---------------------------------------------------
#
# Canonical form: fixed key order, floats rendered with 17 significant digits
# so dump -> load -> dump is byte-identical.


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x} not serializable")
    return format(float(x), ".17g")


def _render(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_render(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)}")


def canonical_json(obj) -> str:
    """Render nested dict/list data in the package's canonical JSON form."""
    return _render(obj)


def network_to_dict(net: Network) -> dict:
    doc = {
        "states": list(net.states),
        "destination": net.destination,
        "attribute_names": list(net.attribute_names),
        "arcs": [
            {
                "from": net.states[net.arc_from[a]],
                "to": net.states[net.arc_to[a]],
                "attrs": [float(v) for v in net.attrs[a]],
            }
            for a in range(net.n_arcs)
        ],
    }
    if net.positions is not None:
        doc["positions"] = {str(k): [float(v[0]), float(v[1])] for k, v in net.positions.items()}
    return doc


def network_from_dict(doc: dict) -> Network:
    positions = None
    if "positions" in doc and doc["positions"] is not None:
        positions = {k: tuple(v) for k, v in doc["positions"].items()}
    return build_network(
        doc["states"],
        doc["destination"],
        [(a["from"], a["to"], a["attrs"]) for a in doc["arcs"]],
        doc["attribute_names"],
        positions,
    )


def save_network(net: Network, path) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(network_to_dict(net)))
        fh.write("\n")


def load_network(path) -> Network:
    with open(path) as fh:
        return network_from_dict(json.load(fh))
