"""Observation sets, their sufficient statistics, ground-truth sampling and
JSON Lines I/O.

An :class:`ObservationSet` stores paths as CSR arrays over state ids, with
each observation's origin, destination group and attribute sum.  The
likelihoods read its cached ``statistics`` (per group the origin counts,
attribute total and size) and, for NRL, its per-arc counts on a network.
``Observation`` objects are a view, built when ``observations`` is read.

``generate_observations`` samples all paths at once, one transition per
step, from one counter-based stream per dataset, so output is byte-for-byte
reproducible per seed.  Cyclic ground truth goes through the layered-DAG
conversion (``generate_observations_via_layered``), which bounds walk length.
The sampler picks each step's arc within the current state's segment of the
network's tail layout (``Network.tail_order``) and returns index paths as CSR
arrays (start states, the arc taken at each step, path lengths); one helper
turns them into a set, summing attributes per path-length group.  Sampled
paths follow the network's arcs and are not re-validated.
``load_observations`` checks a file's paths in one array pass and builds its
set through the same helper; ``make_observation`` checks one path with
``core.validate_path``.
``save_observations`` renders each state id once and joins the lines.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat

import numpy as np

from . import core
from .errors import InvalidPath, StepCapExceeded, UnknownState
from .generators import _layered_dag, layered_origin
from .network import Network, canonical_json

STEP_CAP_FACTOR = 10


@dataclass(frozen=True)
class Observation:
    """One observed path from origin to destination with precomputed
    attribute sums (the sufficient statistics for the likelihood)."""

    origin: object
    destination: object
    path: tuple
    attr_sum: np.ndarray


@dataclass(frozen=True)
class GroupStatistics:
    """One destination group: origin counts by state id (first-seen order),
    summed attribute vector of its paths, and their number."""

    origin_counts: dict
    attr_total: np.ndarray
    n_obs: int

    def origin_weights(self, net: Network) -> tuple[np.ndarray, np.ndarray]:
        """(state indices on ``net``, counts) of the observed origins."""
        idx = np.array([net.state_index(s) for s in self.origin_counts], dtype=int)
        return idx, np.array(list(self.origin_counts.values()), dtype=float)


@dataclass(frozen=True)
class ObservationStatistics:
    """Everything the NFXP and ECP likelihoods read from an ObservationSet."""

    groups: dict  # destination -> GroupStatistics


class ObservationSet:
    """Observed paths grouped by destination, bound to one network, stored
    as arrays that do not index into the network, so sets may pool paths of
    several networks.

    Paths are CSR over state ids: path n visits ``state_ids[c]`` for c in
    ``flat[ptr[n]:ptr[n + 1]]``; ``state_ids`` begins with the network's
    states.  Per observation: its origin's code in ``origins``, its
    destination's position in ``group_keys`` (``group_of``) and its row of
    ``attr_sums``.  ``ObservationSet(net, observations)`` converts a list of
    :class:`Observation` objects, which it keeps as ``observations``; sets
    built from arrays make that list on first read.
    """

    def __init__(self, network: Network, observations=()):
        view = list(observations)
        code, keys = dict(network.index), {}  # state id -> code, destination -> group

        def codes(ids, table):
            return np.array([table.setdefault(s, len(table)) for s in ids], dtype=np.intp)

        self._store(network, codes((s for ob in view for s in ob.path), code),
                    np.cumsum([0] + [len(ob.path) for ob in view], dtype=np.intp),
                    codes((ob.origin for ob in view), code),
                    codes((ob.destination for ob in view), keys),
                    np.array([ob.attr_sum for ob in view], dtype=float) if view
                    else np.zeros((0, network.n_attributes)),
                    tuple(code), tuple(keys), view)

    @classmethod
    def _from_paths(cls, net: Network, flat, ptr, attr_sums) -> "ObservationSet":
        """Set of state-index paths on ``net`` (CSR ``flat``, ``ptr``)."""
        obs, n = cls.__new__(cls), len(ptr) - 1
        obs._store(net, flat, ptr, flat[ptr[:-1]], np.zeros(n, dtype=np.intp), attr_sums,
                   net.states, (net.destination,) if n else (), None)
        return obs

    def _store(self, network, flat, ptr, origins, group_of, attr_sums, state_ids,
               group_keys, view):
        self.network, self.state_ids, self.group_keys = network, state_ids, group_keys
        self.flat, self.ptr, self.origins = flat, ptr, origins
        self.group_of, self.attr_sums = group_of, attr_sums
        # destination -> observation indices
        self.groups = {key: np.flatnonzero(group_of == g) for g, key in enumerate(group_keys)}
        self._view = view
        self._arc_counts = None  # (network, counts) of the last arc_counts call

    def __len__(self):
        return len(self.ptr) - 1

    @property
    def observations(self) -> list[Observation]:
        """The observations as :class:`Observation` objects, in order."""
        if self._view is None:
            ids = np.array(self.state_ids, dtype=object)
            names, origins = ids[self.flat].tolist(), ids[self.origins].tolist()
            ptr = self.ptr.tolist()
            self._view = [Observation(o, self.group_keys[g], tuple(names[a:b]), row)
                          for o, g, a, b, row in zip(origins, self.group_of.tolist(), ptr[:-1],
                                                     ptr[1:], self.attr_sums)]
        return self._view

    def net_by_group(self) -> dict:
        return {g: self.network for g in self.groups}

    def arc_counts(self, net: Network) -> np.ndarray:
        """How often the paths traverse each arc of ``net``, by one array
        lookup of their (from, to) pairs; kept for the last network asked
        for.  UnknownState or UnknownArc names the first pair that is no arc
        of ``net``."""
        if self._arc_counts is None or self._arc_counts[0] is not net:
            index = np.array([net.index.get(s, -1) for s in self.state_ids], dtype=np.intp)
            states, at = index[self.flat], _step_starts(self.ptr)
            arcs = net.arc_indices(states[at], states[at + 1])
            if np.any(arcs < 0):
                p = at[np.argmax(arcs < 0)]
                net.arc_id(self.state_ids[self.flat[p]], self.state_ids[self.flat[p + 1]])
            counts = np.bincount(arcs, minlength=net.n_arcs).astype(float)
            counts.flags.writeable = False
            self._arc_counts = (net, counts)
        return self._arc_counts[1]

    @cached_property
    def statistics(self) -> ObservationStatistics:
        """Sufficient statistics, computed on first use and cached.  Origin
        counts keep first-seen order.  Attribute totals are running sums in
        observation order, bit for bit the per-observation loop, so the
        conic objective built from them is reproducible."""
        groups = {}
        for key, idx in self.groups.items():
            origin_counts = {self.state_ids[c]: n
                             for c, n in Counter(self.origins[idx].tolist()).items()}
            rows = np.vstack([np.zeros(self.attr_sums.shape[1]), self.attr_sums[idx]])
            groups[key] = GroupStatistics(origin_counts, np.cumsum(rows, axis=0)[-1].copy(),
                                          len(idx))
        return ObservationStatistics(groups)


def _step_starts(ptr) -> np.ndarray:
    """Positions of CSR paths (see ``ObservationSet``) that start a step:
    every position but the last of its path."""
    step = np.ones(ptr[-1], dtype=bool)
    step[ptr[1:][ptr[1:] > ptr[:-1]] - 1] = False
    return np.flatnonzero(step)


def make_observation(net: Network, path) -> Observation:
    attr_sum = core.path_attr_sum(net, path)
    return Observation(path[0], net.destination, tuple(path), attr_sum)


def sample_path(
    net: Network,
    spec: core.UtilitySpec,
    vf: core.ValueField,
    origin,
    rng: np.random.Generator,
) -> Observation:
    """Sample one path by sequential choice from P(s'|s) with the batch
    sampler.  Raises StepCapExceeded after 10 x |states| transitions (cycle
    safety); the caller resamples."""
    probs = core.choice_probabilities(net, spec, vf)
    walk = _sample_paths_batch(net, probs, [net.state_index(origin)], rng)
    return _observations(net, *walk).observations[0]


def _sample_paths_batch(net, probs, start_states, rng):
    """Vectorized sequential sampling for many paths at once.

    Per step one uniform is drawn for every still-active path (ascending
    path order), so results are deterministic for a given stream.  A walk
    may take up to 10 x |states| transitions.

    Returns CSR arrays ``(starts, arcs, lengths)``: walk n starts at state
    index ``starts[n]`` and takes the ``lengths[n]`` arcs that follow those of
    walks 0..n-1 in ``arcs``.
    """
    dest = net.destination_index
    cap = STEP_CAP_FACTOR * net.n_states
    # each state's arcs as one segment of the network's tail order; within a
    # segment the normalized cumulative probabilities, summed in segment
    # order exactly as np.cumsum does
    order, first, deg = net.tail_order, net.tail_offsets[:-1], np.diff(net.tail_offsets)
    p = probs[order]
    cum = p.copy()
    rank = np.arange(len(order)) - net.tail_starts[net.tail_segment]
    for k in range(1, int(deg.max(initial=0))):
        at = np.flatnonzero(rank == k)
        cum[at] = cum[at - 1] + p[at]
    cum /= cum[net.tail_offsets[net.tail_owners + 1] - 1][net.tail_segment]

    starts = np.array(start_states, dtype=np.intp)
    cur = starts.copy()
    active = np.flatnonzero(cur != dest)
    walks, taken = [active[:0]], [active[:0]]
    for _ in range(cap):
        if len(active) == 0:
            break
        u = rng.random(len(active))
        here_first, here_last = first[cur[active]], deg[cur[active]] - 1
        # searchsorted(segment, u): the number of segment entries below u;
        # the last entry is 1 and never counts
        pick = np.zeros(len(active), dtype=np.intp)
        for k in range(int(here_last.max())):
            inside = k < here_last
            pick += inside & (cum[here_first + np.where(inside, k, 0)] < u)
        arc = order[here_first + pick]
        walks.append(active)
        taken.append(arc)
        cur[active] = net.arc_to[arc]
        active = active[cur[active] != dest]
    if len(active):
        raise StepCapExceeded(f"{len(active)} walks still active after {cap} steps")
    walk_of_step = np.concatenate(walks)
    arcs = np.concatenate(taken)[np.argsort(walk_of_step, kind="stable")]
    return starts, arcs, np.bincount(walk_of_step, minlength=len(starts))


def _observations(net: Network, starts, arcs, lengths) -> ObservationSet:
    """Set of the index paths in CSR form (see ``_sample_paths_batch``),
    which must follow ``net``'s arcs.

    Attribute sums are taken per path-length group as
    ``attrs[arcs[steps]].sum(axis=1)``, bitwise equal to the per-path
    ``attrs[path_arcs].sum(axis=0)`` of ``make_observation``.
    """
    if np.any(lengths == 0):
        raise InvalidPath("path must contain at least one transition")
    n = len(lengths)
    ends = np.cumsum(lengths)
    attr_sum = np.empty((n, net.n_attributes))
    for length in np.unique(lengths):
        group = np.flatnonzero(lengths == length)
        steps = (ends[group] - length)[:, None] + np.arange(length)
        attr_sum[group] = net.attrs[arcs[steps]].sum(axis=1)
    # state sequences: each path's start followed by the heads of its arcs
    flat = np.insert(net.arc_to[arcs], ends - lengths, starts)
    ptr = np.concatenate(([0], ends + np.arange(1, n + 1))).astype(np.intp)
    return ObservationSet._from_paths(net, flat, ptr, attr_sum)


def generate_observations(
    net: Network,
    spec: core.UtilitySpec,
    origins,
    n_obs: int,
    seed: int,
) -> ObservationSet:
    """Sample ``n_obs`` observations on ``net``; origins are drawn uniformly
    from ``origins``.  Deterministic per seed."""
    if isinstance(origins, (str, int)):
        origins = [origins]
    origin_idx = np.asarray([net.state_index(o) for o in origins], dtype=int)
    if n_obs == 0:
        return ObservationSet(net, [])
    return _observations(net, *_sample(net, spec, origin_idx, n_obs, seed))


def _sample(net: Network, spec: core.UtilitySpec, origin_idx, n_obs: int, seed: int):
    """Index paths in CSR form (see ``_sample_paths_batch``) of ``n_obs``
    walks from origins drawn uniformly from ``origin_idx``."""
    vf = core.solved_values(net, spec)
    probs = core.choice_probabilities(net, spec, vf)
    rng = np.random.Generator(np.random.Philox(seed))
    starts = origin_idx[rng.integers(0, len(origin_idx), size=n_obs)]
    return _sample_paths_batch(net, probs, starts, rng)


def generate_observations_via_layered(
    net: Network,
    spec: core.UtilitySpec,
    origins,
    n_obs: int,
    seed: int,
) -> ObservationSet:
    """Ground truth for cyclic networks: sample on the layered-DAG unrolling
    and map the walks back to ``net``'s states and arcs by index, dropping
    the destination padding steps.  The returned set is bound to ``net``."""
    if isinstance(origins, (str, int)):
        origins = [origins]
    if len(set(origins)) != 1:
        raise UnknownState("layered generation expects a single origin")
    origin = origins[0]
    layered, base_state, base_arc = _layered_dag(net, origin)
    if n_obs == 0:
        return ObservationSet(net, [])
    origin_idx = np.array([layered.state_index(layered_origin(origin))])
    starts, arcs, lengths = _sample(layered, spec, origin_idx, n_obs, seed)
    arcs = base_arc[arcs]
    real = arcs >= 0
    path_of = np.repeat(np.arange(n_obs), lengths)
    lengths = np.bincount(path_of[real], minlength=n_obs)
    return _observations(net, base_state[starts], arcs[real], lengths)


# --- JSON Lines serialization ---------------------------------------------
#
# One line per observation, ``{"origin": ..., "dest": ..., "path": [...]}``
# in canonical JSON.


def save_observations(obs: ObservationSet, path) -> None:
    """Write ``obs`` as JSON Lines.  Each state id and destination is
    rendered once with ``canonical_json`` and the lines are joined from
    those pieces, byte for byte the canonical form of each line's object."""
    names = np.array([canonical_json(s) for s in obs.state_ids], dtype=object)
    dests = [canonical_json(key) for key in obs.group_keys]
    steps, origins = names[obs.flat].tolist(), names[obs.origins].tolist()
    ptr = obs.ptr.tolist()
    with open(path, "w") as fh:
        fh.writelines(f'{{"origin": {o}, "dest": {dests[g]}, "path": [{", ".join(steps[a:b])}]}}\n'
                      for o, g, a, b in zip(origins, obs.group_of.tolist(), ptr[:-1], ptr[1:]))


def load_observations(path, net: Network) -> ObservationSet:
    """Load observations of ``net``'s destination, recomputing attribute sums.

    Each non-empty line must be an object with ``origin``, ``dest`` and a
    ``path`` list: ``dest`` is the destination, the path a walk on ``net``
    that ends there, and ``origin`` its first state.  InvalidPath names the
    first line that breaks a rule, or, for a bad path, carries the message
    of ``core.validate_path``.  All paths are checked in one array pass.
    """
    flat, sizes, fault = _read_paths(path, net)
    idx, sizes = np.array(flat, dtype=np.intp), np.array(sizes, dtype=np.intp)
    ptr = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
    at = _step_starts(ptr)
    arcs = net.arc_indices(idx[at], idx[at + 1])
    bad = sizes < 2
    bad[sizes > 0] |= idx[ptr[1:][sizes > 0] - 1] != net.destination_index
    bad[np.repeat(np.arange(len(sizes)), np.maximum(sizes - 1, 0))[arcs < 0]] = True
    if bad.any():
        with open(path) as fh:  # the bad path's line: the argmax-th non-empty one
            line = next(islice(filter(str.strip, fh), int(np.argmax(bad)), None))
        core.validate_path(net, json.loads(line)["path"])
        raise AssertionError("unreachable: validate_path accepts a rejected path")
    if fault is not None:
        raise fault
    return _observations(net, idx[ptr[:-1]], arcs, sizes - 1)


def _read_paths(path, net: Network):
    """The paths of the non-empty lines as one flat list of state indices (-1
    for no state) and their sizes, with the InvalidPath of the first line
    that fails a per-line check, or None.  Reading stops at that line, whose
    path is kept only when its origin is at fault: the path's check comes
    first.  A path with an unhashable id is bad; it ends the reading with
    size 0."""
    decode, get, missing = json.JSONDecoder().raw_decode, net.index.get, repeat(-1)
    flat, sizes, fault = [], [], None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not (line := line.strip()):
                continue
            try:
                doc, end = decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
                origin, dest, steps = doc["origin"], doc["dest"], doc["path"]
            except json.JSONDecodeError as exc:
                fault = f"malformed JSON: {exc.msg} at column {exc.colno}"
                break
            except (KeyError, TypeError):  # no object, or a field missing
                steps = None
            if type(steps) is not list:
                fault = 'expected an object with "origin", "dest" and a "path" list'
                break
            if dest != net.destination:
                fault = f"destination {dest!r} not this network's"
                break
            try:
                flat.extend(map(get, steps, missing))
            except TypeError:
                del flat[sum(sizes):]
                sizes.append(0)
                break
            sizes.append(len(steps))
            if steps and origin != steps[0]:
                fault = f"origin {origin!r} is not the path's first state {steps[0]!r}"
                break
    return flat, sizes, fault and InvalidPath(f"line {lineno}: {fault}")
