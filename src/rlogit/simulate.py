"""Observation sets, their sufficient statistics, and ground-truth sampling.

An :class:`ObservationSet` holds observed paths grouped by destination; the
likelihoods read them only through its cached ``statistics``: per group the
origin counts, attribute total and size, and every (from, to) pair's count
(counted on first read).

Paths are sampled from the sequential choice process one transition at a
time.  ``generate_observations`` uses a vectorized batch sampler with a
single counter-based stream per dataset, so output is byte-for-byte
reproducible per seed; ``sample_path`` is the one-at-a-time variant used for
spot checks.  Cyclic ground truth goes through the layered-DAG conversion
(``generate_observations_via_layered``) so sampled walks have bounded length.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from . import core
from .errors import InvalidPath, StepCapExceeded, UnknownState, ValueSolveFailed
from .generators import layered_dag_from_undirected, layered_origin, project_layered_path
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
    """Everything the likelihoods read from an ObservationSet.  Transition
    counts are read only by NRL, so they are counted on first read."""

    groups: dict  # destination -> GroupStatistics
    observations: list = field(repr=False)

    @cached_property
    def transitions(self) -> Counter:
        """(from id, to id) -> count over all paths."""
        return Counter(chain.from_iterable(zip(ob.path, ob.path[1:])
                                           for ob in self.observations))


@dataclass
class ObservationSet:
    """Observations grouped by destination, bound to one network."""

    network: Network
    observations: list[Observation] = field(default_factory=list)
    groups: dict = field(init=False)  # destination -> observation indices

    def __post_init__(self):
        self.groups = {}
        for n, ob in enumerate(self.observations):
            self.groups.setdefault(ob.destination, []).append(n)

    def __len__(self):
        return len(self.observations)

    def net_by_group(self) -> dict:
        return {g: self.network for g in self.groups}

    @cached_property
    def statistics(self) -> ObservationStatistics:
        """Sufficient statistics, computed on first use and cached.  Attribute
        totals are summed observation by observation, so the conic objective
        built from them is reproducible bit for bit."""
        groups = {}
        for key, idxs in self.groups.items():
            counts: dict = {}
            attr_total = np.zeros(self.network.n_attributes)
            for n in idxs:
                ob = self.observations[n]
                counts[ob.origin] = counts.get(ob.origin, 0) + 1
                attr_total += ob.attr_sum
            groups[key] = GroupStatistics(counts, attr_total, len(idxs))
        return ObservationStatistics(groups, self.observations)


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
    """Sample one path by sequential choice from P(s'|s).

    Raises StepCapExceeded after 10 x |states| transitions (cycle safety);
    the caller resamples.
    """
    probs = core.choice_probabilities(net, spec, vf)
    cur = net.state_index(origin)
    dest = net.destination_index
    cap = STEP_CAP_FACTOR * net.n_states
    path = [cur]
    for _ in range(cap):
        if cur == dest:
            return make_observation(net, [net.states[i] for i in path])
        arcs = net.succ_arcs[cur]
        cum = np.cumsum(probs[arcs])
        pick = int(np.searchsorted(cum, rng.random() * cum[-1]))
        cur = int(net.arc_to[arcs[min(pick, len(arcs) - 1)]])
        path.append(cur)
    if cur == dest:
        return make_observation(net, [net.states[i] for i in path])
    raise StepCapExceeded(f"no arrival within {cap} steps from {origin!r}")


def _sample_paths_batch(net, probs, start_states, rng) -> list[list[int]]:
    """Vectorized sequential sampling for many paths at once.

    Per step one uniform is drawn for every still-active path (ascending
    path order), so results are deterministic for a given stream.
    """
    dest = net.destination_index
    cap = STEP_CAP_FACTOR * net.n_states
    cum_by_state = [None] * net.n_states
    for i in range(net.n_states):
        arcs = net.succ_arcs[i]
        if len(arcs):
            c = np.cumsum(probs[arcs])
            cum_by_state[i] = (c / c[-1], net.arc_to[arcs])
    n = len(start_states)
    cur = np.asarray(start_states, dtype=int)
    paths = [[int(s)] for s in cur]
    active = np.flatnonzero(cur != dest)
    for _ in range(cap):
        if len(active) == 0:
            return paths
        u = rng.random(len(active))
        nxt = np.empty(len(active), dtype=int)
        states_here = cur[active]
        for s in np.unique(states_here):
            mask = states_here == s
            c, targets = cum_by_state[s]
            nxt[mask] = targets[np.minimum(np.searchsorted(c, u[mask]), len(c) - 1)]
        for pos, i in enumerate(active):
            paths[i].append(int(nxt[pos]))
        cur[active] = nxt
        active = active[nxt != dest]
    raise StepCapExceeded(f"{len(active)} walks still active after {cap} steps")


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
    vf, report = core.solve_value_linear(net, spec)
    if report.status != core.SOLVED:
        raise ValueSolveFailed(net.destination, f"status {report.status}")
    probs = core.choice_probabilities(net, spec, vf)
    rng = np.random.Generator(np.random.Philox(seed))
    starts = origin_idx[rng.integers(0, len(origin_idx), size=n_obs)]
    paths = _sample_paths_batch(net, probs, starts, rng)
    obs = [make_observation(net, [net.states[i] for i in p]) for p in paths]
    return ObservationSet(net, obs)


def generate_observations_via_layered(
    net: Network,
    spec: core.UtilitySpec,
    origins,
    n_obs: int,
    seed: int,
) -> ObservationSet:
    """Ground truth for cyclic networks: sample on the layered-DAG unrolling
    and project paths back to the original state ids.  The returned set is
    bound to ``net``."""
    if isinstance(origins, (str, int)):
        origins = [origins]
    if len(set(origins)) != 1:
        raise UnknownState("layered generation expects a single origin")
    origin = origins[0]
    layered = layered_dag_from_undirected(net, origin)
    layered_set = generate_observations(layered, spec, layered_origin(origin), n_obs, seed)
    obs = []
    for ob in layered_set.observations:
        path = project_layered_path(ob.path)
        obs.append(make_observation(net, path))
    return ObservationSet(net, obs)


# --- JSON Lines serialization ---------------------------------------------


def save_observations(obs: ObservationSet, path) -> None:
    with open(path, "w") as fh:
        for ob in obs.observations:
            doc = {"origin": ob.origin, "dest": ob.destination, "path": list(ob.path)}
            fh.write(canonical_json(doc))
            fh.write("\n")


def load_observations(path, net: Network) -> ObservationSet:
    """Load observations; attribute sums are recomputed against ``net`` and
    paths re-validated (InvalidPath on mismatch)."""
    obs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if doc["dest"] != net.destination:
                raise InvalidPath(f"destination {doc['dest']!r} not this network's")
            obs.append(make_observation(net, doc["path"]))
    return ObservationSet(net, obs)
