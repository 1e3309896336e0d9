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

The batch sampler returns index paths as CSR arrays (start states, the arc
taken at each step, path lengths), and one helper turns such arrays into
:class:`Observation` objects, summing attributes per path-length group.
Sampled paths follow the network's own arcs and are not re-validated, also
when layered walks are mapped back to the cyclic network through the arc
index of the unrolling; paths that come from outside (``make_observation``,
``load_observations``) are checked by ``core.validate_path``.
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


def _sample_paths_batch(net, probs, start_states, rng):
    """Vectorized sequential sampling for many paths at once.

    Per step one uniform is drawn for every still-active path (ascending
    path order), so results are deterministic for a given stream.  Like
    ``sample_path``, a walk may take up to 10 x |states| transitions.

    Returns CSR arrays ``(starts, arcs, lengths)``: walk n starts at state
    index ``starts[n]`` and takes the ``lengths[n]`` arcs that follow those of
    walks 0..n-1 in ``arcs``.
    """
    dest = net.destination_index
    cap = STEP_CAP_FACTOR * net.n_states
    # each state's arcs as one block of ``order``; within a block the
    # normalized cumulative probabilities, summed in block order exactly as
    # np.cumsum does
    order = np.argsort(net.arc_from, kind="stable")
    deg = np.bincount(net.arc_from, minlength=net.n_states)
    first = np.cumsum(deg) - deg
    p = probs[order]
    cum = p.copy()
    rank = np.arange(len(order)) - np.repeat(first, deg)
    for k in range(1, int(deg.max(initial=0))):
        at = np.flatnonzero(rank == k)
        cum[at] = cum[at - 1] + p[at]
    cum /= np.repeat(cum[(first + deg - 1)[deg > 0]], deg[deg > 0])

    starts = np.array(start_states, dtype=np.intp)
    cur = starts.copy()
    active = np.flatnonzero(cur != dest)
    walks, taken = [active[:0]], [active[:0]]
    for _ in range(cap):
        if len(active) == 0:
            break
        u = rng.random(len(active))
        here_first, here_last = first[cur[active]], deg[cur[active]] - 1
        # searchsorted(block, u): the number of block entries below u; the
        # last entry is 1 and never counts
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


def _observations(net: Network, starts, arcs, lengths) -> list[Observation]:
    """Observations of the index paths in CSR form (see
    ``_sample_paths_batch``), which must follow ``net``'s arcs.

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
    ids = np.array(net.states, dtype=object)[flat].tolist()
    bounds = (ends + np.arange(1, n + 1)).tolist()
    dest = net.destination
    return [Observation(ids[a], dest, tuple(ids[a:b]), row)
            for a, b, row in zip([0] + bounds[:-1], bounds, attr_sum)]


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
    return ObservationSet(net, _observations(net, *_sample(net, spec, origin_idx, n_obs, seed)))


def _sample(net: Network, spec: core.UtilitySpec, origin_idx, n_obs: int, seed: int):
    """Index paths in CSR form (see ``_sample_paths_batch``) of ``n_obs``
    walks from origins drawn uniformly from ``origin_idx``."""
    vf, report = core.solve_value_linear(net, spec)
    if report.status != core.SOLVED:
        raise ValueSolveFailed(net.destination, f"status {report.status}")
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
    return ObservationSet(net, _observations(net, base_state[starts], arcs[real], lengths))


# --- JSON Lines serialization ---------------------------------------------


def save_observations(obs: ObservationSet, path) -> None:
    with open(path, "w") as fh:
        for ob in obs.observations:
            doc = {"origin": ob.origin, "dest": ob.destination, "path": list(ob.path)}
            fh.write(canonical_json(doc))
            fh.write("\n")


def load_observations(path, net: Network) -> ObservationSet:
    """Load observations; paths are re-validated against ``net`` line by
    line (InvalidPath on the first mismatch) and attribute sums recomputed."""

    def paths():
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                doc = json.loads(line)
                if doc["dest"] != net.destination:
                    raise InvalidPath(f"destination {doc['dest']!r} not this network's")
                yield doc["path"]

    return _checked_observations(net, paths())


def _checked_observations(net: Network, paths) -> ObservationSet:
    """ObservationSet of state-id paths from outside the sampler, each
    checked by ``core.validate_path`` in turn."""
    arcs, lengths = [], []
    for p in paths:
        arcs.extend(core.validate_path(net, p))
        lengths.append(len(p) - 1)
    arcs = np.array(arcs, dtype=np.intp)
    lengths = np.array(lengths, dtype=np.intp)
    starts = net.arc_from[arcs[np.cumsum(lengths) - lengths]]
    return ObservationSet(net, _observations(net, starts, arcs, lengths))
