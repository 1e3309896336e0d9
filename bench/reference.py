"""Reference computations for checking rlogit outputs, written apart from it.

Nothing here imports rlogit.  A network is read into plain arrays once
(:meth:`RefNet.from_network` only touches its public fields) and every
quantity the benchmark checks is recomputed from those arrays:

* the value function V, by topological log-sum-exp on DAGs (exact in log
  space, so it never underflows) and by a dense exp-space solve on cyclic
  networks, whose feasibility test is the spectral radius of M(beta);
* the Bellman operator, used to certify that reported values bind;
* path validity, per-path attribute sums and the log-likelihood built from
  them, plus its central finite-difference gradient;
* reachability by breadth-first search and choice probabilities.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np


class BadInput(ValueError):
    """An input breaks a precondition of a reference computation."""


@dataclass
class RefNet:
    """Arc list of a state network: arc a goes from src[a] to dst[a]."""

    states: list
    dest: int
    src: np.ndarray
    dst: np.ndarray
    attrs: np.ndarray
    index: dict = field(init=False, repr=False)
    arc_of: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.attrs = np.atleast_2d(np.asarray(self.attrs, dtype=float))
        self.index = {s: i for i, s in enumerate(self.states)}
        self.arc_of = {}
        for a, (i, j) in enumerate(zip(self.src.tolist(), self.dst.tolist())):
            if (i, j) in self.arc_of:
                raise BadInput(f"duplicate arc {i}->{j}")
            self.arc_of[(i, j)] = a
        if np.any(self.src == self.dest):
            raise BadInput("destination has outgoing arcs")

    @classmethod
    def from_network(cls, net) -> "RefNet":
        return cls(list(net.states), list(net.states).index(net.destination),
                   np.array(net.arc_from), np.array(net.arc_to), np.array(net.attrs))

    @property
    def n(self) -> int:
        return len(self.states)

    def utilities(self, beta) -> np.ndarray:
        return self.attrs @ np.asarray(beta, dtype=float)

    def successors(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for a, i in enumerate(self.src.tolist()):
            out[i].append(a)
        return out


# --- graph structure ----------------------------------------------------------


def reachable(ref: RefNet, start: int, reverse: bool = False) -> set[int]:
    """States reachable from ``start`` (or reaching it, when ``reverse``)."""
    adj: list[list[int]] = [[] for _ in range(ref.n)]
    for i, j in zip(ref.src.tolist(), ref.dst.tolist()):
        if reverse:
            adj[j].append(i)
        else:
            adj[i].append(j)
    seen = {start}
    queue = deque([start])
    while queue:
        for t in adj[queue.popleft()]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def topological_order(ref: RefNet) -> list[int] | None:
    """Kahn's order of the states, or None when the network has a cycle."""
    indeg = np.bincount(ref.dst, minlength=ref.n)
    succ = ref.successors()
    queue = deque(int(i) for i in np.flatnonzero(indeg == 0))
    order = []
    while queue:
        i = queue.popleft()
        order.append(i)
        for a in succ[i]:
            j = int(ref.dst[a])
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    return order if len(order) == ref.n else None


# --- value function ---------------------------------------------------------


def _logsumexp(x: np.ndarray) -> float:
    top = float(np.max(x))
    return top + float(np.log(np.sum(np.exp(x - top))))


def dag_values(ref: RefNet, beta) -> np.ndarray:
    """V on a DAG by log-sum-exp in reverse topological order.

    States that cannot reach the destination get -inf.  Works in log space
    throughout, so it stays exact where e^V underflows.
    """
    order = topological_order(ref)
    if order is None:
        raise BadInput("network has a cycle")
    u = ref.utilities(beta)
    succ = ref.successors()
    values = np.full(ref.n, -np.inf)
    values[ref.dest] = 0.0
    for i in reversed(order):
        if i == ref.dest or not succ[i]:
            continue
        arcs = np.asarray(succ[i])
        w = u[arcs] + values[ref.dst[arcs]]
        if np.all(np.isneginf(w)):
            continue
        values[i] = _logsumexp(w[np.isfinite(w)])
    return values


def exp_system(ref: RefNet, beta):
    """Dense (M, b, rows) of the exp-space system z = M z + b on the
    non-destination states: M[s, s'] = e^{v(s'|s)}, b[s] = e^{v(d|s)}."""
    u = ref.utilities(beta)
    rows = [i for i in range(ref.n) if i != ref.dest]
    pos = np.full(ref.n, -1)
    pos[rows] = np.arange(len(rows))
    m = np.zeros((len(rows), len(rows)))
    b = np.zeros(len(rows))
    for a in range(len(u)):
        i, j = int(ref.src[a]), int(ref.dst[a])
        if j == ref.dest:
            b[pos[i]] += np.exp(u[a])
        else:
            m[pos[i], pos[j]] += np.exp(u[a])
    return m, b, rows


def _radius(m: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(m)))) if m.size else 0.0


def spectral_radius(ref: RefNet, beta) -> float:
    """rho(M(beta)); the value system has a positive solution only below 1."""
    return _radius(exp_system(ref, beta)[0])


def dense_values(ref: RefNet, beta) -> np.ndarray | None:
    """V = log z with (I - M) z = b solved densely; None when rho(M) >= 1."""
    m, b, rows = exp_system(ref, beta)
    if _radius(m) >= 1.0:
        return None
    z = np.linalg.solve(np.eye(len(rows)) - m, b)
    if np.any(z <= 0):
        return None
    values = np.zeros(ref.n)
    values[rows] = np.log(z)
    return values


def values(ref: RefNet, beta) -> np.ndarray | None:
    """V by the exact DAG recursion, or by the dense solve on cyclic nets."""
    if topological_order(ref) is not None:
        return dag_values(ref, beta)
    return dense_values(ref, beta)


def bellman(ref: RefNet, beta, v: np.ndarray) -> np.ndarray:
    """(T V)_s = log sum over arcs s->s' of exp(v(s'|s) + V_s'); T V_d = 0."""
    w = ref.utilities(beta) + v[ref.dst]
    top = np.full(ref.n, -np.inf)
    np.maximum.at(top, ref.src, w)
    shift = np.where(np.isfinite(top), top, 0.0)
    mass = np.zeros(ref.n)
    np.add.at(mass, ref.src, np.exp(w - shift[ref.src]))
    with np.errstate(divide="ignore"):
        out = shift + np.log(mass)
    out[ref.dest] = 0.0
    return out


def binding_residual(ref: RefNet, beta, v: np.ndarray) -> float:
    """Largest |V - T V| over the states."""
    return float(np.max(np.abs(v - bellman(ref, beta, v))))


def choice_probabilities(ref: RefNet, beta, v: np.ndarray) -> np.ndarray:
    """P(arc) = exp(v(arc) + V(head) - V(tail))."""
    return np.exp(ref.utilities(beta) + v[ref.dst] - v[ref.src])


# --- paths and likelihood ---------------------------------------------------


def path_arcs(ref: RefNet, path) -> list[int]:
    """Arc indices of a state-id path; raises BadInput unless every
    step is an arc and the path ends at the destination."""
    if len(path) < 2:
        raise BadInput("path has no transition")
    try:
        idx = [ref.index[s] for s in path]
    except KeyError as exc:
        raise BadInput(f"unknown state {exc.args[0]!r}") from None
    if idx[-1] != ref.dest or ref.dest in idx[:-1]:
        raise BadInput("path does not end at the destination")
    arcs = []
    for step, (i, j) in enumerate(zip(idx[:-1], idx[1:])):
        a = ref.arc_of.get((i, j))
        if a is None:
            raise BadInput(f"no arc {path[step]!r} -> {path[step + 1]!r}")
        arcs.append(a)
    return arcs


class PathData:
    """Sufficient statistics of a list of raw paths on one network.

    Attribute sums come from the raw state sequences, never from a
    program-computed total.
    """

    def __init__(self, ref: RefNet, paths):
        self.ref = ref
        k = ref.attrs.shape[1]
        self.n_obs = len(paths)
        self.attr_sums = np.zeros((self.n_obs, k))
        self.origin_counts = np.zeros(ref.n)
        self.first_arc_counts = np.zeros(len(ref.src))
        for r, path in enumerate(paths):
            arcs = path_arcs(ref, path)
            self.attr_sums[r] = ref.attrs[arcs].sum(axis=0)
            self.origin_counts[ref.index[path[0]]] += 1
            self.first_arc_counts[arcs[0]] += 1
        self.attr_total = self.attr_sums.sum(axis=0)

    def loglik(self, beta, v=None) -> float:
        """Sum over paths of v(path) - V(origin)."""
        if v is None:
            v = values(self.ref, beta)
            if v is None:
                return float("nan")
        used = self.origin_counts > 0
        return float(self.attr_total @ np.asarray(beta, dtype=float)
                     - self.origin_counts[used] @ v[used])

    def min_singular_value(self) -> float:
        """Criterion-01 identification statistic: smallest singular value of
        the centred per-path attribute sums, over sqrt(N)."""
        centred = self.attr_sums - self.attr_sums.mean(axis=0)
        sv = np.linalg.svd(centred, compute_uv=False)
        return float(sv[-1] / np.sqrt(self.n_obs))


def pooled_loglik(datasets, beta) -> float:
    """Log-likelihood summed over per-destination PathData groups."""
    return float(sum(d.loglik(beta) for d in datasets))


def pooled_min_singular_value(datasets) -> float:
    sums = np.vstack([d.attr_sums for d in datasets])
    centred = sums - sums.mean(axis=0)
    sv = np.linalg.svd(centred, compute_uv=False)
    return float(sv[-1] / np.sqrt(len(sums)))


def fd_gradient(f, beta, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    beta = np.asarray(beta, dtype=float)
    grad = np.zeros(len(beta))
    for k in range(len(beta)):
        e = np.zeros(len(beta))
        e[k] = h
        grad[k] = (f(beta + e) - f(beta - e)) / (2 * h)
    return grad
