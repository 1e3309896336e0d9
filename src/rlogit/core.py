"""Deterministic utilities, the log-sum-exp Bellman operator, value-function
solving, choice probabilities and path/dataset log-likelihood.

The value function V assigns each state the expected maximum utility of
reaching the destination, with V(destination) = 0.  On a DAG the value
system is triangular: V, the value Jacobian J = dV/dbeta and the expected
state visits F are one pass each over the network's levels
(``Network.levels``), and nothing is factored.

On a cyclic network the unit-scale solve factors the exp-space system
(I - M) z = b, M = e^v, after trying to prove from the arc arrays that it
has no positive solution: rho(M) > 1 (a z > 0 would give Mz <= z, hence
rho(M) <= 1), by a gate on the largest row sum of M, a few power steps and
the Collatz-Wielandt bound.  A proof is a true SingularOrNonpositive, so the
networks a cyclic instance search rejects cost no factorization.  Any other
failure goes to ``iterate_values``, the one iterative solver for the plain
and the nested (scaled) operator alike.  Every solver reports failure by
its status, never by a NaN value.

The Bellman operator and the choice probabilities run segment-wise on the
network's tail layout (``Network.tail_order``), with no per-state loop.

On a cyclic network each solver factors I - W on the free rows, filled into
one sparse pattern cached on the network (``Network.free_pattern``): I - M,
or I - P in the Newton steps of ``iterate_values``, with P the choice
probabilities.  The factor stays on the returned ValueField for
``visit_flows``, the expected state visits (I - P)' F = w, and
``value_jacobian``, the forward solve (I - P) J = R.  The NFXP gradient, the
NRL adjoint and flow trimming are visit flows for their own weights; the
NFXP Hessian adds the value Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    EmptySuccessorSet,
    InvalidPath,
    UnsolvedValueField,
    ValueSolveFailed,
)
from .network import Network

SOLVED = "Solved"
DIVERGED = "Diverged"
SINGULAR = "SingularOrNonpositive"
MAX_ITERATIONS = "MaxIterations"

LINEAR_RESIDUAL_TOL = 1e-10
DIVERGENCE_BOUND = 1e10

# exponent cap: anything above this in exp-space is treated as a failed solve
_EXP_CAP = 500.0
# below this, e^V is subnormal and log z carries its rounding
_TINY = np.finfo(float).tiny

# the spectral-radius test: power steps, the share of max(x) below which an
# entry of x is dropped, and the Collatz-Wielandt bound that proves
# rho(M) > 1 past the rounding of Mx
_POWER_STEPS = 20
_NEGLIGIBLE = 1e-6
_ABOVE_ONE = 1.0 + 1e-12


@dataclass(frozen=True)
class UtilitySpec:
    """Linear-in-attributes utility with a positive scale.

    ``beta`` has one coefficient per attribute column; ``mu`` is fixed to 1
    for standard estimation and only varies in the nested extension.
    """

    beta: np.ndarray
    mu: float = 1.0

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta must be finite")
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        object.__setattr__(self, "beta", beta)


@dataclass
class ValueField:
    """Vector of state values for one destination; values[destination] = 0.

    On a cyclic network the exp-space solve also keeps its splu factor of
    I - M and z = e^V on the free rows, and ``iterate_values`` the factor of
    I - P of its last Newton step.
    Only :func:`visit_flows` and :func:`value_jacobian` read them; where they
    factor I - P themselves, that factor replaces these (and z becomes
    ``None``), so the next solve on the same field reuses it."""

    values: np.ndarray
    status: str = SOLVED
    factor: object = field(default=None, repr=False, compare=False)
    z: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __getitem__(self, idx):
        return self.values[idx]


@dataclass
class SolveReport:
    status: str
    iterations: int = 0
    residual: float = np.nan


def arc_utilities(net: Network, spec: UtilitySpec) -> np.ndarray:
    """Deterministic utility of every arc: attrs @ beta."""
    return net.attrs @ spec.beta


def utility(net: Network, spec: UtilitySpec, arc) -> float:
    """Utility of one arc, given as an arc index or a (from, to) pair."""
    if isinstance(arc, tuple):
        arc = net.arc_id(*arc)
    return float(net.attrs[arc] @ spec.beta)


def _check_successors(net: Network):
    """Every state but the destination owns an arc segment.  The destination
    owns none (build_network rejects its arcs), so counting owners suffices."""
    if len(net.tail_owners) < net.n_states - 1:
        missing = np.setdiff1d(np.arange(net.n_states), net.tail_owners)
        i = int(missing[missing != net.destination_index][0])
        raise EmptySuccessorSet(f"non-destination state {net.states[i]!r} has no successors")


def _segment_exp(net: Network, per_arc: np.ndarray):
    """An arc-indexed quantity in the network's tail order, shifted by its
    maximum per tail segment and exponentiated: (segment maxima, shifted
    exponentials per sorted arc, their segment sums)."""
    w = per_arc[net.tail_order]
    mx = np.maximum.reduceat(w, net.tail_starts)
    e = np.exp(w - mx[net.tail_segment])
    return mx, e, np.add.reduceat(e, net.tail_starts)


def scaled_bellman(net: Network, v: np.ndarray, mu: np.ndarray, values: np.ndarray):
    """The scaled log-sum-exp operator for per-arc utilities ``v`` and
    per-state scales ``mu``: T[V] and the segment exponentials behind it,
    (T[V], e, sums), from which :func:`_probabilities` gives the choice
    probabilities at V."""
    mx, e, sums = _segment_exp(net, (v + values[net.arc_to]) / mu[net.arc_from])
    out = np.zeros(net.n_states)
    owners = net.tail_owners
    out[owners] = mu[owners] * (mx + np.log(sums))
    out[net.destination_index] = 0.0
    return out, e, sums


def _probabilities(net: Network, e: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Per-arc softmax from :func:`_segment_exp`'s output, indexed like
    ``net.arcs``."""
    p = np.zeros(net.n_arcs)
    p[net.tail_order] = e / sums[net.tail_segment]
    return p


def bellman_apply(net: Network, spec: UtilitySpec, values: np.ndarray) -> np.ndarray:
    """One application of the log-sum-exp Bellman operator.

    (T[V])_s = mu * log sum_{s' in A(s)} exp((v(s'|s) + V_{s'}) / mu), with
    the destination pinned at 0.  Overflow-safe via max-shifting.
    """
    _check_successors(net)
    mu = np.full(net.n_states, spec.mu)
    return scaled_bellman(net, arc_utilities(net, spec), mu, values)[0]


def bellman_residual(net: Network, spec: UtilitySpec, values: np.ndarray) -> float:
    """Sup-norm of V - T[V]."""
    return float(np.max(np.abs(values - bellman_apply(net, spec, values))))


def identity_minus(net: Network, per_arc: np.ndarray) -> sp.csc_matrix:
    """I - W on the free rows, where W_{from(a), to(a)} = per_arc[a] for the
    arcs between free states, filled into the network's cached pattern."""
    indptr, indices, diag, inner, slots = net.free_pattern
    data = np.zeros(len(indices))
    data[diag] = 1.0
    data[slots] -= per_arc[inner]
    m = len(net.free_states)
    return sp.csc_matrix((data, indices, indptr), shape=(m, m))


def _factor_free(net: Network, per_arc: np.ndarray):
    """splu factor of :func:`identity_minus`, or None when it is singular."""
    try:
        return spla.splu(identity_minus(net, per_arc))
    except RuntimeError:
        return None


def _exp_space_system(net: Network, spec: UtilitySpec):
    """Sparse (I - M, b) with M_{s,s'} = e^{v(s'|s)} for non-destination
    successors and b_s accumulating destination arcs, on the non-destination
    block.  Returns None when any exponential overflows."""
    v = arc_utilities(net, spec)
    if np.any(v > _EXP_CAP):
        return None
    ev = np.exp(v)
    rows, row_of = net.free_states, net.free_row
    to_dest = net.arc_to == net.destination_index
    b = np.zeros(len(rows))
    np.add.at(b, row_of[net.arc_from[to_dest]], ev[to_dest])
    return identity_minus(net, ev), b, rows


def solve_value_linear(net: Network, spec: UtilitySpec) -> tuple[ValueField, SolveReport]:
    """Solve the Bellman equalities at unit scale.

    On a DAG this is :func:`solve_value_iteration`'s level pass.  On a cyclic
    network, once :func:`_spectral_radius_above_one` fails to prove
    rho(M) > 1, z = e^V solves (I - M) z = b with one splu factorization,
    kept with z on the returned ValueField.  V = log z is returned when z is
    finite and positive, with no subnormal entry (e^V rounded to a few bits),
    and the Bellman residual is at most ``LINEAR_RESIDUAL_TOL`` relative to
    max(1, ||V||_inf).  Otherwise :func:`solve_value_iteration`'s Newton
    steps answer if they solve; any failure is SingularOrNonpositive.
    """
    if spec.mu != 1.0:
        raise ValueError("linear value solve requires mu = 1")
    if net.levels is not None:
        return solve_value_iteration(net, spec)
    _check_successors(net)
    if _spectral_radius_above_one(net, spec):
        return ValueField(np.full(net.n_states, np.nan), status=SINGULAR), SolveReport(SINGULAR)
    vf, report = _solve_exp_space(net, spec)
    if report.status == SOLVED and vf.z.min(initial=np.inf) >= _TINY:
        return vf, report
    swept = solve_value_iteration(net, spec)
    return swept if swept[1].status == SOLVED else (vf, report)


def _solve_exp_space(net: Network, spec: UtilitySpec) -> tuple[ValueField, SolveReport]:
    """:func:`solve_value_linear`'s factorization, with no test or fallback."""
    vf = ValueField(np.full(net.n_states, np.nan), status=SINGULAR)
    sys = _exp_space_system(net, spec)
    if sys is None:
        return vf, SolveReport(SINGULAR, residual=np.inf)
    system, b, rows = sys
    try:
        lu = spla.splu(system)
    except RuntimeError:
        return vf, SolveReport(SINGULAR)
    z = lu.solve(b)
    if not (z.min(initial=np.inf) > 0 and z.max(initial=0.0) < np.inf):  # NaN fails too
        return vf, SolveReport(SINGULAR)
    values = np.zeros(net.n_states)
    values[rows] = np.log(z)
    residual = bellman_residual(net, spec, values)
    if not residual <= LINEAR_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(values)))):
        return vf, SolveReport(SINGULAR, residual=residual)
    return ValueField(values, SOLVED, factor=lu, z=z), SolveReport(SOLVED, residual=residual)


def _spectral_radius_above_one(net: Network, spec: UtilitySpec) -> bool:
    """Whether rho(M) > 1 is proved for the exp-space transition matrix M
    (e^v on the arcs between non-destination states), from the arc arrays
    alone.

    No positive z solves (I - M) z = b >= 0 when rho(M) > 1: such a z would
    give Mz <= z, hence rho(M) <= 1.  So a proved rho(M) > 1 is a true
    SingularOrNonpositive, found before the network's pattern is built or a
    factorization runs.  The proof is the Collatz-Wielandt bound: for any
    x >= 0, x != 0, rho(M) is at least the smallest (Mx)_i / x_i over
    {i : x_i > 0}.

    Nothing is tested where the largest row sum of M is at most 1, since
    rho(M) is at most that.  Otherwise x <- Mx / max(Mx) runs from x = 1 for
    up to ``_POWER_STEPS`` steps, its entries below ``_NEGLIGIBLE`` set to
    zero so that the bound is taken on the support of x.  The steps end on a
    bound above 1, or once a positive x has (Mx)_i <= x_i everywhere, which
    shows rho(M) <= 1."""
    v = arc_utilities(net, spec)
    if np.any(v > _EXP_CAP):
        return False
    inner = net.arc_to != net.destination_index
    tail, head, w = net.arc_from[inner], net.arc_to[inner], np.exp(v[inner])
    n = net.n_states
    mx = np.bincount(tail, w, minlength=n)  # M x for x = 1: the row sums
    if not mx.max() > 1.0:
        return False
    x = np.ones(n)
    x[net.destination_index] = 0.0
    for _ in range(_POWER_STEPS):
        on = x > 0
        ratio = mx[on] / x[on]
        if ratio.min() > _ABOVE_ONE:
            return True
        top = mx.max()
        if not top > 0 or (len(ratio) == n - 1 and ratio.max() <= 1.0):
            return False
        x = mx / top
        x[x < _NEGLIGIBLE] = 0.0
        mx = np.bincount(tail, w * x[head], minlength=n)
    return False


def solved_field(key, solve: tuple[ValueField, SolveReport]) -> ValueField:
    """The field of a solver's (field, report), or ValueSolveFailed (``key``)."""
    vf, report = solve
    if report.status != SOLVED:
        raise ValueSolveFailed(key, f"status {report.status}")
    return vf


def solved_values(net: Network, spec: UtilitySpec, group=None) -> ValueField:
    """:func:`solve_value_linear`'s field, or ValueSolveFailed keyed by
    ``group`` (default: the destination).  The solve is looked up at call
    time, so a wrapper of it sees every call."""
    return solved_field(net.destination if group is None else group,
                        solve_value_linear(net, spec))


def solve_value_iteration(
    net: Network,
    spec: UtilitySpec,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> tuple[ValueField, SolveReport]:
    """Fixed point of the Bellman operator by :func:`iterate_values`: exact
    on a DAG, where ``tol`` and ``max_iter`` do not apply."""
    return iterate_values(net, arc_utilities(net, spec), np.full(net.n_states, spec.mu),
                          tol, max_iter)


def iterate_values(net: Network, v: np.ndarray, mu: np.ndarray, tol: float = 1e-10,
                   max_iter: int = 10_000) -> tuple[ValueField, SolveReport]:
    """Fixed point V = T[V] of the scaled log-sum-exp operator for per-arc
    utilities ``v`` and per-state scales ``mu``.

    On a DAG it is backward induction, one pass per level of ``Network.levels``
    from the destination up in :func:`scaled_bellman`'s arithmetic, so
    V = T[V] exactly; ``tol`` and ``max_iter`` do not apply, and the report
    counts the levels as iterations.  On a cyclic network it is policy
    iteration, Newton's method on V = T[V] (Puterman & Brumelle, Math. Oper.
    Res. 1979), from the uniform policy's value, a sub-solution V <= T[V].
    Each of at most ``max_iter`` iterations is a Newton step
    (I - P) dV = T[V] - V on the free rows, P being the choice probabilities
    at V: the Jacobian of T for every scale field.  T is convex and I - P an
    M-matrix, so every iterate is a sub-solution and they rise monotonically
    to the fixed point.  The loop ends once a step is at most ``tol``, and
    the returned ValueField keeps that step's splu factor of I - P.  A
    singular I - P, or values that are not finite or exceed the divergence
    bound (with no fixed point, the policies' values grow without bound), end
    it as Diverged.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    _check_successors(net)

    def solved(values, it, factor=None):
        res = float(np.max(np.abs(values - scaled_bellman(net, v, mu, values)[0])))
        return ValueField(values, SOLVED, factor=factor), SolveReport(SOLVED, it, res)

    values = np.zeros(net.n_states)
    if net.levels is not None:
        for arcs, starts, tails, seg in net.levels:
            w = (v[arcs] + values[net.arc_to[arcs]]) / mu[tails][seg]
            mx = np.maximum.reduceat(w, starts)
            values[tails] = mu[tails] * (mx + np.log(np.add.reduceat(np.exp(w - mx[seg]), starts)))
        if np.all(np.isfinite(values)):
            return solved(values, len(net.levels))
        return ValueField(values, DIVERGED), SolveReport(DIVERGED, len(net.levels))
    # step 0 solves V = r + P_u V for the uniform policy's value: r_s is the
    # mean utility of s's arcs plus mu_s log(out-degree)
    rows, owners, deg = net.free_states, net.tail_owners, np.diff(net.tail_offsets)
    reward = tail_sums(net, v)
    reward[owners] = reward[owners] / deg[owners] + mu[owners] * np.log(deg[owners])
    probs, rhs = 1.0 / deg[net.arc_from], reward[rows]
    for it in range(max_iter + 1):
        if it:
            new, e, sums = scaled_bellman(net, v, mu, values)
            probs, rhs = _probabilities(net, e, sums), (new - values)[rows]
        lu = _factor_free(net, probs)
        if lu is not None:
            step = lu.solve(rhs)
            values[rows] += step
        if lu is None or not np.max(np.abs(values)) <= DIVERGENCE_BOUND:  # NaN fails too
            return ValueField(values, DIVERGED), SolveReport(DIVERGED, it)
        if it and np.max(np.abs(step)) <= tol:
            return solved(values, it, lu)
    return ValueField(values, MAX_ITERATIONS), SolveReport(MAX_ITERATIONS, max_iter)


def _solve_free(net: Network, vf: ValueField, probs: np.ndarray, rhs: np.ndarray,
                trans: str) -> np.ndarray:
    """x solving (I - P) x = rhs (``trans`` "N") or (I - P)' x = rhs ("T") on
    the free rows, for the choice probabilities ``probs`` at ``vf`` and one or
    more right-hand-side columns.  On a DAG, x = rhs + Px runs level by level
    from the destination up, x = rhs + P'x from the top down.  On a cyclic
    network a Newton factor of I - P is used as it stands.  The exp-space
    factor serves through I - P = Z^-1 (I - M) Z for Z = diag(e^(V - c)) and
    any c; the midpoint c keeps Z within e^(+-_EXP_CAP / 2) while V spans at
    most ``_EXP_CAP`` (e^V itself may underflow).  Otherwise I - P is factored
    here and the factor kept on ``vf``.  Raises ValueSolveFailed when I - P is
    singular or x is not finite."""
    rows = net.free_states
    if net.levels is not None:
        x = np.zeros((net.n_states,) + rhs.shape[1:])
        x[rows] = rhs
        p = probs if rhs.ndim == 1 else probs[:, None]
        if trans == "N":
            for arcs, _, tails, seg in net.levels:
                np.add.at(x, tails[seg], p[arcs] * x[net.arc_to[arcs]])
        else:
            for arcs, _, tails, seg in reversed(net.levels):
                np.add.at(x, net.arc_to[arcs], p[arcs] * x[tails[seg]])
        out = x[rows]
    elif vf.z is not None and np.ptp(v := vf.values[rows]) <= _EXP_CAP:
        scale = np.exp(v - 0.5 * (v.max() + v.min()))
        if rhs.ndim > 1:
            scale = scale[:, None]
        if trans == "T":
            out = scale * vf.factor.solve(rhs / scale, trans="T")
        else:
            out = vf.factor.solve(rhs * scale) / scale
    else:
        if vf.z is not None or vf.factor is None:
            vf.factor, vf.z = _factor_free(net, probs), None
            if vf.factor is None:
                raise ValueSolveFailed(net.destination, "I - P is singular")
        out = vf.factor.solve(rhs, trans=trans)
    if not np.isfinite(out).all():
        raise ValueSolveFailed(net.destination, "the I - P solve is not finite")
    return out


def visit_flows(net: Network, vf: ValueField, probs: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
    """Expected state visits F of ``weights[s]`` units starting at each state
    s under the choice probabilities ``probs`` at ``vf``: F = w + P'F, so
    (I - P)' F = w on the free rows, solved by :func:`_solve_free`.  Raises
    ValueSolveFailed when I - P is singular or F is not finite."""
    rows = net.free_states
    flows = np.zeros(net.n_states)
    flows[rows] = _solve_free(net, vf, probs, weights[rows], "T")
    d = net.destination_index
    to_d = net.arc_to == d
    flows[d] = weights[d] + probs[to_d] @ flows[net.arc_from[to_d]]
    return flows


def tail_sums(net: Network, per_arc: np.ndarray) -> np.ndarray:
    """Per-state sums of an arc-indexed array (one row per arc) over each
    state's out-arcs, read on the network's tail layout."""
    out = np.zeros((net.n_states,) + per_arc.shape[1:])
    out[net.tail_owners] = np.add.reduceat(per_arc[net.tail_order], net.tail_starts, axis=0)
    return out


def value_jacobian(net: Network, vf: ValueField, probs: np.ndarray) -> np.ndarray:
    """(n_states, K) matrix J = dV/dbeta at ``vf`` for the choice
    probabilities ``probs``.  J_s = sum_a P_a (x_a + J_to(a)) over the arcs
    leaving s and J_d = 0, so (I - P) J = R on the free rows with
    R_s = sum_a P_a x_a: one K-column forward solve by :func:`_solve_free`,
    under the same rules as :func:`visit_flows`.  Raises
    ValueSolveFailed when I - P is singular or J is not finite."""
    rows = net.free_states
    jac = np.zeros((net.n_states, net.n_attributes))
    jac[rows] = _solve_free(net, vf, probs, tail_sums(net, probs[:, None] * net.attrs)[rows], "N")
    return jac


def choice_probabilities(net: Network, spec: UtilitySpec, vf: ValueField) -> np.ndarray:
    """Transition probability per arc: P(s'|s) = softmax over A(s) of
    (v + V_{s'}) / mu.  Indexed like ``net.arcs``; each state's row sums
    to one."""
    if vf.status != SOLVED:
        raise UnsolvedValueField(f"value field status is {vf.status}")
    v = arc_utilities(net, spec)
    _, e, sums = _segment_exp(net, (v + vf.values[net.arc_to]) / spec.mu)
    return _probabilities(net, e, sums)


def validate_path(net: Network, path) -> list[int]:
    """Check adjacency and terminal state; return the arc-index sequence."""
    if len(path) < 2:
        raise InvalidPath("path must contain at least one transition")
    if path[-1] != net.destination:
        raise InvalidPath(f"path must end at destination {net.destination!r}")
    try:
        idx = [net.index[s] for s in path]
        return [net.arc_lookup[pair] for pair in zip(idx[:-1], idx[1:])]
    except (KeyError, TypeError):
        pass
    for u, w in zip(path[:-1], path[1:]):  # name the first pair that is no arc
        try:
            net.arc_id(u, w)
        except Exception:
            raise InvalidPath(f"no arc {u!r} -> {w!r}") from None
    raise AssertionError("unreachable: some pair of the path is no arc")


def path_attr_sum(net: Network, path) -> np.ndarray:
    """Sum of arc attribute vectors along a path."""
    arcs = validate_path(net, path)
    return net.attrs[arcs].sum(axis=0)


def path_log_prob(net: Network, spec: UtilitySpec, vf: ValueField, path) -> float:
    """Log-probability of an observed path: (v(sigma) - V(origin)) / mu."""
    if vf.status != SOLVED:
        raise UnsolvedValueField(f"value field status is {vf.status}")
    arcs = validate_path(net, path)
    v_sigma = float(arc_utilities(net, spec)[arcs].sum())
    origin = net.state_index(path[0])
    return (v_sigma - float(vf.values[origin])) / spec.mu


def log_likelihood(net_by_group, spec: UtilitySpec, observations) -> float:
    """Dataset log-likelihood at mu = 1, sum over destination groups of
    attr_total . beta - sum_o count_o V(o), which equals the sum of
    v(sigma_n) - V(origin_n) over the observations.

    ``net_by_group`` maps group keys to networks; ``observations`` is an
    ObservationSet.  Raises ValueSolveFailed when a group's value system has
    no solution.
    """
    total = 0.0
    for group, stats in observations.statistics.groups.items():
        net = net_by_group[group]
        vf = solved_values(net, spec, group)
        origins, counts = stats.origin_weights(net)
        total += float(stats.attr_total @ spec.beta - counts @ vf.values[origins])
    return total
