"""Compile the maximum-likelihood problem into an exponential-cone program.

The likelihood max Sigma_n (v(sigma_n | beta) - V(origin_n)) is rewritten
with per-destination-group value variables u_s and an exact epigraph encoding
of the log-sum-exp Bellman inequality: for every transition the program
carries w = Q - u_s (the cone's exponent slot must be a plain variable, so
the translated variable w replaces Q one-for-one) and a mass variable r with

    (w, 1, r) in K_exp,   sum over successors of r <= 1,

plus w >= v + u_{s'} - u_s for interior transitions and w = v - u_s for
destination transitions.  At the optimum all inequalities bind, so u equals
the value function and the objective equals the log-likelihood.

The data enter only through the objective, as the per-group origin counts
and attribute totals of the ObservationSet's sufficient statistics
(``group_observations``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .. import core, nfxp
from ..errors import (
    BindingViolation,
    NotSuperSolution,
    UnreachableStateWithoutFix,
    UnsupportedHeterogeneousScale,
)
from ..network import Network, _reachable
from .program import ConicProgram, save_problem, write_cbf
from . import solver as cone_solver

BINDING_TOL = 1e-6


@dataclass
class GroupLayout:
    u: dict = field(default_factory=dict)  # state id -> variable index
    w: dict = field(default_factory=dict)  # arc index -> variable index
    r: dict = field(default_factory=dict)  # arc index -> variable index


@dataclass
class VariableLayout:
    """Index maps tying program variables back to model quantities."""

    n_beta: int
    one_index: int
    groups: dict = field(default_factory=dict)
    total: int = 0


def group_observations(obs) -> dict:
    """Per-destination sufficient statistics of an ObservationSet (its
    cached ``statistics.groups``); the objective built from these equals the
    per-observation sum for every (beta, u)."""
    return obs.statistics.groups


def _check_assumption_coverage(net: Network, key, group):
    starts, _counts = group.origin_weights(net)
    covered = _reachable(net, starts)
    missing = [s for s, ok in zip(net.states, covered) if not ok]
    if missing:
        raise UnreachableStateWithoutFix(
            f"states unreachable from every observed origin in group "
            f"{key!r}: {missing[:5]}{'...' if len(missing) > 5 else ''}"
        )


def build_ecp(net, groups: dict, mu=None) -> tuple[ConicProgram, VariableLayout]:
    """Assemble the conic program for one or more destination groups.

    ``net`` is a single network or a mapping group-key -> network.  Raises
    UnreachableStateWithoutFix when some state cannot be reached from any
    observed origin (value variables there would have harmful slack).

    The conic formulation is stated at unit scale; ``mu`` exists only so
    callers holding a scale field fail loudly instead of silently dropping
    it: a heterogeneous field raises UnsupportedHeterogeneousScale (the
    joint problem is non-convex in the scales) and a uniform field must be 1.
    """
    if not groups:
        raise ValueError("no observation groups")
    if mu is not None:
        values = np.atleast_1d(np.asarray(getattr(mu, "values", mu), dtype=float))
        if np.max(values) - np.min(values) > 1e-12:
            raise UnsupportedHeterogeneousScale(
                "conic reformulation requires a single scale; "
                "state-dependent scales make the problem non-convex"
            )
        if abs(values[0] - 1.0) > 1e-12:
            raise ValueError("conic build is stated at scale 1; rescale beta instead")
    nets = net if isinstance(net, dict) else {key: net for key in groups}

    k = len(next(iter(groups.values())).attr_total)
    layout = VariableLayout(n_beta=k, one_index=k)
    counter = k + 1

    for key, group in groups.items():
        gnet = nets[key]
        _check_assumption_coverage(gnet, key, group)
        gl = GroupLayout()
        d = gnet.destination_index
        for i, state in enumerate(gnet.states):
            if i != d:
                gl.u[state] = counter
                counter += 1
        for a in range(gnet.n_arcs):
            gl.w[a] = counter
            counter += 1
        for a in range(gnet.n_arcs):
            gl.r[a] = counter
            counter += 1
        layout.groups[key] = gl
    layout.total = counter

    objective = np.zeros(counter)
    eq_rows, eq_rhs = [], []
    ineq_rows, ineq_rhs = [], []
    cones = []

    eq_rows.append([(layout.one_index, 1.0)])
    eq_rhs.append(1.0)

    for key, group in groups.items():
        gnet = nets[key]
        gl = layout.groups[key]
        d = gnet.destination_index
        objective[:k] += group.attr_total
        for origin, count in group.origin_counts.items():
            objective[gl.u[origin]] -= count

        for a in range(gnet.n_arcs):
            i = int(gnet.arc_from[a])
            j = int(gnet.arc_to[a])
            s_from = gnet.states[i]
            beta_coeffs = [(kk, float(gnet.attrs[a, kk])) for kk in range(k)
                           if gnet.attrs[a, kk] != 0.0]
            if j == d:
                # w + u_s = v(d | s; beta)
                row = [(gl.w[a], 1.0), (gl.u[s_from], 1.0)]
                row += [(idx, -val) for idx, val in beta_coeffs]
                eq_rows.append(row)
                eq_rhs.append(0.0)
            else:
                # v + u_{s'} - u_s - w <= 0
                s_to = gnet.states[j]
                row = list(beta_coeffs)
                row += [(gl.u[s_to], 1.0), (gl.u[s_from], -1.0), (gl.w[a], -1.0)]
                ineq_rows.append(row)
                ineq_rhs.append(0.0)
            cones.append((gl.w[a], layout.one_index, gl.r[a]))

        for i in range(gnet.n_states):
            if i == d or len(gnet.succ_arcs[i]) == 0:
                continue
            ineq_rows.append([(gl.r[a], 1.0) for a in gnet.succ_arcs[i]])
            ineq_rhs.append(1.0)

    def to_csr(rows, nv):
        data, ri, ci = [], [], []
        for r, row in enumerate(rows):
            for idx, val in row:
                ri.append(r)
                ci.append(idx)
                data.append(val)
        return sp.csr_matrix((data, (ri, ci)), shape=(len(rows), nv))

    prog = ConicProgram(
        n_vars=counter,
        objective=objective,
        maximize=True,
        a_eq=to_csr(eq_rows, counter),
        b_eq=np.asarray(eq_rhs),
        a_ineq=to_csr(ineq_rows, counter),
        b_ineq=np.asarray(ineq_rhs),
        exp_cones=cones,
        one_index=layout.one_index,
    )
    return prog, layout


def recover_solution(prog: ConicProgram, sol, layout: VariableLayout, net):
    """Read off (beta, per-group value field) and certify Theorem-1 binding.

    Every Bellman inequality must bind at the optimum; a state whose
    recovered value has slack beyond 1e-6 raises BindingViolation.
    Returns (beta_hat, values_by_group, certificate) where the certificate
    maps group keys to the per-state residual V - T[V].
    """
    if sol.status != cone_solver.OPTIMAL:
        raise ValueError(f"solution status is {sol.status}, not Optimal")
    nets = net if isinstance(net, dict) else {key: net for key in layout.groups}
    beta_hat = sol.x[: layout.n_beta].copy()
    spec = core.UtilitySpec(beta_hat)

    values_by_group = {}
    certificate = {}
    worst = (None, 0.0)
    for key, gl in layout.groups.items():
        gnet = nets[key]
        values = np.zeros(gnet.n_states)
        for state, idx in gl.u.items():
            values[gnet.state_index(state)] = sol.x[idx]
        residual = values - core.bellman_apply(gnet, spec, values)
        values_by_group[key] = core.ValueField(values, core.SOLVED)
        certificate[key] = residual
        pos = int(np.argmax(np.abs(residual)))
        if abs(residual[pos]) > abs(worst[1]):
            worst = (gnet.states[pos], float(residual[pos]))
    if abs(worst[1]) > BINDING_TOL:
        raise BindingViolation(worst[0], worst[1])
    return beta_hat, values_by_group, certificate


def monotone_tighten(net: Network, spec: core.UtilitySpec, values,
                     tol: float = 1e-10, max_iter: int = 100_000) -> core.ValueField:
    """Drive a feasible super-solution (V >= T[V]) down to the fixed point by
    repeated application of the Bellman operator; the sequence is
    componentwise non-increasing."""
    values = np.asarray(values, dtype=float).copy()
    applied = core.bellman_apply(net, spec, values)
    if np.any(values < applied - 1e-9):
        raise NotSuperSolution(
            f"max violation {float(np.max(applied - values)):.3e}"
        )
    for _ in range(max_iter):
        new = core.bellman_apply(net, spec, values)
        new = np.minimum(new, values)  # guard roundoff; T preserves order
        if float(np.max(np.abs(new - values))) <= tol:
            return core.ValueField(new, core.SOLVED)
        values = new
    return core.ValueField(values, core.MAX_ITERATIONS)


def export_problem(prog: ConicProgram, path, fmt: str = "json") -> None:
    """Write a program to disk as canonical JSON or CBF text."""
    if fmt == "json":
        save_problem(prog, path)
    elif fmt == "cbf":
        write_cbf(prog, path)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def estimate_ecp(net_by_group, observations, beta_init=None,
                 opts: cone_solver.SolverOptions | None = None) -> nfxp.EstimationResult:
    """One-shot conic estimation with the NFXP result interface.

    ``beta_init`` is accepted for interface parity and ignored: the
    interior-point method needs no starting parameter.  Status is Optimal on
    success, otherwise the solver status verbatim.

    When the recovered solution fails the binding check, the program is
    solved once more with a 150-iteration polish phase.  ``iterations`` then
    counts the iterations of both solves and ``trace`` holds both traces, the
    first solve's records first.
    """
    start = time.perf_counter()
    groups = group_observations(observations)
    prog, layout = build_ecp(net_by_group, groups)
    sol = cone_solver.solve(prog, opts)
    iterations, trace = sol.iterations, list(sol.trace)
    n_obs = max(len(observations), 1)
    if sol.status == cone_solver.OPTIMAL:
        try:
            beta_hat, values, _cert = recover_solution(prog, sol, layout, net_by_group)
        except BindingViolation:
            # a rarely-visited state can keep a few-1e-6 Bellman slack at the
            # default polish budget (slack ~ complementarity / visit weight);
            # re-solve with a longer polish phase before giving up
            retry = replace(opts or cone_solver.SolverOptions(), polish_iters=150)
            sol = cone_solver.solve(prog, retry)
            iterations += sol.iterations
            trace += sol.trace
            if sol.status != cone_solver.OPTIMAL:
                raise
            beta_hat, values, _cert = recover_solution(prog, sol, layout, net_by_group)
        loglik = sol.obj_val
    else:
        beta_hat = np.full(layout.n_beta, np.nan)
        loglik = np.nan
    return nfxp.EstimationResult(
        beta_hat=beta_hat,
        loglik=loglik,
        loglik_per_obs=loglik / n_obs,
        status=sol.status,
        iterations=iterations,
        gradient_norm=np.nan,
        wall_time=time.perf_counter() - start,
        trace=trace,
    )
