"""Compile the maximum-likelihood problem into an exponential-cone program.

The likelihood max Sigma_n (v(sigma_n | beta) - V(origin_n)) is rewritten
with per-destination-group value variables u_s (u_d = 0 at the destination,
which has no variable) and an exact epigraph encoding of the log-sum-exp
Bellman inequality: every transition a = (s, s') carries a mass variable r_a
with

    (v(a | beta) + u_{s'} - u_s, 1, r_a) in K_exp,   sum over a out of s of r_a <= 1.

(x, 1, r) in K_exp says e^x <= r, so together these say
u_s >= log sum_a e^{v(a | beta) + u_{s'}}.  The cone's first slot is an affine
expression, so no auxiliary variable stands in for it.  At the optimum all
inequalities bind, so u equals the value function and the objective equals
the log-likelihood.

Variables are ordered beta, then per group its u (non-destination states in
state order) followed by its r (arcs in arc order).  Both constraint blocks
are assembled with array operations.

The data enter only through the objective, as the per-group origin counts
and attribute totals of the ObservationSet's sufficient statistics
(``group_observations``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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
# estimate_ecp stops polishing once the recovered values bind this tightly,
# a tenth of the certificate's bound
POLISH_BINDING_TOL = 0.1 * BINDING_TOL


@dataclass
class GroupLayout:
    u: dict  # state id -> variable index
    states: np.ndarray  # positions in the network of the states in u
    cols: np.ndarray  # their program columns, in the same order


@dataclass
class VariableLayout:
    """Index maps tying program variables back to model quantities."""

    n_beta: int
    groups: dict = field(default_factory=dict)
    total: int = 0


def group_observations(obs) -> dict:
    """Per-destination sufficient statistics of an ObservationSet (its
    cached ``statistics.groups``); the objective built from these equals the
    per-observation sum for every (beta, u)."""
    return obs.statistics.groups


def _check_assumption_coverage(net: Network, key, starts):
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
    layout = VariableLayout(n_beta=k)
    beta_obj = np.zeros(k)
    group_obj, cone_parts, mass_parts = [], [], []
    n_cols, n_cones, n_mass = k, 0, 0  # running sizes of the program
    for key, group in groups.items():
        gnet = nets[key]
        starts, counts = group.origin_weights(gnet)
        _check_assumption_coverage(gnet, key, starts)
        n, m, d = gnet.n_states, gnet.n_arcs, gnet.destination_index
        src, dst = gnet.arc_from, gnet.arc_to
        states = gnet.free_states
        u_col = np.where(gnet.free_row < 0, -1, n_cols + gnet.free_row)
        r_col = n_cols + n - 1 + np.arange(m)
        n_cols += n - 1 + m
        layout.groups[key] = GroupLayout(
            dict(zip([gnet.states[i] for i in states.tolist()], u_col[states].tolist())),
            states, u_col[states])

        beta_obj += group.attr_total
        u_obj = np.zeros(n)
        u_obj[starts] = -counts
        group_obj += [u_obj[states], np.zeros(m)]

        # cone of arc a: (attrs[a] . beta + u_to - u_from, 1, r_a); the
        # destination never leaves, and arriving there adds u_d = 0
        x_row = 3 * (n_cones + np.arange(m))
        arc, kk = np.nonzero(gnet.attrs)
        inner = dst != d
        cone_parts.append((
            np.concatenate([x_row[arc], x_row[inner], x_row, x_row + 2]),
            np.concatenate([kk, u_col[dst[inner]], u_col[src], r_col]),
            np.concatenate([gnet.attrs[arc, kk], np.ones(np.count_nonzero(inner)),
                            -np.ones(m), np.ones(m)]),
        ))
        n_cones += m

        # one mass row per state with successors: sum of its arcs' r <= 1
        mass_parts.append((n_mass + gnet.tail_segment, r_col[gnet.tail_order]))
        n_mass += len(gnet.tail_owners)
    layout.total = n_cols

    cone_rows, cone_cols, cone_vals = (np.concatenate(p) for p in zip(*cone_parts))
    mass_rows, mass_cols = (np.concatenate(p) for p in zip(*mass_parts))
    prog = ConicProgram(
        n_vars=n_cols,
        objective=np.concatenate([beta_obj] + group_obj),
        maximize=True,
        a_eq=sp.csr_matrix((0, n_cols)),
        b_eq=np.zeros(0),
        a_ineq=sp.csr_matrix((np.ones(len(mass_rows)), (mass_rows, mass_cols)),
                             shape=(n_mass, n_cols)),
        b_ineq=np.ones(n_mass),
        a_cone=sp.csr_matrix((cone_vals, (cone_rows, cone_cols)),
                             shape=(3 * n_cones, n_cols)),
        b_cone=np.tile([0.0, 1.0, 0.0], n_cones),
    )
    return prog, layout


def group_residuals(x, layout: VariableLayout, net) -> dict:
    """Per group, the value field V read off the program point ``x`` (zero at
    the destination) and its Bellman residual V - T[V] under the beta in
    ``x``: a mapping group key -> (V, residual)."""
    nets = net if isinstance(net, dict) else {key: net for key in layout.groups}
    spec = core.UtilitySpec(x[: layout.n_beta])
    out = {}
    for key, gl in layout.groups.items():
        gnet = nets[key]
        values = np.zeros(gnet.n_states)
        values[gl.states] = x[gl.cols]
        out[key] = (values, values - core.bellman_apply(gnet, spec, values))
    return out


def _binds(x, layout: VariableLayout, net) -> bool:
    return all(np.max(np.abs(residual)) <= POLISH_BINDING_TOL
               for _, residual in group_residuals(x, layout, net).values())


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

    values_by_group = {}
    certificate = {}
    worst = (None, 0.0)
    for key, (values, residual) in group_residuals(sol.x, layout, nets).items():
        values_by_group[key] = core.ValueField(values, core.SOLVED)
        certificate[key] = residual
        pos = int(np.argmax(np.abs(residual)))
        if abs(residual[pos]) > abs(worst[1]):
            worst = (nets[key].states[pos], float(residual[pos]))
    if abs(worst[1]) > BINDING_TOL:
        raise BindingViolation(worst[0], worst[1])
    return beta_hat, values_by_group, certificate


def monotone_tighten(net: Network, spec: core.UtilitySpec, values,
                     tol: float = 1e-10, max_iter: int = 100_000) -> core.ValueField:
    """The fixed point below a feasible super-solution V >= T[V], which
    bounds it: :func:`core.solve_value_iteration`'s field for ``tol`` and
    ``max_iter`` (exact on a DAG, where they do not apply).  Raises
    NotSuperSolution when ``values`` is not one."""
    values = np.asarray(values, dtype=float)
    applied = core.bellman_apply(net, spec, values)
    if np.any(values < applied - 1e-9):
        raise NotSuperSolution(
            f"max violation {float(np.max(applied - values)):.3e}"
        )
    return core.solve_value_iteration(net, spec, tol, max_iter)[0]


def export_problem(prog: ConicProgram, path, fmt: str = "json") -> None:
    """Write a program to disk as canonical JSON or CBF text."""
    if fmt == "json":
        save_problem(prog, path)
    elif fmt == "cbf":
        write_cbf(prog, path)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def estimate_ecp(net_by_group, observations,
                 opts: cone_solver.SolverOptions | None = None) -> nfxp.EstimationResult:
    """One-shot conic estimation with the NFXP result interface.

    The interior-point method needs no starting parameter.  Status is Optimal
    on success, otherwise the solver status verbatim.  Polishing after
    convergence ends at the first best iterate whose recovered values bind
    within POLISH_BINDING_TOL, a tenth of the binding check's bound; the
    solver's own polishing rules and ``POLISH_ITERS`` budget still cap it.
    An Optimal solution whose recovered value function fails the binding
    check raises BindingViolation; the program is solved once.
    """
    start = time.perf_counter()
    groups = group_observations(observations)
    prog, layout = build_ecp(net_by_group, groups)
    sol = cone_solver.solve(prog, opts, accept=lambda x: _binds(x, layout, net_by_group))
    if sol.status == cone_solver.OPTIMAL:
        beta_hat, _values, _cert = recover_solution(prog, sol, layout, net_by_group)
        loglik = sol.obj_val
    else:
        beta_hat = np.full(layout.n_beta, np.nan)
        loglik = np.nan
    return nfxp.EstimationResult.from_run(
        (beta_hat, loglik, np.nan, sol.status, sol.iterations, sol.trace), observations, start)
