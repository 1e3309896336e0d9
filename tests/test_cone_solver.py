"""Interior-point solver: toy optima, certificates, determinism."""

import copy
import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from scipy.linalg import blas, lapack

from rlogit import core
from rlogit.conic import builder, solver
from rlogit.conic.program import (
    ConicProgram,
    dual_exp_cone_contains,
    exp_cone_contains,
    load_problem,
    read_cbf,
    save_problem,
    write_cbf,
)
from rlogit.conic.solver import (
    DUAL_INFEASIBLE,
    MAX_ITERS,
    OPTIMAL,
    PRIMAL_INFEASIBLE,
    Solution,
    SolverOptions,
    check_certificates,
    solve,
)
from rlogit.generators import random_geometric_network
from rlogit.network import build_network
from rlogit.simulate import ObservationSet, generate_observations, make_observation

from conftest import cyclic_geometric_networks, dag_samples, pooled_set


def _single_cone_program():
    # maximize -z s.t. (1, 1, z) in K_exp  ->  z* = e
    return ConicProgram(
        n_vars=3,
        objective=np.array([0.0, 0.0, -1.0]),
        maximize=True,
        a_eq=sp.csr_matrix(np.array([[1.0, 0, 0], [0, 1.0, 0]])),
        b_eq=np.array([1.0, 1.0]),
        a_ineq=sp.csr_matrix((0, 3)),
        b_ineq=np.zeros(0),
        a_cone=sp.eye(3, format="csr"),
        b_cone=np.zeros(3),
    )


def _logsumexp_program():
    # minimize x s.t. x >= log(e^1 + e^2), encoded via two cones + sum r <= 1
    # vars: x, one, w1, w2, r1, r2 with w_i = v_i - x
    n = 6
    a_eq = np.zeros((3, n))
    b_eq = np.array([1.0, 1.0, 2.0])
    a_eq[0, 1] = 1.0
    a_eq[1, [0, 2]] = 1.0
    a_eq[2, [0, 3]] = 1.0
    a_ineq = np.zeros((1, n))
    a_ineq[0, [4, 5]] = 1.0
    obj = np.zeros(n)
    obj[0] = -1.0
    return ConicProgram(
        n_vars=n,
        objective=obj,
        maximize=True,
        a_eq=sp.csr_matrix(a_eq),
        b_eq=b_eq,
        a_ineq=sp.csr_matrix(a_ineq),
        b_ineq=np.array([1.0]),
        a_cone=sp.eye(n, format="csr")[[2, 1, 4, 3, 1, 5]],
        b_cone=np.zeros(6),
    )


def test_single_cone_optimum_is_e():
    sol = solve(_single_cone_program())
    assert sol.status == OPTIMAL
    assert abs(sol.x[2] - math.e) <= 1e-6
    assert sol.iterations < 100


def test_logsumexp_epigraph_optimum():
    sol = solve(_logsumexp_program())
    assert sol.status == OPTIMAL
    assert abs(sol.x[0] - math.log(math.e + math.e ** 2)) <= 1e-6


def test_optimal_certificates_and_cone_membership():
    prog = _logsumexp_program()
    sol = solve(prog)
    report = check_certificates(prog, sol)
    opts = SolverOptions()
    assert report["primal_eq_residual"] <= 10 * opts.tol_feas
    assert report["dual_residual"] <= 10 * opts.tol_feas
    assert report["primal_cones_ok"] and report["dual_cones_ok"]
    l = prog.n_ineq
    for triple in sol.s[l:].reshape(-1, 3):
        assert exp_cone_contains(triple, 1e-7)


def test_certificates_report_the_smallest_orthant_entries():
    # at an ECP optimum every mass row's dual (an expected visit count) and
    # slack are positive, and the report gives their true minimum
    prog = _ecp_program()
    sol = solve(prog)
    assert sol.status == OPTIMAL
    report = check_certificates(prog, sol)
    l = prog.n_ineq
    assert report["min_linear_slack"] == np.min(sol.s[:l])
    assert report["min_dual_linear"] == np.min(sol.z[:l]) > 0


def test_corrupted_primal_reports_residual():
    prog = _logsumexp_program()
    sol = solve(prog)
    bad = Solution(
        status=sol.status,
        x=sol.x + 0.1,
        y=sol.y,
        z=sol.z,
        s=sol.s,
        obj_val=sol.obj_val,
        gap=sol.gap,
        pres=sol.pres,
        dres=sol.dres,
        iterations=sol.iterations,
    )
    report = check_certificates(prog, bad)
    assert report["primal_eq_residual"] > 1e-3


def test_deterministic_trace():
    a = solve(_logsumexp_program())
    b = solve(_logsumexp_program())
    assert len(a.trace) == len(b.trace)
    for ta, tb in zip(a.trace, b.trace):
        assert ta == tb
    np.testing.assert_array_equal(a.x, b.x)


def _infeasible_lp():
    # x <= -1 and x >= 1 (as -x <= -1) has no solution
    return ConicProgram(
        n_vars=1,
        objective=np.array([1.0]),
        maximize=False,
        a_eq=sp.csr_matrix((0, 1)),
        b_eq=np.zeros(0),
        a_ineq=sp.csr_matrix(np.array([[1.0], [-1.0]])),
        b_ineq=np.array([-1.0, -1.0]),
        a_cone=sp.csr_matrix((0, 1)),
        b_cone=np.zeros(0),
    )


def _pure_lp():
    # maximize x1 + x2 s.t. x1 <= 2, x2 <= 3, x1 + x2 <= 4
    return ConicProgram(
        n_vars=2,
        objective=np.array([1.0, 1.0]),
        maximize=True,
        a_eq=sp.csr_matrix((0, 2)),
        b_eq=np.zeros(0),
        a_ineq=sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])),
        b_ineq=np.array([2.0, 3.0, 4.0]),
        a_cone=sp.csr_matrix((0, 2)),
        b_cone=np.zeros(0),
    )


def _ecp_program():
    net = random_geometric_network(20, 0.35, seed=4)
    beta = np.array([-4.0, -0.1, -0.05, -0.3])
    obs = generate_observations(net, core.UtilitySpec(beta), "o", 300, seed=4)
    return builder.build_ecp(obs.net_by_group(), builder.group_observations(obs))[0]


def test_primal_infeasible_certificate():
    # expect a Farkas ray
    prog = _infeasible_lp()
    sol = solve(prog)
    assert sol.status == PRIMAL_INFEASIBLE
    report = check_certificates(prog, sol)
    assert report["certificate_value"] > 0
    assert report["certificate_residual"] <= 1e-6 * max(1.0, report["certificate_value"])


def test_dual_infeasible_detected():
    # minimize x with x <= 1 only: unbounded below -> dual infeasible
    prog = ConicProgram(
        n_vars=1,
        objective=np.array([1.0]),
        maximize=False,
        a_eq=sp.csr_matrix((0, 1)),
        b_eq=np.zeros(0),
        a_ineq=sp.csr_matrix(np.array([[1.0]])),
        b_ineq=np.array([1.0]),
        a_cone=sp.csr_matrix((0, 1)),
        b_cone=np.zeros(0),
    )
    sol = solve(prog)
    assert sol.status == DUAL_INFEASIBLE


def test_pure_lp_solves():
    sol = solve(_pure_lp())
    assert sol.status == OPTIMAL
    assert sol.obj_val == pytest.approx(4.0, abs=1e-7)


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tol_gap=0.0)


@pytest.mark.parametrize("prog, opts, status", [
    (_logsumexp_program(), SolverOptions(), OPTIMAL),
    (_logsumexp_program(), SolverOptions(max_iters=5), MAX_ITERS),
    (_infeasible_lp(), SolverOptions(), PRIMAL_INFEASIBLE),
])
def test_iterations_count_every_iteration_run(prog, opts, status):
    sol = solve(prog, opts)
    assert sol.status == status
    assert sol.iterations == len(sol.trace)


def test_trace_records_step_length_and_centering():
    sol = solve(_logsumexp_program())
    # every iteration but the returning one searched for a step
    for rec in sol.trace[:-1]:
        assert 0.0 < rec["alpha"] <= 1.0
        assert 0.0 < rec["sigma"] <= 1.0
        assert rec["recentered"] is False
    assert "alpha" not in sol.trace[-1]


def _first_in_tolerance(sol, opts):
    """The first iteration whose iterate met the tolerances."""
    return next(r["iter"] for r in sol.trace if max(r["pres"], r["dres"]) <= opts.tol_feas
                and r["gap"] <= opts.tol_gap)


@pytest.mark.parametrize("forced_step", [0.0, 1e-7])
def test_polish_ends_on_stall_without_recentering(monkeypatch, forced_step):
    prog = _logsumexp_program()
    opts = SolverOptions()
    free = solve(prog, opts)
    converged = _first_in_tolerance(free, opts)
    # count iterations by their one scaling computation; from the first
    # in-tolerance iterate on, every step search finds a stalled step
    iterations = []
    real_scaling, real_step = solver._Cone.scaling, solver._step_length

    def counting_scaling(self, *args):
        iterations.append(None)
        return real_scaling(self, *args)

    def stalled_step(*args):
        return forced_step if len(iterations) >= converged else real_step(*args)

    monkeypatch.setattr(solver._Cone, "scaling", counting_scaling)
    monkeypatch.setattr(solver, "_step_length", stalled_step)
    sol = solve(prog, opts)
    assert sol.status == OPTIMAL
    assert max(sol.pres, sol.dres) <= opts.tol_feas and sol.gap <= opts.tol_gap
    assert all(r["recentered"] is False for r in sol.trace if "alpha" in r)
    assert all("alpha" in r for r in sol.trace[:-1])
    assert len(sol.trace) < len(free.trace)


def test_polish_ends_when_complementarity_stops_falling():
    # with the primal-dual direction the complementarity reaches its rounding
    # floor a few iterations after convergence; polishing ends there, not at
    # the end of its budget, and not on stalled steps
    opts = SolverOptions()
    sol = solve(_ecp_program(), opts)
    converged = _first_in_tolerance(sol, opts)
    assert sol.status == OPTIMAL
    assert sol.iterations < converged + solver.POLISH_ITERS
    assert all(r["alpha"] > 1e-6 for r in sol.trace[converged - 1:-1])


def test_accept_returns_the_first_in_tolerance_iterate():
    opts = SolverOptions()
    free = solve(_ecp_program(), opts)
    converged = _first_in_tolerance(free, opts)
    sol = solve(_ecp_program(), opts, accept=lambda x: True)
    assert sol.status == OPTIMAL and sol.iterations == converged < free.iterations
    assert sol.trace[:-1] == free.trace[:converged - 1]
    assert "alpha" not in sol.trace[-1]


def test_rejecting_accept_leaves_the_solve_unchanged():
    offered = []

    def reject(x):
        offered.append(x.copy())
        return False

    free = solve(_ecp_program())
    sol = solve(_ecp_program(), accept=reject)
    assert sol.trace == free.trace
    np.testing.assert_array_equal(sol.x, free.x)
    # the returned iterate is the last one offered
    assert len(offered) >= 1
    np.testing.assert_array_equal(offered[-1], sol.x)


def _many_paths_program():
    # the 32-state DAG with 20,000 paths: its largest optimal dual is 2e4
    net = random_geometric_network(30, 0.3, seed=1)
    obs = generate_observations(net, core.UtilitySpec(np.array([-4.0, -0.1, -0.05, -0.3])),
                                "o", 20000, seed=7)
    return builder.build_ecp(net, builder.group_observations(obs))[0]


def _scaled(prog, k):
    out = copy.copy(prog)
    out.objective = prog.objective * k
    return out


@pytest.mark.parametrize("make_prog", [_ecp_program, _logsumexp_program])
def test_start_is_central_at_the_least_norm_dual_scale(monkeypatch, make_prog):
    # mu0 = ||z_ls||_inf for the z_ls of least norm with A'y + G'z = -c: on
    # the null space N of A, (G N)' z = -N' c, solved by a dense lstsq
    prog = make_prog()
    c = -prog.objective if prog.maximize else prog.objective
    a_mat, g_mat = prog.a_eq.toarray(), prog.g_mat.toarray()
    null = scipy.linalg.null_space(a_mat) if len(a_mat) else np.eye(prog.n_vars)
    z_ls = np.linalg.lstsq((g_mat @ null).T, -null.T @ c, rcond=None)[0]
    duals = []
    real_scaling = solver._Cone.scaling

    def recording_scaling(self, bar, z, mu):
        duals.append(z.copy())
        return real_scaling(self, bar, z, mu)

    monkeypatch.setattr(solver._Cone, "scaling", recording_scaling)
    sol = solve(prog, SolverOptions(max_iters=1))
    mu0 = sol.trace[0]["mu"]
    assert mu0 == pytest.approx(np.max(np.abs(z_ls)), rel=1e-9)
    assert sol.trace[0]["kappa"] == pytest.approx(mu0, rel=1e-12)
    cone = solver._Cone(prog.n_ineq, prog.n_cones)
    np.testing.assert_allclose(duals[0], -mu0 * cone.grad(cone.init_point()), rtol=1e-12)
    # no objective, no dual scale: the unit start
    assert solve(_scaled(prog, 0.0), SolverOptions(max_iters=1)).trace[0]["mu"] == 1.0


@pytest.mark.parametrize("make_prog", [_ecp_program, _many_paths_program])
def test_iterations_do_not_depend_on_the_objective_scale(make_prog):
    # rescaling c rescales (y, z, kappa, mu) and the start with them, and
    # leaves x, s, tau and every step as they are
    opts = SolverOptions()
    first = []
    for k in (1e-3, 1e-1, 1.0, 10.0, 1e3, 1e5):
        sol = solve(_scaled(make_prog(), k), opts)
        assert sol.status == OPTIMAL
        first.append(_first_in_tolerance(sol, opts))
    assert max(first) - min(first) <= 1


@pytest.mark.parametrize("make_prog, k", [(_ecp_program, 1e5), (_many_paths_program, 1e3)])
def test_large_objectives_are_not_certified_infeasible(monkeypatch, make_prog, k):
    # from the unit start, far below these feasible, bounded programs' dual
    # scale, the iterates pass through rays whose residuals are small only
    # against the size of c; the certificate tests measure them in the
    # data's units and reject them
    monkeypatch.setattr(solver, "_dual_scale", lambda kkt, c: 1.0)
    sol = solve(_scaled(make_prog(), k))
    assert sol.status == OPTIMAL


def test_blocked_step_before_convergence_recenters(monkeypatch):
    # no step at all in the third iteration, centering step included: the
    # dual iterate is recentered at once instead of ending the solve
    iterations = []
    real_scaling, real_step = solver._Cone.scaling, solver._step_length

    def counting_scaling(self, *args):
        iterations.append(None)
        return real_scaling(self, *args)

    def blocked_step(*args):
        return 0.0 if len(iterations) == 3 else real_step(*args)

    monkeypatch.setattr(solver._Cone, "scaling", counting_scaling)
    monkeypatch.setattr(solver, "_step_length", blocked_step)
    sol = solve(_logsumexp_program())
    assert sol.status == OPTIMAL
    assert sol.trace[2]["alpha"] == 0.0 and sol.trace[2]["recentered"] is True
    assert abs(sol.x[0] - math.log(math.e + math.e ** 2)) <= 1e-6


def _interior_pair(cone, rng, scale):
    # z off the central path, so the primal-dual blocks of the scaling are used
    s = cone.init_point() * (1.0 + 0.05 * rng.random(cone.dim))
    return s, -scale * cone.grad(s) * (1.0 + 0.05 * rng.random(cone.dim))


def _scaling_at(cone, rng, scale):
    s, z = _interior_pair(cone, rng, scale)
    return cone.scaling(solver._Barrier(cone, s), z, scale)


def _scaling_matrix(cone, hvals):
    rows, cols = cone.scaling_pattern()
    return sp.csr_matrix((hvals, (rows, cols)), shape=(cone.dim, cone.dim))


def _normal_matrix(prog, h_mat):
    """N = G' H G as a dense array."""
    return (prog.g_mat.T @ h_mat @ prog.g_mat).toarray()


def _kkt(prog):
    cone = solver._Cone(prog.n_ineq, prog.n_cones)
    return cone, solver._ReducedKKT(prog.a_eq, prog.g_mat, cone, solver.REGULARIZATION)


def _two_destination_program():
    nets, obs = pooled_set((1, 2), 100, np.array([-4.0, -0.1, -0.05, -0.3]))
    return builder.build_ecp(nets, builder.group_observations(obs))[0]


_PROGRAMS = [_ecp_program, _pure_lp, _logsumexp_program, _two_destination_program]


@pytest.mark.parametrize("make_prog", _PROGRAMS)
def test_kkt_pattern_assembly_matches_block_assembly(make_prog):
    # the Schur complement written by one bincount equals the block formula
    # N_FF - N_FE N_EE^-1 N_EF on the dense N = G' H G
    prog = make_prog()
    cone, kkt = _kkt(prog)
    assert (len(kkt.elim) > 0) == (make_prog is not _pure_lp)
    rng = np.random.default_rng(0)
    for scale in (1.0, 1e-3):
        hvals = _scaling_at(cone, rng, scale)
        h_mat = _scaling_matrix(cone, hvals)
        kkt.factor(hvals)
        n_mat = _normal_matrix(prog, h_mat)
        f, e = kkt.kept, kkt.elim
        n_fe = n_mat[np.ix_(f, e)]
        expected = n_mat[np.ix_(f, f)] - n_fe @ np.linalg.solve(n_mat[np.ix_(e, e)], n_fe.T)
        # equal up to the order in which products are summed; the lower
        # triangle is the one assembled and factored
        np.testing.assert_allclose(np.tril(kkt.s_mat), np.tril(expected), rtol=0,
                                   atol=1e-13 * np.max(np.abs(expected)))
        v = rng.standard_normal(cone.dim)
        np.testing.assert_allclose(cone.apply_scaling(hvals, v), h_mat @ v,
                                   rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("make_prog", _PROGRAMS + [_single_cone_program])
def test_kkt_solve_matches_dense_solve(make_prog):
    # with equality rows (_logsumexp_program, _single_cone_program) and
    # without; the single cone also holds kept columns beside the
    # eliminated one
    prog = make_prog()
    n, p = prog.n_vars, prog.a_eq.shape[0]
    cone, kkt = _kkt(prog)
    rng = np.random.default_rng(1)
    # the second factorization replaces all of the first
    kkt.factor(_scaling_at(cone, rng, 1.0))
    hvals = _scaling_at(cone, rng, 1e-2)
    kkt.factor(hvals)
    h_mat = _scaling_matrix(cone, hvals)
    r1, r2, r3 = rng.standard_normal(n), rng.standard_normal(p), rng.standard_normal(cone.dim)
    dx, dy, dz = kkt.solve(r1, r2, h_mat @ r3)

    a_eq = prog.a_eq.toarray()
    plain = np.block([[_normal_matrix(prog, h_mat), a_eq.T], [a_eq, np.zeros((p, p))]])
    want = np.linalg.solve(plain, np.concatenate([r1 + prog.g_mat.T @ (h_mat @ r3), r2]))
    np.testing.assert_allclose(np.concatenate([dx, dy]), want, rtol=1e-8,
                               atol=1e-10 * np.max(np.abs(want)))

    # (dx, dy, dz) solves the unregularized KKT system with W = H^-1
    w_mat = np.linalg.inv(h_mat.toarray())
    full = sp.bmat([[None, prog.a_eq.T, prog.g_mat.T], [prog.a_eq, None, None],
                    [prog.g_mat, None, -w_mat]], format="csr")
    full_rhs = np.concatenate([r1, r2, r3])
    residual = full @ np.concatenate([dx, dy, dz]) - full_rhs
    assert np.max(np.abs(residual)) <= 1e-8 * np.max(np.abs(full_rhs))


def _one_arc_program():
    # one state, one arc: G has rank 2 on 3 variables
    net = build_network(["s0", "d"], "d", [("s0", "d", [2.0])], ["cost"])
    obs = ObservationSet(net, [make_observation(net, ["s0", "d"])])
    return builder.build_ecp(net, builder.group_observations(obs))[0]


class _CountingLapack:
    """Stands in for ``scipy.linalg.lapack`` (or ``blas``) in the solver
    module: counts the calls of each routine in ``calls`` and keeps the
    shape of every matrix passed to ``dpotrf``."""

    def __init__(self, module=lapack):
        self.module = module
        self.shapes = []
        self.calls = Counter()

    def dpotrf(self, mat, *args, **kwargs):
        self.shapes.append(mat.shape)
        self.calls["dpotrf"] += 1
        return self.module.dpotrf(mat, *args, **kwargs)

    def __getattr__(self, name):
        routine = getattr(self.module, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return routine(*args, **kwargs)

        return counted


@pytest.mark.parametrize("make_prog, kept", [(_one_arc_program, 2), (_logsumexp_program, 4)],
                         ids=["_one_arc_program", "_logsumexp_program"])
def test_factored_rows_are_kept_columns_and_equalities(monkeypatch, make_prog, kept):
    # the one-arc program keeps beta and u and eliminates r; the log-sum-exp
    # epigraph eliminates its two masses and keeps x, one, w1 and w2
    prog = make_prog()
    counting = _CountingLapack()
    monkeypatch.setattr(solver, "lapack", counting)
    sol = solve(prog)
    assert sol.status == OPTIMAL
    p = prog.a_eq.shape[0]
    assert set(counting.shapes) == {(kept, kept)} | ({(p, p)} if p else set())
    # one factorization of S, and one of the equality block if there is
    # one, for the start and per iteration that searched for a step
    assert len(counting.shapes) == (1 + (p > 0)) * (1 + sum("alpha" in r for r in sol.trace))


def _counted_solve(monkeypatch, prog):
    """Solve ``prog`` counting the LAPACK and BLAS calls and the KKT
    factorizations and solves; also returns the solution."""
    counting = {"lapack": _CountingLapack(), "blas": _CountingLapack(blas)}
    for name, stand_in in counting.items():
        monkeypatch.setattr(solver, name, stand_in)
    kkt_calls = Counter()
    for method in ("factor", "solve"):
        real = getattr(solver._ReducedKKT, method)

        def counted(self, *args, _real=real, _method=method):
            kkt_calls[_method] += 1
            return _real(self, *args)

        monkeypatch.setattr(solver._ReducedKKT, method, counted)
    sol = solve(prog)
    assert sol.status == OPTIMAL
    return sol, counting["lapack"].calls + counting["blas"].calls, kkt_calls


def test_ecp_kkt_solve_is_one_triangular_pair_per_solve(monkeypatch):
    # an ECP has no equality rows and S is positive definite: one Cholesky
    # per factorization, never the fallback, one dpotrs per KKT solve, and
    # no refinement
    sol, calls, kkt_calls = _counted_solve(monkeypatch, _ecp_program())
    factored = [r["regularized"] for r in sol.trace if "regularized" in r]
    assert factored and not any(factored)
    assert calls["dpotrf"] == kkt_calls["factor"] == 1 + len(factored)
    assert calls["dpotrs"] == kkt_calls["solve"]
    assert calls["dsymv"] == 0


def test_equality_rows_refine_on_the_regularized_factor(monkeypatch):
    # each factorization: Cholesky of S + D, its solve for A_F', and the
    # Cholesky of the equality block; each KKT solve and each of its two
    # refinement steps: two pairs of triangular solves, the steps one dsymv
    sol, calls, kkt_calls = _counted_solve(monkeypatch, _logsumexp_program())
    assert all(r["regularized"] for r in sol.trace if "regularized" in r)
    assert calls["dpotrf"] == 2 * kkt_calls["factor"]
    assert calls["dpotrs"] == kkt_calls["factor"] + 6 * kkt_calls["solve"]
    assert calls["dsymv"] == 2 * kkt_calls["solve"]


def test_zero_attribute_takes_the_regularized_fallback():
    # an attribute that is zero on every arc leaves S singular, so every
    # factorization falls back to the regularized, refined solve; beta is
    # the regularized solver's (29 iterations), with 0 for that attribute
    net = random_geometric_network(20, 0.35, seed=4)
    zero = build_network(list(net.states), net.destination,
                         [(u, v, np.append(a, 0.0)) for u, v, a in net.arcs()],
                         list(net.attribute_names) + ["zero"])
    beta = np.array([-4.0, -0.1, -0.05, -0.3, 0.0])
    obs = generate_observations(zero, core.UtilitySpec(beta), "o", 300, seed=4)
    prog, layout = builder.build_ecp(obs.net_by_group(), builder.group_observations(obs))
    sol = solve(prog)
    assert sol.status == OPTIMAL
    factored = [r["regularized"] for r in sol.trace if "regularized" in r]
    assert factored and all(factored)
    assert sol.x[layout.n_beta - 1] == 0.0
    np.testing.assert_allclose(sol.x[:layout.n_beta - 1],
                               [-3.88655759, 0.03753695, -0.04371795, -0.33133178],
                               rtol=0, atol=1e-7)


def _exp_minus_one_program(with_w):
    # maximize -z s.t. (-1, 1, z) in K_exp -> z* = 1/e.  z is eliminated; w,
    # fixed to 1 by an equality row and in no cone, is the one kept column
    n = 1 + with_w
    return ConicProgram(
        n_vars=n,
        objective=np.eye(n)[-1] * -1.0,
        maximize=True,
        a_eq=sp.csr_matrix(np.eye(n)[:with_w]),
        b_eq=np.ones(with_w),
        a_ineq=sp.csr_matrix((0, n)),
        b_ineq=np.zeros(0),
        a_cone=sp.csr_matrix(np.outer([0.0, 0.0, 1.0], np.eye(n)[-1])),
        b_cone=np.array([-1.0, 1.0, 0.0]),
    )


@pytest.mark.parametrize("with_w", [0, 1])
def test_programs_with_no_kept_cone_column_solve(with_w):
    # S is empty, or has no terms at all
    prog = _exp_minus_one_program(with_w)
    assert _kkt(prog)[1].nf == with_w
    sol = solve(prog)
    assert sol.status == OPTIMAL
    assert abs(sol.x[-1] - math.exp(-1.0)) <= 1e-6


def _mass_columns(prog, layout):
    """The r columns of an ECP program: every column but beta and u."""
    named = set(range(layout.n_beta)).union(*(g.cols.tolist() for g in layout.groups.values()))
    return np.array(sorted(set(range(prog.n_vars)) - named))


def _check_reduction(prog, layout, tmp, seed):
    """The KKT class eliminates exactly the r columns, also after JSON and
    CBF round trips, and one solve agrees with a dense solve of N."""
    save_problem(prog, tmp / "p.json")
    write_cbf(prog, tmp / "p.cbf")
    mass = _mass_columns(prog, layout)
    for loaded in (load_problem(tmp / "p.json"), read_cbf(tmp / "p.cbf")):
        np.testing.assert_array_equal(_kkt(loaded)[1].elim, mass)
    cone, kkt = _kkt(prog)
    np.testing.assert_array_equal(kkt.elim, mass)
    rng = np.random.default_rng(seed)
    hvals = _scaling_at(cone, rng, 1.0)
    kkt.factor(hvals)
    h_mat = _scaling_matrix(cone, hvals)
    r1, r3 = rng.standard_normal(prog.n_vars), rng.standard_normal(cone.dim)
    dx, _, _ = kkt.solve(r1, np.zeros(0), h_mat @ r3)
    want = np.linalg.solve(_normal_matrix(prog, h_mat), r1 + prog.g_mat.T @ (h_mat @ r3))
    assert np.max(np.abs(dx - want)) <= 1e-8 * np.max(np.abs(want))


@settings(max_examples=15, deadline=None)
@given(dag_samples(), st.integers(0, 10**6))
def test_ecp_reduction_on_generated_dags(tmp_path_factory, sample, seed):
    net, obs, _beta, _mu = sample
    assume("s0" in obs.statistics.groups[net.destination].origin_counts)
    prog, layout = builder.build_ecp(net, builder.group_observations(obs))
    # an attribute (nearly) zero on every arc leaves N too ill-conditioned
    # for two solves to agree to 1e-8
    assume(np.linalg.cond(prog.g_mat.toarray()) < 1e4)
    _check_reduction(prog, layout, tmp_path_factory.mktemp("io"), seed)


@settings(max_examples=5, deadline=None)
@given(cyclic_geometric_networks(), st.integers(0, 10**6))
def test_ecp_reduction_on_cyclic_networks(tmp_path_factory, net, seed):
    spec = core.UtilitySpec(np.array([-20.0, -1.0, -1.0, -2.0]))
    obs = generate_observations(net, spec, "o", 20, seed=seed)
    prog, layout = builder.build_ecp(net, builder.group_observations(obs))
    _check_reduction(prog, layout, tmp_path_factory.mktemp("io"), seed)


# --- cone calculus ------------------------------------------------------------

_log_scale = st.floats(-2.0, 2.0)


@st.composite
def _primal_points(draw):
    """Interior points (x, y, z) of the exponential cone with margin
    psi = y log(z/y) - x in [e^-5, e^2]."""
    y, z, m = (math.exp(draw(_log_scale)), math.exp(draw(_log_scale)),
               math.exp(draw(st.floats(-5.0, 2.0))))
    return np.array([y * math.log(z / y) - m, y, z])


@st.composite
def _dual_points(draw):
    """Interior points (u, v, w) of the dual cone with margin
    log w + 1 - log(-u) - v/u in [e^-5, e^2]."""
    u, w, rho = (-math.exp(draw(_log_scale)), math.exp(draw(_log_scale)),
                 math.exp(draw(st.floats(-5.0, 2.0))))
    return np.array([u, u * (math.log(w) + 1.0 - math.log(-u) - rho), w])


@settings(max_examples=200, deadline=None)
@given(_dual_points())
def test_shadow_point_inverts_the_barrier_gradient(z):
    s_tilde = solver._exp_shadow(z[None, :])
    assert dual_exp_cone_contains(z) and exp_cone_contains(s_tilde[0])
    back = -solver._Cone(0, 1).grad(s_tilde.ravel())
    np.testing.assert_allclose(back, z, rtol=0, atol=1e-11 * np.max(np.abs(z)))


@settings(max_examples=200, deadline=None)
@given(_primal_points(), _dual_points(), st.floats(1e-3, 10.0))
def test_primal_dual_scaling_maps_both_points(s, z, mu):
    cone = solver._Cone(0, 1)
    bar = solver._Barrier(cone, s)
    s_tilde, z_tilde = solver._exp_shadow(z[None, :])[0], -bar.grad
    # off the central path, where the cone keeps mu hess F(s) instead
    assume(abs((s @ z) * (s_tilde @ z_tilde) / 9.0 - 1.0) > 1e-6)
    h = cone.scaling(bar, z, mu).reshape(3, 3)
    np.testing.assert_array_equal(h, h.T)
    assert np.linalg.eigvalsh(h)[0] > 0
    norm = np.max(np.abs(h))
    assert np.max(np.abs(h @ s - z)) <= 1e-13 * norm * np.max(np.abs(s))
    assert np.max(np.abs(h @ s_tilde - z_tilde)) <= 1e-13 * norm * np.max(np.abs(s_tilde))


@settings(max_examples=100, deadline=None)
@given(_primal_points(), st.floats(1e-6, 10.0))
def test_scaling_on_the_central_path_is_the_barrier_hessian(s, mu):
    cone = solver._Cone(0, 1)
    bar = solver._Barrier(cone, s)
    h = cone.scaling(bar, -mu * bar.grad, mu)
    np.testing.assert_array_equal(h, (mu * bar.hess()).ravel())


@settings(max_examples=200, deadline=None)
@given(_primal_points(), st.integers(0, 2**32 - 1))
def test_closed_form_inverse_hessian_matches_linear_solve(s, seed):
    bar = solver._Barrier(solver._Cone(0, 1), s)
    hess = bar.hess()[0]
    assume(np.linalg.cond(hess) < 1e6)
    b = np.random.default_rng(seed).standard_normal((1, 3))
    w = bar.hess_inv(b)[0]
    np.testing.assert_allclose(w, np.linalg.solve(hess, b[0]), rtol=1e-9,
                               atol=1e-9 * np.max(np.abs(w)))


def _late_iterates(prog, count=5):
    """The slacks of the last ``count`` iterations of a solve of ``prog``."""
    slacks = []
    real = solver._Barrier

    def keep(cone, s):
        slacks.append(s.copy())
        return real(cone, s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_Barrier", keep)
        assert solve(prog).status == OPTIMAL
    return slacks[-count:]


def test_closed_form_inverse_hessian_at_late_iterates():
    # late in a solve hess F's condition number is far beyond 1e12, where a
    # numerical inverse fails; the closed form is still backward stable for
    # the barrier's own Hessian (built from its float psi and checked in
    # extended precision): |H w - b| <= 1e-13 (|H| |w| + |b|) on every cone
    prog = _ecp_program()
    cone = solver._Cone(prog.n_ineq, prog.n_cones)
    rng = np.random.default_rng(2)
    worst_cond = 0.0
    for s in _late_iterates(prog):
        bar = solver._Barrier(cone, s)
        wide = copy.copy(bar)
        for name, value in vars(bar).items():
            if isinstance(value, np.ndarray):
                setattr(wide, name, value.astype(np.longdouble))
        hess = wide.hess()
        worst_cond = max(worst_cond, float(np.max(np.linalg.cond(bar.hess()))))
        b = rng.standard_normal((cone.ne, 3))
        w = bar.hess_inv(b)
        residual = np.einsum("nij,nj->ni", hess, w.astype(np.longdouble)) - b
        scale = (np.max(np.sum(np.abs(hess), axis=2), axis=1) * np.max(np.abs(w), axis=1)
                 + np.max(np.abs(b), axis=1))
        assert np.max(np.max(np.abs(residual), axis=1) / scale) <= 1e-13
    assert worst_cond > 1e12


@settings(max_examples=100, deadline=None)
@given(_primal_points(), st.integers(0, 2**32 - 1))
def test_third_derivative_matches_differences_of_the_hessian(s, seed):
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal((2, 1, 3))
    cone = solver._Cone(0, 1)
    step = 1e-5 * min(1.0, float(solver._exp_primal_margin(s)))
    diff = (solver._Barrier(cone, s + step * u[0]).hess()[0]
            - solver._Barrier(cone, s - step * u[0]).hess()[0]) / (2 * step)
    third = solver._Barrier(cone, s).third(u, v)[0]
    np.testing.assert_allclose(third, diff @ v[0], rtol=0, atol=1e-4 * np.max(np.abs(third)))


# --- step search --------------------------------------------------------------


def _backtracking_step(cone, s, ds, z, dz, tau, dtau, kappa, dkappa, ftb, min_step):
    """The step search as a plain backtracking loop that re-checks every
    cone at each trial alpha *= 0.8."""
    alpha = 1.0 / ftb
    for val, dval in ((tau, dtau), (kappa, dkappa)):
        if dval < 0:
            alpha = min(alpha, -val / dval)
    alpha = min(alpha, cone.max_linear_step(s, ds), cone.max_linear_step(z, dz))
    alpha = min(1.0, ftb * alpha)
    pm, dm = cone.margins(s, z)
    while alpha > min_step:
        p_floor = (1.0 - ftb) * pm * alpha if np.isfinite(pm) else 0.0
        d_floor = (1.0 - ftb) * dm * alpha if np.isfinite(dm) else 0.0
        (lin_s, es), (lin_z, ez) = cone.split(s + alpha * ds), cone.split(z + alpha * dz)
        with np.errstate(all="ignore"):
            if (np.all(lin_s > 0) and np.all(lin_z > 0)
                    and np.all(es[:, 1] > 0) and np.all(es[:, 2] > 0)
                    and np.all(solver._exp_primal_margin(es) > p_floor)
                    and np.all(ez[:, 0] < 0) and np.all(ez[:, 2] > 0)
                    and np.all(solver._exp_dual_margin(ez) > d_floor)):
                return alpha
        alpha *= 0.8
    return 0.0


@pytest.mark.parametrize("l, ne", [(0, 40), (6, 0), (6, 40)])
def test_step_search_matches_backtracking_loop(l, ne):
    cone = solver._Cone(l, ne)
    rng = np.random.default_rng(l + ne)
    found = set()
    for trial in range(300):
        s, z = _interior_pair(cone, rng, 10.0 ** rng.uniform(-6, 0))
        scale = 10.0 ** rng.uniform(-2, 11)
        ds, dz = scale * rng.standard_normal((2, cone.dim))
        tau, kappa = 10.0 ** rng.uniform(-3, 1, 2)
        dtau, dkappa = rng.standard_normal(2)
        args = (cone, s, ds, z, dz, tau, dtau, kappa, dkappa,
                (1.0, 0.99)[trial % 2], solver.MIN_STEP)
        alpha = solver._step_length(*args, cone.margins(s, z))
        assert alpha == _backtracking_step(*args)
        found.add(alpha)
    # short and full steps, and no step at all, were all covered
    assert 0.0 in found and 1.0 in found and len(found) > 30


def test_step_search_matches_backtracking_loop_on_a_real_solve(monkeypatch):
    # the affine, combined and centering directions of one ECP solve
    real_step = solver._step_length
    agree = []

    def checked_step(*args):
        alpha = real_step(*args)
        agree.append(alpha == _backtracking_step(*args[:-1]))
        return alpha

    monkeypatch.setattr(solver, "_step_length", checked_step)
    assert solve(_ecp_program()).status == OPTIMAL
    assert len(agree) > 20 and all(agree)
