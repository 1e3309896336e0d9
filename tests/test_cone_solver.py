"""Interior-point solver: toy optima, certificates, determinism."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

import scipy.sparse.linalg as spla

from rlogit import core
from rlogit.conic import builder, solver
from rlogit.conic.program import ConicProgram, exp_cone_contains
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


@pytest.mark.parametrize("forced_step", [0.0, 1e-7])
def test_polish_ends_on_stall_without_recentering(monkeypatch, forced_step):
    prog = _logsumexp_program()
    opts = SolverOptions()
    free = solve(prog, opts)
    converged = next(r["iter"] for r in free.trace if max(r["pres"], r["dres"]) <= opts.tol_feas
                     and r["gap"] <= opts.tol_gap)
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
    s = cone.init_point() * (1.0 + 0.05 * rng.random(cone.dim))
    return s, -scale * cone.grad(s)


def _scaling_matrix(cone, hvals):
    rows, cols = cone.scaling_pattern()
    return sp.csr_matrix((hvals, (rows, cols)), shape=(cone.dim, cone.dim))


def _normal_matrix(prog, h_mat, reg):
    """[[N, A'], [A, 0]] and its regularized form, with N = G' H G, by scipy."""
    a_mat, g_mat = prog.a_eq, prog.g_mat
    n0 = (g_mat.T @ h_mat @ g_mat).tocsc()
    plain = sp.bmat([[n0, a_mat.T], [a_mat, sp.csc_matrix((a_mat.shape[0],) * 2)]],
                    format="csc")
    delta = np.concatenate([reg + solver._REG_REL * np.abs(n0.diagonal()),
                            np.full(a_mat.shape[0], -reg)])
    return plain, (plain + sp.diags(delta)).tocsc()


_PROGRAMS = [_ecp_program, _pure_lp, _logsumexp_program]


@pytest.mark.parametrize("make_prog", _PROGRAMS)
def test_kkt_pattern_assembly_matches_block_assembly(make_prog):
    prog = make_prog()
    cone = solver._Cone(prog.n_ineq, prog.n_cones)
    reg = SolverOptions().regularization
    kkt = solver._NormalEquations(prog.a_eq, prog.g_mat, cone, reg)
    rng = np.random.default_rng(0)
    for scale in (1.0, 1e-3):
        hvals = cone.scaling(*_interior_pair(cone, rng, scale), scale)
        h_mat = _scaling_matrix(cone, hvals)
        kkt.assemble(hvals)
        _, expected = _normal_matrix(prog, h_mat, reg)
        # equal up to the order in which products are summed
        np.testing.assert_allclose(kkt.mat.toarray(), expected.toarray(), rtol=1e-15, atol=0)
        v = rng.standard_normal(cone.dim)
        np.testing.assert_allclose(cone.apply_scaling(hvals, v), h_mat @ v,
                                   rtol=1e-14, atol=1e-14)


def test_kkt_solve_with_reused_ordering_matches_fresh_factorization():
    reg = SolverOptions().regularization
    for make_prog in _PROGRAMS:
        prog = make_prog()
        n, p = prog.n_vars, prog.a_eq.shape[0]
        cone = solver._Cone(prog.n_ineq, prog.n_cones)
        kkt = solver._NormalEquations(prog.a_eq, prog.g_mat, cone, reg)
        rng = np.random.default_rng(1)
        kkt.factor(cone.scaling(*_interior_pair(cone, rng, 1.0), 1.0))
        first_order = kkt.order.copy()
        assert make_prog is not _ecp_program or not np.array_equal(first_order, np.arange(n))
        # the first factorization laid the pattern out in its minimum-degree
        # order; the second keeps that layout
        hvals = cone.scaling(*_interior_pair(cone, rng, 1e-2), 1e-2)
        kkt.factor(hvals)
        np.testing.assert_array_equal(kkt.order, first_order)
        h_mat = _scaling_matrix(cone, hvals)
        r1, r2, r3 = rng.standard_normal(n), rng.standard_normal(p), rng.standard_normal(cone.dim)
        dx, dy, dz = kkt.solve(r1, r2, h_mat @ r3)

        plain, regularized = _normal_matrix(prog, h_mat, reg)
        rhs = np.concatenate([r1 + prog.g_mat.T @ (h_mat @ r3), r2])
        lu = spla.splu(regularized)
        want = lu.solve(rhs)
        for _ in range(2):
            want = want + lu.solve(rhs - plain @ want)
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


class _CountingLinalg:
    """Stands in for ``scipy.sparse.linalg`` in the solver module and keeps
    the shape of every matrix passed to ``splu``."""

    def __init__(self):
        self.shapes = []

    def splu(self, mat, *args, **kwargs):
        self.shapes.append(mat.shape)
        return spla.splu(mat, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(spla, name)


@pytest.mark.parametrize("make_prog", [_one_arc_program, _logsumexp_program])
def test_factored_system_has_one_row_per_variable_and_equality(monkeypatch, make_prog):
    prog = make_prog()
    linalg = _CountingLinalg()
    monkeypatch.setattr(solver, "spla", linalg)
    sol = solve(prog)
    assert sol.status == OPTIMAL
    size = prog.n_vars + prog.a_eq.shape[0]
    assert set(linalg.shapes) == {(size, size)}
    # the minimum-degree ordering call, then one factorization per iteration
    # that searched for a step
    assert len(linalg.shapes) == 1 + sum("alpha" in r for r in sol.trace)
