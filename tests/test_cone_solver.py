"""Interior-point solver: toy optima, certificates, determinism."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from rlogit.conic.program import ConicProgram, exp_cone_contains
from rlogit.conic.solver import (
    DUAL_INFEASIBLE,
    OPTIMAL,
    PRIMAL_INFEASIBLE,
    Solution,
    SolverOptions,
    check_certificates,
    solve,
)


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


def test_primal_infeasible_certificate():
    # x <= -1 and x >= 1 (as -x <= -1) has no solution; expect a Farkas ray
    prog = ConicProgram(
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
    # maximize x1 + x2 s.t. x1 <= 2, x2 <= 3, x1 + x2 <= 4
    prog = ConicProgram(
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
    sol = solve(prog)
    assert sol.status == OPTIMAL
    assert sol.obj_val == pytest.approx(4.0, abs=1e-7)


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tol_gap=0.0)
