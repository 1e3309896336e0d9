"""Cone membership and program serialization round-trips."""

import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings

from rlogit import core
from rlogit.conic import builder
from rlogit.conic.program import (
    ConicProgram,
    dual_exp_cone_contains,
    exp_cone_contains,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    read_cbf,
    save_problem,
    write_cbf,
)
from rlogit.generators import random_geometric_network
from rlogit.simulate import generate_observations

from conftest import dag_samples


@pytest.mark.parametrize(
    "triple, inside",
    [
        ((0.0, 1.0, 1.0), True),       # boundary: 1 * e^0 = 1
        ((1.0, 1.0, math.e), True),    # boundary at e
        ((1.0, 1.0, 2.7), False),
        ((-1.0, 0.0, 0.5), True),      # closure ray
        ((0.5, 0.0, 0.5), False),
        ((-1.0, -0.1, 0.5), False),    # negative y never belongs
        ((-3.0, 2.0, 1.0), True),      # 2 e^{-1.5} ~ 0.446 <= 1
        ((1000.0, 1.0, 1.0), False),   # overflow-guard branch
    ],
)
def test_exp_cone_contains(triple, inside):
    assert exp_cone_contains(triple) is inside


def test_dual_cone_examples():
    # -grad of the barrier at an interior point lies in the dual interior
    assert dual_exp_cone_contains((-1.0, 0.5, 1.0))
    assert dual_exp_cone_contains((0.0, 1.0, 1.0))  # closure face
    assert not dual_exp_cone_contains((1.0, 0.0, 1.0))


def _sample_program():
    n = 6
    a_eq = np.zeros((3, n))
    b_eq = np.zeros(3)
    a_eq[0, 1] = 1.0
    b_eq[0] = 1.0
    a_eq[1, 2] = 1.0
    a_eq[1, 0] = 1.0
    b_eq[1] = 1.0
    a_eq[2, 3] = 1.0
    a_eq[2, 0] = 1.0
    b_eq[2] = 2.0
    a_ineq = np.zeros((1, n))
    a_ineq[0, 4] = 1.0
    a_ineq[0, 5] = 1.0
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


def test_program_validation_rejects_bad_cone():
    bad_blocks = [
        (sp.eye(6, format="csr")[[0, 1, 5]], np.zeros(3)),  # references x_5 of 2
        (sp.eye(2, format="csr"), np.zeros(2)),  # two rows are no cone
    ]
    for a_cone, b_cone in bad_blocks:
        with pytest.raises(ValueError):
            ConicProgram(
                n_vars=2,
                objective=np.zeros(2),
                maximize=True,
                a_eq=sp.csr_matrix((0, 2)),
                b_eq=np.zeros(0),
                a_ineq=sp.csr_matrix((0, 2)),
                b_ineq=np.zeros(0),
                a_cone=a_cone,
                b_cone=b_cone,
            )


def test_json_roundtrip_byte_identical(tmp_path):
    prog = _sample_program()
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    save_problem(prog, p1)
    prog2 = load_problem(p1)
    save_problem(prog2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(prog2.a_cone.toarray(), prog.a_cone.toarray())
    np.testing.assert_array_equal(prog2.b_cone, prog.b_cone)
    np.testing.assert_array_equal(prog2.objective, prog.objective)


def test_json_rejects_other_schema_versions():
    doc = problem_to_dict(_sample_program())
    assert doc["version"] == 2
    for version in (1, None):
        doc["version"] = version
        with pytest.raises(ValueError):
            problem_from_dict(doc)
    del doc["version"]
    with pytest.raises(ValueError):
        problem_from_dict(doc)


def test_dict_roundtrip_preserves_rows():
    prog = _sample_program()
    prog2 = problem_from_dict(problem_to_dict(prog))
    np.testing.assert_array_equal(prog2.a_eq.toarray(), prog.a_eq.toarray())
    np.testing.assert_array_equal(prog2.a_ineq.toarray(), prog.a_ineq.toarray())
    np.testing.assert_array_equal(prog2.b_eq, prog.b_eq)


def test_cbf_roundtrip_counts_and_solution(tmp_path):
    prog = _sample_program()
    path = tmp_path / "prog.cbf"
    write_cbf(prog, path)
    text = path.read_text()
    assert "EXP 3" in text and "OBJSENSE" in text and "MAX" in text
    back = read_cbf(path)
    assert back.n_vars == prog.n_vars
    assert back.n_eq == prog.n_eq
    assert back.n_ineq == prog.n_ineq
    assert back.n_cones == prog.n_cones
    np.testing.assert_array_equal(back.a_cone.toarray(), prog.a_cone.toarray())
    np.testing.assert_array_equal(back.b_cone, prog.b_cone)
    np.testing.assert_allclose(back.a_eq.toarray(), prog.a_eq.toarray())
    np.testing.assert_allclose(back.b_eq, prog.b_eq)
    np.testing.assert_allclose(back.objective, prog.objective)


def test_cbf_rejects_domains_out_of_order(tmp_path):
    path = tmp_path / "prog.cbf"
    write_cbf(_sample_program(), path)
    path.write_text(path.read_text().replace("CON\n10 4\nL= 3\nL- 1",
                                             "CON\n10 4\nL- 1\nL= 3"))
    with pytest.raises(ValueError):
        read_cbf(path)


@settings(max_examples=15, deadline=None)
@given(dag_samples())
def test_ecp_program_round_trips(tmp_path_factory, sample):
    net, obs, _beta, _mu = sample
    assume("s0" in obs.statistics.groups[net.destination].origin_counts)
    prog, _ = builder.build_ecp(net, builder.group_observations(obs))
    tmp = tmp_path_factory.mktemp("io")
    save_problem(prog, tmp / "p1.json")
    save_problem(load_problem(tmp / "p1.json"), tmp / "p2.json")
    assert (tmp / "p1.json").read_bytes() == (tmp / "p2.json").read_bytes()
    write_cbf(prog, tmp / "p.cbf")
    back = read_cbf(tmp / "p.cbf")
    assert (back.n_vars, back.maximize) == (prog.n_vars, prog.maximize)
    np.testing.assert_array_equal(back.objective, prog.objective)
    for name in ("a_eq", "a_ineq", "a_cone"):
        np.testing.assert_array_equal(getattr(back, name).toarray(),
                                      getattr(prog, name).toarray())
    for name in ("b_eq", "b_ineq", "b_cone"):
        np.testing.assert_array_equal(getattr(back, name), getattr(prog, name))


# sha256 of the exported JSON of one seeded ECP program: it pins every cone
# row, the mass rows (one per state with out-arcs) and the column layout
ECP_PROGRAM_DIGEST = "01086697ee13a7b87e1ff0a18dfeda4ae2e183f20582f71b07b42a851976c5b6"


def test_ecp_program_golden_digest(tmp_path):
    net = random_geometric_network(20, 0.35, seed=1)  # arcs not sorted by tail
    obs = generate_observations(net, core.UtilitySpec(np.array([-4.0, -0.1, -0.05, -0.3])),
                                "o", 200, seed=3)
    prog, _ = builder.build_ecp(net, builder.group_observations(obs))
    builder.export_problem(prog, tmp_path / "p.json")
    assert hashlib.sha256((tmp_path / "p.json").read_bytes()).hexdigest() == ECP_PROGRAM_DIGEST
