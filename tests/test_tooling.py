"""The benchmark's tracing hooks and the demos, run against the package.

``bench/tracing.py`` wraps package attributes by name; installing it here
makes a renamed attribute fail in the test suite instead of in a benchmark
run.  The benchmark files are only read."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rlogit import cli, core, generators, network, nfxp, nrl, simulate, trim
from rlogit.conic import builder, solver
from rlogit.generators import random_geometric_network

ROOT = Path(__file__).resolve().parent.parent
MODULES = (cli, core, generators, network, nfxp, nrl, simulate, trim, builder, solver)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracing_installs_and_uninstalls():
    net = random_geometric_network(15, 0.4, seed=1)
    spec = core.UtilitySpec(np.array([-4.0, -0.1, -0.05, -0.3]))
    obs = simulate.generate_observations(net, spec, "o", 50, seed=1)
    before = [dict(vars(m)) for m in MODULES]
    original = core.solve_value_linear
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert core.solve_value_linear is not original
        tracer.active = True
        nfxp.loglik_and_gradient(obs.net_by_group(), spec, obs)
        solves = tracer.counts["core.value_solve.calls"]
        trim.flow_vector(net, spec.beta, "o")
    finally:
        tracer.uninstall()
    # NFXP resolves the traced value solve: one per destination group
    assert tracer.counts["nfxp.evaluation.calls"] == 1
    assert solves == 1
    # and flow_vector solves the value system once, reusing its factor
    assert tracer.counts["trim.flow.calls"] == 1
    assert tracer.counts["core.value_solve.calls"] == solves + 1
    for module, attrs in zip(MODULES, before):
        assert vars(module).keys() == attrs.keys()
        assert all(vars(module)[k] is v for k, v in attrs.items()), module.__name__


def test_traced_fallback_is_one_solved_value_solve():
    # e^V underflows on this cyclic network: the exp-space solve fails and
    # solve_value_linear returns the sweeps' and Newton steps' field from
    # the same call, which the bench counts as one solve and no failure
    net = network.build_network(["o", "a", "b", "d"], "d",
                                [("o", "a", [1.0]), ("a", "b", [1.0]), ("b", "a", [1.0]),
                                 ("b", "d", [1.0])], ["cost"])
    spec = core.UtilitySpec(np.array([-400.0]))
    assert core._solve_exp_space(net, spec)[1].status == core.SINGULAR
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        tracer.active = True
        _, report = core.solve_value_linear(net, spec)
    finally:
        tracer.uninstall()
    assert report.status == core.SOLVED
    assert tracer.counts["core.value_solve.calls"] == 1
    assert tracer.counts["core.value_solve_failed"] == 0


def test_traced_rejection_before_the_factorization_is_one_failed_solve():
    # a (20, 0.35) network of criterion 06's search with rho(M) > 1 at its
    # beta: the spectral-radius test rejects it before the network's pattern
    # is built, and the bench counts one solve and one failure
    net = random_geometric_network(20, 0.35, seed=14, acyclic=False)
    spec = core.UtilitySpec(np.array([-8.0, -0.2, -0.1, -0.6]))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        tracer.active = True
        _, report = core.solve_value_linear(net, spec)
    finally:
        tracer.uninstall()
    assert report.status == core.SINGULAR
    assert tracer.counts["core.value_solve.calls"] == 1
    assert tracer.counts["core.value_solve_failed"] == 1
    assert "free_pattern" not in net.__dict__


def test_traced_generation_samples_once():
    # one generate_observations call runs the batch sampler once, so the
    # bench's simulate.sample span times every sampled path
    net = random_geometric_network(15, 0.4, seed=1)
    spec = core.UtilitySpec(np.array([-4.0, -0.1, -0.05, -0.3]))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        tracer.active = True
        obs = simulate.generate_observations(net, spec, "o", 50, seed=1)
    finally:
        tracer.uninstall()
    assert tracer.counts["simulate.generate.calls"] == 1
    assert tracer.counts["simulate.sample.calls"] == 1
    assert tracer.counts["simulate.paths"] == len(obs) == 50


def test_traced_newton_fit_counts_every_evaluation(monkeypatch):
    # every trial point goes through the wrapped nfxp.loglik_and_gradient,
    # and each evaluation solves the value system once per group: the
    # Hessian re-solves nothing
    spec = core.UtilitySpec(np.array([-4.0, -0.1, -0.05, -0.3]))
    members, nets = [], {}
    for seed, dest in ((1, "d0"), (2, "d1")):
        base = random_geometric_network(15, 0.4, seed=seed)
        states = [dest if s == base.destination else s for s in base.states]
        nets[dest] = net = network.build_network(
            states, dest, [(states[i], states[j], base.attrs[a])
                           for a, (i, j) in enumerate(zip(base.arc_from, base.arc_to))])
        members += simulate.generate_observations(net, spec, "o", 200, seed=seed).observations
    obs = simulate.ObservationSet(nets["d0"], members)
    evaluations = []
    evaluate = nfxp.loglik_and_gradient

    def counted(*args):
        evaluations.append(args)
        return evaluate(*args)

    monkeypatch.setattr(nfxp, "loglik_and_gradient", counted)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        tracer.active = True
        res = nfxp.estimate_nfxp(nets, obs)
    finally:
        tracer.uninstall()
    assert res.converged and len(evaluations) >= len(res.trace) == res.iterations + 1
    assert tracer.counts["nfxp.evaluation.calls"] == len(evaluations)
    assert tracer.counts["core.value_solve.calls"] == 2 * len(evaluations)
    assert tracer.counts["nfxp.iterations"] == res.iterations


def test_bench_dag_instances_regenerate(monkeypatch):
    # the DAG half of bench/instances.json, re-selected as
    # ``bench/instances.py`` selects it: a change to the value solve or the
    # sampler that moves the bench's instances fails here
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_instances", ROOT / "bench" / "instances.py")
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    stored, seed = instances.load(), instances.load()["scan_seed"]
    many = instances._identified_dags(30, 0.3, seed, 1) + instances._identified_dags(50, 0.22, seed, 1)
    assert many == stored["dag_many_obs"]
    assert instances._identified_dags(80, 0.18, seed, 2, min_states=instances.LARGE_MIN_STATES) \
        == stored["dag_large_ipm"]
    assert instances._identified_dags(50, 0.22, many[1]["seed"] + 1, 3) \
        == stored["multi_destination"]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
