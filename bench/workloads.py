"""The benchmark's three workloads.

Each workload turns the run seed into fixed inputs, then repeats rounds of
the same ``generate -> simulate -> estimate`` operations through rlogit's
public API.  Every operation is timed into one or more end-to-end metrics
and every output is checked against :mod:`reference` or against a property
of the method, never against stored output.  Operations that fail because
of a known fault in the program are counted in ``failed`` and named.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import reference as R
from rlogit import cli, core, generators, network, nfxp, nrl, simulate, trim
from rlogit.conic import builder, solver
from rlogit.errors import DisconnectedInstance

BETA_DAG = np.array([-4.0, -0.1, -0.05, -0.3])
BETA_CYCLIC = np.array([-8.0, -0.2, -0.1, -0.6])
BETA_DENSE = np.array([-2.2])

# tolerances of the acceptance gate (tests/test_acceptance.py), per
# observation where the gate states them so
AGREE_BETA = 1e-3
AGREE_LOGLIK = 1e-4
BINDING = 1e-6
# a reported log-likelihood must equal the reference one at the reported
# beta; the conic objective carries the IPM's 1e-8 gap and the 1e-6 binding
# slack of the recovered values, so it gets the looser figure
LOGLIK_EXACT = 1e-9
LOGLIK_CONIC = 1e-6
# NFXP stops at |grad| <= 1e-6 max(1, |L|); allow ten times that for the
# finite-difference gradient of the reference likelihood
GRADIENT = 1e-5
MIN_SINGULAR_VALUE = 0.01
CERTIFICATE = 10 * solver.SolverOptions().tol_feas
SAMPLE_SE = 5.0
TRIM_DROP = 0.9
# operations that take well under a second are timed as the mean of this
# many repetitions spread over the round, so that their metric repeats
# steadily between runs on a machine whose speed drifts from second to second
SHORT_OP_REPEATS = 5

FAULTS = {
    "value-underflow": "solve_value_linear returns SingularOrNonpositive at 200x beta on "
                       "a DAG whose value function is finite (exp-space underflow)",
    "ecp-max-iters": "estimate_ecp stops at MaxIters on the 201-state dense cyclic "
                     "instance although its MLE exists (stage-2 NFXP finds it)",
}


def sim_seed(seed: int, stream: int) -> int:
    """Path-sampling seed of one dataset, derived from the run seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


class _Timing:
    """Times of one operation in a round; later repetitions run deferred."""

    def __init__(self, name, metrics, call):
        self.name = name
        self.metrics = (metrics,) if isinstance(metrics, str) else metrics
        self.call = call
        self.times: list[float] = []
        self.pending = 0


class Run:
    """Bookkeeping of one run: operations attempted and failed, per-round
    metric times, and every check that did not hold.

    An operation's first repetition runs at once and returns its result;
    further repetitions run at later checkpoints of the round, so that a
    short operation is timed at several moments of the run rather than in
    one burst.  Its mean time goes to each of its metrics and to the
    pipeline: the machine's speed drifts between two levels, and a median
    of a few repetitions would jump between them where a mean averages."""

    def __init__(self, tracer, workdir: Path, tracing: bool):
        self.tracer = tracer
        self.workdir = workdir
        self.tracing = tracing
        self.attempted = 0
        self.failed = 0
        self.faults: Counter = Counter()
        self.problems: list[str] = []
        self.rounds: list[dict] = []
        self.timings: list[_Timing] = []
        self.paths = 0

    def op(self, name, metrics, fn, *args, repeat=1, **kwargs):
        timing = _Timing(name, metrics, lambda: fn(*args, **kwargs))
        timing.pending = repeat - 1
        self.timings.append(timing)
        return self._time(timing, traced=self.tracing)

    def _time(self, timing, traced=False):
        # an operation does not pay for the garbage of the one before it
        gc.collect()
        self.attempted += 1
        self.tracer.active = traced
        try:
            with self.tracer.operation(timing.name):
                start = time.perf_counter()
                result = timing.call()
                timing.times.append(time.perf_counter() - start)
        finally:
            self.tracer.active = False
        return result

    def checkpoint(self):
        """Run one pending repetition of every operation that has one."""
        for timing in self.timings:
            if timing.pending:
                timing.pending -= 1
                self._time(timing)

    def end_round(self):
        while any(t.pending for t in self.timings):
            self.checkpoint()
        totals: dict = defaultdict(float)
        for timing in self.timings:
            elapsed = statistics.fmean(timing.times)
            for metric in timing.metrics:
                totals[metric] += elapsed
            totals["pipeline"] += elapsed
            totals["traced_pipeline"] += timing.times[0]
        totals["paths"] = self.paths
        self.rounds.append(dict(totals))
        self.timings = []
        self.paths = 0

    def fault(self, key: str):
        self.failed += 1
        self.faults[key] += 1

    def check(self, ok, what: str):
        if not ok:
            self.problems.append(what)
        return bool(ok)


class Capture:
    """Keeps the last conic program, layout and solution that
    ``estimate_ecp`` produced, so its certificates can be checked."""

    def __init__(self, tracer):
        self.prog = self.layout = self.sol = None
        build, solve = builder.build_ecp, solver.solve

        def build_ecp(*args, **kwargs):
            self.prog, self.layout = build(*args, **kwargs)
            return self.prog, self.layout

        def solve_program(*args, **kwargs):
            self.sol = solve(*args, **kwargs)
            return self.sol

        tracer.replace(builder, "build_ecp", build_ecp)
        tracer.replace(solver, "solve", solve_program)


# --- checks -------------------------------------------------------------------


def check_network(run, label, net, origin, acyclic=None):
    """Every state lies on an origin-destination walk (breadth-first search
    both ways); with ``acyclic`` given, the network is (not) a DAG."""
    ref = R.RefNet.from_network(net)
    if acyclic is not None:
        run.check((R.topological_order(ref) is not None) == acyclic,
                  f"{label}: expected {'a DAG' if acyclic else 'a cycle'}")
    on_walk = (R.reachable(ref, ref.index[origin])
               & R.reachable(ref, ref.dest, reverse=True))
    run.check(len(on_walk) == ref.n, f"{label}: {ref.n - len(on_walk)} states off "
              "every origin-destination walk")
    return ref


def check_sample(run, label, ref, obs, beta, origin, n_paths):
    """Paths valid; first choices within 5 standard errors of the reference
    probabilities.  Returns the reference statistics of the sample."""
    try:
        data = R.PathData(ref, [ob.path for ob in obs.observations])
    except R.BadInput as exc:
        run.check(False, f"{label}: invalid sampled path: {exc}")
        return None
    o = ref.index[origin]
    run.check(data.n_obs == n_paths and data.origin_counts[o] == n_paths,
              f"{label}: {data.n_obs} paths, {data.origin_counts[o]} from {origin!r}")
    v = R.values(ref, beta)
    p = R.choice_probabilities(ref, beta, v)
    first = ref.src == o
    freq = data.first_arc_counts[first] / n_paths
    se = np.sqrt(p[first] * (1.0 - p[first]) / n_paths)
    worst = float(np.max(np.abs(freq - p[first]) - SAMPLE_SE * se))
    run.check(worst <= 1e-12, f"{label}: first-choice frequency off by more than 5 SE")
    return data


def check_nfxp(run, label, res, datasets):
    """Converged; reported log-likelihood equals the reference one; the
    reference gradient vanishes at the estimate."""
    if not run.check(res.status == nfxp.CONVERGED, f"{label}: NFXP status {res.status}"):
        return
    n = sum(d.n_obs for d in datasets)
    ll = R.pooled_loglik(datasets, res.beta_hat)
    run.check(abs(res.loglik - ll) <= LOGLIK_EXACT * n,
              f"{label}: NFXP loglik {res.loglik!r} vs reference {ll!r}")
    grad = R.fd_gradient(lambda b: R.pooled_loglik(datasets, b), res.beta_hat)
    run.check(np.max(np.abs(grad)) <= GRADIENT * max(1.0, abs(ll)),
              f"{label}: reference gradient {grad} at the NFXP optimum")


def check_certificates(run, label, capture):
    prog, sol = capture.prog, capture.sol
    report = solver.check_certificates(prog, sol)
    c = -prog.objective if prog.maximize else prog.objective
    scale_c = max(1.0, float(np.max(np.abs(c), initial=0.0)))
    scale_bh = max(1.0, float(np.max(np.abs(prog.b_eq), initial=0.0)),
                   float(np.max(np.abs(prog.b_ineq), initial=0.0)))
    run.check(report["primal_eq_residual"] <= CERTIFICATE * scale_bh
              and report["primal_cone_residual"] <= CERTIFICATE * scale_bh
              and report["dual_residual"] <= CERTIFICATE * scale_c
              and report["primal_cones_ok"] and report["dual_cones_ok"]
              and report["min_linear_slack"] >= -CERTIFICATE
              and report["min_dual_linear"] >= -CERTIFICATE,
              f"{label}: certificate report {report}")


def check_ecp(run, label, res, capture, refs, datasets):
    """Optimal; certificates pass; recovered values bind under the
    reference Bellman operator; objective equals the reference likelihood."""
    if not run.check(res.status == solver.OPTIMAL, f"{label}: ECP status {res.status}"):
        return
    check_certificates(run, label, capture)
    for key, group in capture.layout.groups.items():
        ref = refs[key]
        u = np.zeros(ref.n)
        for state, idx in group.u.items():
            u[ref.index[state]] = capture.sol.x[idx]
        worst = R.binding_residual(ref, res.beta_hat, u)
        run.check(worst <= BINDING, f"{label}: Bellman slack {worst:.3e} in group {key!r}")
    n = sum(d.n_obs for d in datasets)
    ll = R.pooled_loglik(datasets, res.beta_hat)
    run.check(abs(res.loglik - ll) <= LOGLIK_CONIC * n,
              f"{label}: ECP objective {res.loglik!r} vs reference {ll!r}")


def check_agree(run, label, a, b, datasets):
    """Two maximizers of one likelihood agree; beta only where identified."""
    n = sum(d.n_obs for d in datasets)
    run.check(abs(a.loglik - b.loglik) <= AGREE_LOGLIK * n,
              f"{label}: loglik/N differ by {abs(a.loglik - b.loglik) / n:.2e}")
    if R.pooled_min_singular_value(datasets) >= MIN_SINGULAR_VALUE:
        gap = float(np.max(np.abs(np.asarray(a.beta_hat) - np.asarray(b.beta_hat))))
        run.check(gap <= AGREE_BETA, f"{label}: beta differs by {gap:.2e}")


def check_init_failure(run, label, ref, beta_init):
    """InnerSolveFailed at an init must mean rho(M(beta)) >= 1 there."""
    rho = R.spectral_radius(ref, beta_init)
    run.check(rho >= 1.0, f"{label}: InnerSolveFailed at rho(M) = {rho:.4f} < 1")


def check_nrl(run, label, res, rl_loglik, data):
    """NRL with one shared scale: converged, at least the RL maximum, and
    its likelihood is the RL one at beta / mu."""
    if not run.check(res.status == nfxp.CONVERGED, f"{label}: NRL status {res.status}"):
        return
    mu = float(res.mu_hat.values[0])
    run.check(res.loglik >= rl_loglik - GRADIENT * max(1.0, abs(rl_loglik)),
              f"{label}: NRL max {res.loglik!r} below RL max {rl_loglik!r}")
    ll = data.loglik(np.asarray(res.beta_hat) / mu)
    run.check(abs(res.loglik - ll) <= LOGLIK_CONIC * data.n_obs,
              f"{label}: NRL loglik {res.loglik!r} vs reference {ll!r}")


def check_flow(run, label, flow, ref, beta, origin):
    """F = e_o + P'F under the reference choice probabilities."""
    v = R.values(ref, beta)
    p = R.choice_probabilities(ref, beta, v)
    inflow = np.zeros(ref.n)
    np.add.at(inflow, ref.dst, flow.values[ref.src] * p)
    inflow[ref.index[origin]] += 1.0
    worst = float(np.max(np.abs(flow.values - inflow)))
    run.check(worst <= 1e-8, f"{label}: flow conservation off by {worst:.2e}")


def check_trimmed(run, label, trimmed, net, origin):
    run.check(set(trimmed.states) <= set(net.states), f"{label}: trim invented states")
    check_network(run, label + " trimmed", trimmed, origin,
                  acyclic=R.topological_order(R.RefNet.from_network(net)) is not None)


# --- shared pieces ------------------------------------------------------------


def relabel(net, destination):
    """Copy of ``net`` whose destination state is renamed."""
    states = [destination if s == net.destination else s for s in net.states]
    arcs = [(states[i], states[j], net.attrs[a])
            for a, (i, j) in enumerate(zip(net.arc_from, net.arc_to))]
    return network.build_network(states, destination, arcs, net.attribute_names,
                                 net.positions)


def dense_cyclic_arcs(n_states=200, out_degree=6, seed=21):
    """Arc table of the criterion-08 dense cyclic instance: a ring plus six
    random successors per state, and costly exits every tenth state."""
    rng = np.random.default_rng(seed)
    names = [f"s{i}" for i in range(n_states)] + ["d"]
    arcs = {}
    for i in range(n_states):
        arcs[(f"s{i}", f"s{(i + 1) % n_states}")] = [float(rng.uniform(0.8, 1.5))]
        for j in rng.choice(n_states, size=out_degree, replace=False):
            if j != i:
                arcs[(f"s{i}", f"s{j}")] = [float(rng.uniform(0.8, 1.5))]
    for i in range(0, n_states, 10):
        arcs[(f"s{i}", "d")] = [float(rng.uniform(4.0, 5.0))]
    return names, [(u, v, vec) for (u, v), vec in arcs.items()]


def warm_up(seed=3):
    """Small pass through every layer so lazy imports and first-call costs
    land in set-up, not in the first measured operation."""
    for s in range(seed, seed + 50):
        try:
            net = generators.random_geometric_network(12, 0.5, seed=s)
            break
        except DisconnectedInstance:
            continue
    obs = simulate.generate_observations(net, core.UtilitySpec(BETA_DAG), "o", 200, seed=s)
    nfxp.estimate_nfxp(obs.net_by_group(), obs)
    builder.estimate_ecp(obs.net_by_group(), obs)
    trim.flow_vector(net, BETA_DAG, "o")


def two_stage(run, label, net, obs, beta0, origin, refs, data, capture, repeat=1):
    """Criterion-08 pipeline: flows at beta0, quantile trim, ECP on the
    trimmed network with the surviving paths, NFXP warm-started from it.
    ``repeat`` applies to the two estimates; the cheap steps always repeat."""
    flow = run.op(f"{label}.flow", "two_stage", trim.flow_vector, net, beta0, origin,
                  repeat=SHORT_OP_REPEATS)
    check_flow(run, label, flow, refs[net.destination], beta0, origin)
    trimmed = run.op(f"{label}.trim", "two_stage", trim.trim_quantile, net, flow, TRIM_DROP,
                     repeat=SHORT_OP_REPEATS)
    check_trimmed(run, label, trimmed, net, origin)
    keep = set(trimmed.states)
    survivors = [list(ob.path) for ob in obs.observations if set(ob.path) <= keep]

    def subset():
        return simulate.ObservationSet(
            trimmed, [simulate.make_observation(trimmed, p) for p in survivors])

    sub = run.op(f"{label}.subset", "two_stage", subset, repeat=SHORT_OP_REPEATS)
    tref = R.RefNet.from_network(trimmed)
    tdata = R.PathData(tref, survivors)
    stage1 = run.op(f"{label}.ecp", ("two_stage", "ecp"), builder.estimate_ecp,
                    {trimmed.destination: trimmed}, sub, repeat=repeat)
    check_ecp(run, label + " stage 1", stage1, capture, {trimmed.destination: tref}, [tdata])
    stage2 = run.op(f"{label}.nfxp_warm", ("two_stage", "nfxp"), nfxp.estimate_nfxp,
                    obs.net_by_group(), obs, beta_init=stage1.beta_hat, repeat=repeat)
    check_nfxp(run, label + " stage 2", stage2, [data])
    return stage1, stage2


def cli_estimate(run, label, net, obs, rl_result, repeat=1):
    """``rlogit estimate --method nfxp`` in-process on saved files, started
    at the in-process estimate on the same data: it must stay there.  The
    warm start keeps the metric on loading, one evaluation and writing, whose
    cost does not vary with the sample."""
    folder = run.workdir / label
    folder.mkdir(parents=True, exist_ok=True)
    net_file, obs_file, out = folder / "net.json", folder / "obs.jsonl", folder / "out"

    def save():
        network.save_network(net, net_file)
        simulate.save_observations(obs, obs_file)

    run.op(f"{label}.save", "save", save, repeat=repeat)
    beta = ",".join(format(float(b), ".17g") for b in rl_result.beta_hat)
    argv = ["estimate", "--network", str(net_file), "--observations", str(obs_file),
            "--method", "nfxp", f"--beta-init={beta}", "--out", str(out)]
    code = run.op(f"{label}.cli", "cli_estimate", cli.main, argv, repeat=repeat)
    if not run.check(code == cli.EXIT_OK, f"{label}: rlogit estimate exit code {code}"):
        return
    doc = json.loads((out / "result_nfxp.json").read_text())
    gap = float(np.max(np.abs(np.asarray(doc["beta_hat"]) - rl_result.beta_hat)))
    run.check(doc["status"] == nfxp.CONVERGED and gap <= 1e-9,
              f"{label}: CLI estimate {doc['status']} differs by {gap:.2e}")


# --- workloads ----------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, run: Run, seed: int, instances: dict):
        self.run = run
        self.seed = seed
        self.instances = instances
        self.capture = Capture(run.tracer)

    def prepare(self):
        """Unmeasured inputs; timed into set-up."""

    def round(self):
        raise NotImplementedError

    def generate_dag(self, inst, label):
        net = self.run.op(f"{label}.generate", "generate", generators.random_geometric_network,
                          inst["nodes"], inst["radius"], seed=inst["seed"],
                          repeat=2 * SHORT_OP_REPEATS)
        return net, check_network(self.run, label, net, "o", acyclic=True)

    def simulate(self, label, net, ref, beta, origin, n, seed, repeat=1):
        obs = self.run.op(f"{label}.simulate", "simulate", simulate.generate_observations,
                          net, core.UtilitySpec(beta), origin, n, seed=seed, repeat=repeat)
        self.run.paths += len(obs)
        return obs, check_sample(self.run, label, ref, obs, beta, origin, n)

    def nfxp(self, label, nets, obs, data, repeat=1, **kwargs):
        res = self.run.op(f"{label}.nfxp", "nfxp", nfxp.estimate_nfxp, nets, obs,
                          repeat=repeat, **kwargs)
        check_nfxp(self.run, label, res, data)
        return res

    def ecp(self, label, nets, obs, refs, data, repeat=1):
        res = self.run.op(f"{label}.ecp", "ecp", builder.estimate_ecp, nets, obs,
                          repeat=repeat)
        check_ecp(self.run, label, res, self.capture, refs, data)
        return res


class DagManyObs(Workload):
    """Two small identified DAGs with 20,000 paths each: the time is in the
    per-observation loops (likelihood, make_observation, NRL, grouping)."""

    name = "dag-many-obs"
    paths = 20_000
    nrl_paths = 3_000
    # the 66-state set, which also feeds the two-stage pipeline, keeps one
    # sample for every run seed: the number of iterations of the warm-started
    # stage 2 swings with the sample (7 to 9 over run seeds 1-8)
    mid_path_seed = 7

    def round(self):
        run = self.run
        small_inst, mid_inst = self.instances["dag_many_obs"]
        small, small_ref = self.generate_dag(small_inst, "dag32")
        mid, mid_ref = self.generate_dag(mid_inst, "dag66")
        fits = {}
        for label, net, ref, path_seed in (("dag32", small, small_ref, sim_seed(self.seed, 0)),
                                           ("dag66", mid, mid_ref, self.mid_path_seed)):
            obs, data = self.simulate(label, net, ref, BETA_DAG, "o", self.paths, path_seed,
                                      repeat=3)
            nets, refs = obs.net_by_group(), {net.destination: ref}
            res_n = self.nfxp(label, nets, obs, [data])
            res_e = self.ecp(label, nets, obs, refs, [data], repeat=3)
            check_agree(run, label, res_n, res_e, [data])
            fits[label] = (net, ref, obs, data, res_n, refs)
            run.checkpoint()

        # the two-stage pipeline comes before NRL and the CLI, so that its
        # repetitions run at their checkpoints rather than back to back
        net, ref, obs, data, res_n, refs = fits["dag66"]
        _stage1, stage2 = two_stage(run, "dag66-two-stage", net, obs, BETA_DAG, "o",
                                    refs, data, self.capture, repeat=3)
        check_agree(run, "dag66 two-stage", stage2, res_n, [data])
        run.checkpoint()

        net, ref, obs, data, res_n, _ = fits["dag32"]
        sub = simulate.ObservationSet(net, obs.observations[: self.nrl_paths])
        sub_data = R.PathData(ref, [ob.path for ob in sub.observations])
        rl = self.nfxp("dag32-subset", sub.net_by_group(), sub, [sub_data])
        res = run.op("dag32-subset.nrl", "nrl", nrl.estimate_nrl_nfxp, net, sub,
                     mu_mode="shared")
        check_nrl(run, "dag32-subset", res, rl.loglik, sub_data)
        run.checkpoint()
        cli_estimate(run, "dag32-cli", net, obs, res_n)


class DagLargeIpm(Workload):
    """Two DAGs of 200+ states and a three-destination set, 3,000 paths
    each: the time is in the IPM's KKT factorizations and solves."""

    name = "dag-large-ipm"
    # the two large sets use the sample that selected their instances, for
    # every run seed: at some other samples estimate_ecp fails on them
    # (MaxIters, NumericalFailure), which cannot be counted steadily
    path_seed = 7
    paths = 3_000
    multi_paths = 1_000
    sweep = (1.0, 10.0, 50.0, 100.0, 200.0)
    # the known fault: at this scale the exp-space solve underflows
    underflow_scale = 200.0

    def round(self):
        run = self.run
        datasets = []
        for k, inst in enumerate(self.instances["dag_large_ipm"]):
            label = f"dag{inst['states']}"
            net, ref = self.generate_dag(inst, label)
            obs, data = self.simulate(label, net, ref, BETA_DAG, "o", self.paths,
                                      self.path_seed, repeat=3)
            datasets.append((label, net, ref, obs, data))

        members = []
        for k, inst in enumerate(self.instances["multi_destination"]):
            label = f"multi-d{k}"
            base, _ = self.generate_dag(inst, label)
            net = run.op(f"{label}.relabel", "generate", relabel, base, f"d{k}",
                         repeat=SHORT_OP_REPEATS)
            ref = check_network(run, label, net, "o", acyclic=True)
            obs, data = self.simulate(label, net, ref, BETA_DAG, "o", self.multi_paths,
                                      sim_seed(self.seed, 10 + k), repeat=SHORT_OP_REPEATS)
            members.append((label, net, ref, obs, data))

        fits = {}
        for label, net, ref, obs, data in datasets:
            nets, refs = obs.net_by_group(), {net.destination: ref}
            res_n = self.nfxp(label, nets, obs, [data])
            res_e = self.ecp(label, nets, obs, refs, [data])
            check_agree(run, label, res_n, res_e, [data])
            fits[label] = res_n
            run.checkpoint()

        pooled = simulate.ObservationSet(
            members[0][1], [ob for m in members for ob in m[3].observations])
        nets = {m[1].destination: m[1] for m in members}
        data = [m[4] for m in members]
        # NFXP only: estimate_ecp fails on this set at some run seeds
        self.nfxp("multi", nets, pooled, data)
        run.checkpoint()

        label, net, ref, obs, data = datasets[-1]
        _stage1, stage2 = two_stage(run, f"{label}-two-stage", net, obs, BETA_DAG, "o",
                                    {net.destination: ref}, data, self.capture, repeat=3)
        check_agree(run, f"{label} two-stage", stage2, fits[label], [data])
        cli_estimate(run, f"{label}-cli", net, obs, fits[label])
        run.checkpoint()

        for label, net, ref, *_ in datasets + members:
            for scale in self.sweep:
                self.value_solve(label, net, ref, scale)
        run.checkpoint()

        label, net, ref, obs, data = members[0]
        rl = self.nfxp(f"{label}-alone", obs.net_by_group(), obs, [data],
                       repeat=SHORT_OP_REPEATS)
        res = run.op(f"{label}.nrl", "nrl", nrl.estimate_nrl_nfxp, net, obs, mu_mode="shared")
        check_nrl(run, label, res, rl.loglik, data)

    def value_solve(self, label, net, ref, scale):
        beta = scale * BETA_DAG
        vf, report = self.run.op(f"{label}.value_x{scale:g}", "value_solve",
                                 core.solve_value_linear, net, core.UtilitySpec(beta))
        expect = R.dag_values(ref, beta)
        if (scale == self.underflow_scale and report.status == core.SINGULAR
                and np.all(np.isfinite(expect))):
            self.run.fault("value-underflow")
            return
        if not self.run.check(report.status == core.SOLVED,
                              f"{label}: value solve {report.status} at {scale:g}x beta"):
            return
        err = float(np.max(np.abs(vf.values - expect)))
        self.run.check(err <= 1e-9 * max(1.0, float(np.max(np.abs(expect)))),
                       f"{label}: value solve at {scale:g}x beta off by {err:.2e}")


class CyclicTwoStage(Workload):
    """Criterion-06 cyclic instances and the criterion-08 dense instance:
    infeasible inits, hidden re-solves, trimming and the generator scan."""

    name = "cyclic-two-stage"
    paths = 300
    # generator scan over a fixed seed range, the same for every run seed
    scan_start = 10_000
    scan_seeds = 48

    def prepare(self):
        self.dense_arcs = dense_cyclic_arcs()

    def round(self):
        run = self.run
        default_init = nfxp.default_beta_init(len(BETA_CYCLIC))
        chunk = self.scan_seeds // len(self.instances["cyclic"])
        for k, inst in enumerate(self.instances["cyclic"]):
            first = self.scan_start + k * chunk
            for net in run.op(f"scan{k}.generate", "generate", self.scan, first, chunk,
                              repeat=2):
                check_network(run, f"scan seeds {first}-{first + chunk - 1}", net, "o")

            label = f"cyclic{inst['seed']}"
            net = run.op(f"{label}.generate", "generate", generators.random_geometric_network,
                         inst["nodes"], inst["radius"], seed=inst["seed"], acyclic=False,
                         repeat=SHORT_OP_REPEATS)
            ref = check_network(run, label, net, "o", acyclic=False)
            obs, data = self.simulate(label, net, ref, BETA_CYCLIC, "o", self.paths,
                                      inst["path_seed"], repeat=SHORT_OP_REPEATS)
            nets, refs = obs.net_by_group(), {net.destination: ref}
            cold = run.op(f"{label}.nfxp", "nfxp", nfxp.estimate_nfxp, nets, obs,
                          repeat=SHORT_OP_REPEATS)
            if cold.status == nfxp.INNER_SOLVE_FAILED:
                check_init_failure(run, label, ref, default_init)
            else:
                check_nfxp(run, label, cold, [data])
            res_e = self.ecp(label, nets, obs, refs, [data])
            warm = self.nfxp(label + "-warm", nets, obs, [data], beta_init=res_e.beta_hat,
                             repeat=SHORT_OP_REPEATS)
            check_agree(run, label, warm, res_e, [data])
            if cold.status == nfxp.CONVERGED:
                check_agree(run, label + " cold", cold, res_e, [data])
            res = run.op(f"{label}.nrl", "nrl", nrl.estimate_nrl_nfxp, net, obs,
                         beta_init=warm.beta_hat, mu_mode="shared", repeat=SHORT_OP_REPEATS)
            check_nrl(run, label, res, warm.loglik, data)
            cli_estimate(run, f"{label}-cli", net, obs, warm, repeat=SHORT_OP_REPEATS)
            run.checkpoint()

        names, arcs = self.dense_arcs
        dense = run.op("dense.generate", "generate", network.build_network, names, "d", arcs,
                       ["cost"], repeat=SHORT_OP_REPEATS)
        ref = check_network(run, "dense", dense, "s0", acyclic=False)
        obs, data = self.simulate("dense", dense, ref, BETA_DENSE, "s0", self.paths, 8,
                                  repeat=SHORT_OP_REPEATS)
        nets, refs = obs.net_by_group(), {"d": ref}
        cold = run.op("dense.nfxp", "nfxp", nfxp.estimate_nfxp, nets, obs,
                      repeat=SHORT_OP_REPEATS)
        run.check(cold.status == nfxp.INNER_SOLVE_FAILED,
                  f"dense: cold NFXP status {cold.status}")
        check_init_failure(run, "dense", ref, nfxp.default_beta_init(1))
        _stage1, stage2 = two_stage(run, "dense-two-stage", dense, obs, BETA_DENSE, "s0",
                                    refs, data, self.capture, repeat=3)
        run.checkpoint()
        full = run.op("dense.ecp", "ecp", builder.estimate_ecp, nets, obs)
        if full.status == solver.MAX_ITERS:
            run.fault("ecp-max-iters")
        else:
            check_ecp(run, "dense full", full, self.capture, refs, [data])
            check_agree(run, "dense full", full, stage2, [data])

    @staticmethod
    def scan(start, count):
        """Cyclic (30, 0.3) generator scan, as ``rlogit generate --kind
        undirected`` runs it; returns the connected networks."""
        found = []
        for seed in range(start, start + count):
            try:
                found.append(generators.random_geometric_network(30, 0.3, seed=seed,
                                                                 acyclic=False))
            except DisconnectedInstance:
                continue
        return found


WORKLOADS = {w.name: w for w in (DagManyObs, DagLargeIpm, CyclicTwoStage)}
