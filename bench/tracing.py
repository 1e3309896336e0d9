"""Spans and counters around rlogit's public calls, for the traced run.

Every wrapper is installed at the module attribute its caller looks up, so
no file of the package changes: ``rlogit.nfxp.loglik_and_gradient`` is the
name ``estimate_nfxp`` resolves, ``rlogit.conic.solver.spla`` is the module
object through which the IPM reaches ``splu``, and so on.  A span is
``(name, start, end, parent span, operation id)``; spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

SPAN_FIELDS = ("name", "start", "end", "parent", "op")


class Tracer:
    """Records spans and counts while ``active``; passes calls through
    untouched otherwise."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.ops: list[dict] = []
        self.active = False
        self._stack: list[int] = []
        self._op = None
        self._undo: list[tuple] = []

    # --- spans -------------------------------------------------------------

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; children inherit its id."""
        if not self.active:
            yield
            return
        self._op = len(self.ops)
        self.ops.append({"id": self._op, "name": name})
        with self.span("op." + name):
            yield
        self._op = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.perf_counter(), None, parent, self._op))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec = self.spans[idx]
            self.spans[idx] = (rec[0], rec[1], time.perf_counter(), rec[3], rec[4])

    def call(self, name, fn, args, kwargs, on_result=None, on_error=None):
        if not self.active:
            return fn(*args, **kwargs)
        self.counts[name + ".calls"] += 1
        with self.span(name):
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self.counts, exc)
                raise
        if on_result is not None:
            on_result(self.counts, result)
        return result

    # --- installation ------------------------------------------------------

    def wrap(self, module, attr: str, name: str, on_result=None, on_error=None):
        """Replace ``module.attr`` by a recording wrapper."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, on_result, on_error)

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._undo.append((module, attr, original))

    def replace(self, module, attr: str, value):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # --- queries -----------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        return len(self.spans), Counter(self.counts)

    def since(self, mark):
        """(spans, count deltas) recorded after ``mark``."""
        start, counts = mark
        delta = Counter(self.counts)
        delta.subtract(counts)
        return self.spans[start:], delta

    def dump(self, path, **header) -> None:
        doc = {**header, "span_fields": list(SPAN_FIELDS), "ops": self.ops,
               "counts": dict(self.counts), "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)


class _TimedLU:
    """SuperLU factor whose ``solve`` is a traced triangular solve."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call("conic.triangular_solve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _SparseLinalgProxy:
    """Stands in for ``scipy.sparse.linalg`` inside the IPM module: ``splu``
    is traced as a factorization and returns a :class:`_TimedLU`."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def splu(self, *args, **kwargs):
        lu = self._tracer.call("conic.factorization", self._real.splu, args, kwargs)
        return _TimedLU(lu, self._tracer) if self._tracer.active else lu

    def __getattr__(self, name):
        return getattr(self._real, name)


def _add(key, value_of):
    def hook(counts, result):
        counts[key] += value_of(result)
    return hook


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls at the attribute its caller uses."""
    from rlogit import cli, core, generators, network, nfxp, nrl, simulate, trim
    from rlogit.conic import builder, solver

    for module in (network, generators, trim):
        tracer.wrap(module, "build_network", "network.build")
    for module, attr in ((network, "save_network"), (network, "load_network"),
                         (cli, "load_network"), (simulate, "save_observations"),
                         (simulate, "load_observations"), (cli, "load_observations")):
        tracer.wrap(module, attr, "network.json_io")

    tracer.wrap(generators, "random_geometric_network", "generators.random_geometric")

    tracer.wrap(simulate, "generate_observations", "simulate.generate",
                on_result=_add("simulate.paths", len))
    tracer.wrap(simulate, "_sample_paths_batch", "simulate.sample")
    tracer.wrap(simulate, "make_observation", "simulate.make_observation")

    tracer.wrap(core, "solve_value_linear", "core.value_solve",
                on_result=_add("core.value_solve_failed",
                               lambda r: int(r[1].status != core.SOLVED)))

    def rejected(counts, exc):
        if isinstance(exc, nfxp.ValueSolveFailed):
            counts["nfxp.rejected_evaluations"] += 1

    tracer.wrap(nfxp, "loglik_and_gradient", "nfxp.evaluation", on_error=rejected)
    tracer.wrap(nfxp, "estimate_nfxp", "nfxp.estimate",
                on_result=_add("nfxp.iterations", lambda r: r.iterations))

    tracer.wrap(builder, "group_observations", "conic.group_observations")
    tracer.wrap(builder, "build_ecp", "conic.build",
                on_result=_add("conic.kkt_rows", lambda r: kkt_rows(r[0])))
    tracer.wrap(solver, "solve", "conic.solve",
                on_result=_add("conic.ipm_iterations", lambda sol: len(sol.trace)))
    tracer.replace(solver, "spla", _SparseLinalgProxy(solver.spla, tracer))
    tracer.wrap(builder, "recover_solution", "conic.recover")
    tracer.wrap(builder, "estimate_ecp", "conic.estimate")

    tracer.wrap(trim, "flow_vector", "trim.flow")
    tracer.wrap(trim, "trim_quantile", "trim.trim",
                on_result=_add("trim.states_kept", lambda net: net.n_states))

    tracer.wrap(nrl, "nrl_loglik_and_gradient", "nrl.evaluation")
    tracer.wrap(nrl, "solve_nrl_value", "nrl.value_solve",
                on_result=_add("nrl.value_iterations", lambda r: r[1].iterations))

    tracer.wrap(cli, "main", "cli.main")


def kkt_rows(prog) -> int:
    """Rows of the IPM's KKT system: variables, equalities and cone slacks."""
    return prog.n_vars + prog.a_eq.shape[0] + prog.n_ineq + 3 * prog.n_cones


def _busy(spans, name) -> float:
    return sum(s[2] - s[1] for s in spans if s[0] == name)


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one round from its spans and count deltas."""
    t = {name: _busy(spans, name) for name in {s[0] for s in spans}}
    get = t.get
    c = counts
    return {
        "network.build_s": get("network.build", 0.0),
        "network.json_io_s": get("network.json_io", 0.0),
        "generators.networks": c["generators.random_geometric.calls"],
        "generators.random_geometric_s": get("generators.random_geometric", 0.0),
        "simulate.paths": c["simulate.paths"],
        "simulate.sample_s": get("simulate.sample", 0.0),
        "simulate.make_observation_s": get("simulate.make_observation", 0.0),
        "core.value_solves": c["core.value_solve.calls"],
        "core.value_solve_s": get("core.value_solve", 0.0),
        "core.value_solve_failed": c["core.value_solve_failed"],
        "nfxp.evaluations": c["nfxp.evaluation.calls"],
        "nfxp.rejected_evaluations": c["nfxp.rejected_evaluations"],
        "nfxp.iterations": c["nfxp.iterations"],
        "nfxp.evaluation_s": get("nfxp.evaluation", 0.0),
        "conic.group_observations_s": get("conic.group_observations", 0.0),
        "conic.build_s": get("conic.build", 0.0),
        "conic.kkt_rows": c["conic.kkt_rows"],
        "conic.solves": c["conic.solve.calls"],
        "conic.ipm_iterations": c["conic.ipm_iterations"],
        "conic.factorizations": c["conic.factorization.calls"],
        "conic.factorization_s": get("conic.factorization", 0.0),
        "conic.triangular_solves": c["conic.triangular_solve.calls"],
        "conic.triangular_solve_s": get("conic.triangular_solve", 0.0),
        "conic.ipm_other_s": get("conic.solve", 0.0) - get("conic.factorization", 0.0)
        - get("conic.triangular_solve", 0.0),
        "conic.recover_s": get("conic.recover", 0.0),
        "trim.flow_s": get("trim.flow", 0.0),
        "trim.trim_s": get("trim.trim", 0.0),
        "trim.states_kept": c["trim.states_kept"],
        "nrl.evaluations": c["nrl.evaluation.calls"],
        "nrl.evaluation_s": get("nrl.evaluation", 0.0),
        "nrl.value_iterations": c["nrl.value_iterations"],
        "nrl.value_solve_s": get("nrl.value_solve", 0.0),
        "cli.overhead_s": _cli_overhead(spans),
    }


def _cli_overhead(spans) -> float:
    """Time in ``cli.main`` outside the JSON I/O and estimators it runs."""
    inner_names = ("network.json_io", "nfxp.estimate", "conic.estimate")
    total = 0.0
    for outer in spans:
        if outer[0] != "cli.main":
            continue
        inner = sum(s[2] - s[1] for s in spans
                    if s[0] in inner_names and s[4] == outer[4]
                    and outer[1] <= s[1] and s[2] <= outer[2])
        total += (outer[2] - outer[1]) - inner
    return total


LAYER_UNITS = {
    key: ("s" if key.endswith("_s") else "rows" if key.endswith("_rows") else "count")
    for key in layer_metrics([], Counter())
}
LAYER_UNITS["trace.pipeline_s"] = "s"
