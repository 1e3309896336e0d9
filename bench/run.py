"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload dag-many-obs --seed 1 --seconds 10 --trace 0

Imports rlogit from ``src/`` next to this directory.  After set-up, the
workload repeats whole rounds of its operations until ``--seconds`` have
passed (at least one round).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` installs the span recorder, prints the per-layer metrics and
writes every span to ``bench/out/trace-<workload>-seed<seed>.json``.  The
last line of standard output is the result object; faults the run counted
as failed operations are named on the lines before it.
"""

from __future__ import annotations

import os

# one BLAS thread: steadier timings on a shared machine, and never more
# threads than cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
# rounds stop early enough that a run ends well inside three minutes
ROUND_BUDGET_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "generate_s": "s",
    "simulate_paths_per_s": "paths/s",
    "nfxp_s": "s",
    "ecp_s": "s",
    "two_stage_s": "s",
    "peak_rss_mb": "MB",
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import rlogit, rlogit.cli, rlogit.conic, rlogit.nrl, rlogit.trim; "
    "print(time.perf_counter() - t)"
)


def import_time() -> float:
    """Median import time of rlogit over fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def median_of(rounds, key) -> float:
    return statistics.median(r.get(key, 0.0) for r in rounds)


def end_to_end(run, setup_s) -> dict:
    rounds = run.rounds
    values = {
        "setup_s": setup_s,
        "pipeline_s": median_of(rounds, "pipeline"),
        "generate_s": median_of(rounds, "generate"),
        "simulate_paths_per_s": statistics.median(r["paths"] / r["simulate"] for r in rounds),
        "nfxp_s": median_of(rounds, "nfxp"),
        "ecp_s": median_of(rounds, "ecp"),
        "two_stage_s": median_of(rounds, "two_stage"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


def per_layer(run, layers) -> dict:
    from tracing import LAYER_UNITS

    out = {}
    for key, unit in LAYER_UNITS.items():
        if key == "trace.pipeline_s":
            value = median_of(run.rounds, "traced_pipeline")
        else:
            value = statistics.median(layer[key] for layer in layers)
        out[key] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rlogit end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rlogit" / "__init__.py").is_file():
        print(f"error: no rlogit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import instances
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import rlogit

    if Path(rlogit.__file__).resolve().parent != SRC / "rlogit":
        print(f"error: imported rlogit from {rlogit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = tracing.Tracer()
    run = workloads.Run(tracer, workdir, tracing=bool(args.trace))
    layers: list[dict] = []
    setup_s = 0.0
    try:
        workload = workloads.WORKLOADS[args.workload](run, args.seed, instances.load())
        prepare = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.prepare()
            workloads.warm_up()
            prepare.append(time.perf_counter() - start)
        setup_s = import_time() + statistics.median(prepare)
        if args.trace:
            tracing.install(tracer)

        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            mark = tracer.mark()
            workload.round()
            run.end_round()
            layers.append(tracing.layer_metrics(*tracer.since(mark)))
            elapsed = time.perf_counter() - start
            last = time.perf_counter() - round_start
            if elapsed >= args.seconds or elapsed + last > ROUND_BUDGET_S:
                break
    except Exception as exc:  # noqa: BLE001 - any crash is a failed check
        import traceback

        traceback.print_exc()
        run.problems.append(f"run aborted: {type(exc).__name__}: {exc}")
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace and run.rounds:
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    workload=args.workload, seed=args.seed)
    for key, count in sorted(run.faults.items()):
        print(f"fault {key}: {count} failed operations: {workloads.FAULTS[key]}")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not run.rounds:
        return 1
    metrics = per_layer(run, layers) if args.trace else end_to_end(run, setup_s)
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
