"""Command-line experiment driver.

Subcommands: generate, simulate, estimate, trim, export, report.  Every
command is deterministic given the same config and seeds (modulo wall-time
fields).  Exit codes: 0 success, 2 usage error, 3 missing input file,
4 estimation failed on every run.  ``estimate`` writes each estimator's
result, its trace included, to ``result_<method>.json``.

Options may come from a config file of ``key = value`` lines (``--config``);
explicit command-line flags override file values.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import core, nfxp, nrl, trim
from .conic import builder
from .conic.solver import SolverOptions
from .errors import DisconnectedInstance, NoFeasibleReference, OriginTrimmed, RLogitError
from .generators import (
    bic_dag,
    muc_dag,
    random_geometric_network,
)
from .network import load_network, save_network
from .simulate import (
    generate_observations,
    generate_observations_via_layered,
    load_observations,
    save_observations,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_ESTIMATION_FAILED = 4

DEFAULT_BETA_TRUE = "-4,-0.1,-0.05,-0.3"


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in str(text).split(",") if tok.strip()])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}: {exc}") from None


def read_config(path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment, keys use '-' or '_'."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _require_file(path) -> Path:
    p = Path(path)
    if not p.is_file():
        print(f"error: missing input file {p}", file=sys.stderr)
        raise SystemExit(EXIT_MISSING_INPUT)
    return p


def _write_json(path, doc) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- generate ---------------------------------------------------------------


def cmd_generate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind in ("dag", "undirected"):
        written = []
        seed = args.seed
        for i in range(args.instances):
            # skip seeds whose random geometry has no origin-destination path
            while True:
                try:
                    net = random_geometric_network(
                        args.nodes,
                        args.radius,
                        seed=seed,
                        acyclic=args.kind == "dag",
                        extra_attributes=args.extra_attributes,
                    )
                    break
                except DisconnectedInstance:
                    seed += 1
            path = out / f"net_{args.kind}_{args.nodes}_{i}.json"
            save_network(net, path)
            written.append({"file": path.name, "seed": seed, "states": net.n_states,
                            "arcs": net.n_arcs})
            seed += 1
        _write_json(out / "generate_meta.json",
                    {"kind": args.kind, "nodes": args.nodes, "instances": written})
    else:  # lmdc
        rng = np.random.default_rng(args.seed)
        alt = rng.uniform(0.0, 1.0, size=(args.m, 2))
        bic = bic_dag(args.m, args.low, args.up, alt)
        muc = muc_dag(args.m, args.low, args.up, alt)
        save_network(bic, out / "bic.json")
        save_network(muc, out / "muc.json")
        _write_json(out / "generate_meta.json",
                    {"kind": "lmdc", "m": args.m, "L": args.low, "U": args.up,
                     "alt_attributes": alt.tolist()})
    return EXIT_OK


# --- simulate ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    net = load_network(_require_file(args.network))
    spec = core.UtilitySpec(_parse_vector(args.beta))
    if args.layered:
        obs = generate_observations_via_layered(net, spec, args.origin, args.n,
                                                seed=args.seed)
    else:
        obs = generate_observations(net, spec, args.origin, args.n, seed=args.seed)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_observations(obs, args.out)
    return EXIT_OK


# --- estimate ---------------------------------------------------------------


def _estimators(methods, solver_opts):
    table = {}
    for name in methods:
        if name == "nfxp":
            table[name] = lambda nets, obs, b0: nfxp.estimate_nfxp(nets, obs, beta_init=b0)
        elif name == "ecp":
            # the interior-point method takes no starting point
            table[name] = lambda nets, obs, _b0, so=solver_opts: builder.estimate_ecp(
                nets, obs, opts=so
            )
        elif name == "nrl":
            def run_nrl(nets, obs, b0):
                net = next(iter(nets.values()))
                return nrl.estimate_nrl_nfxp(net, obs, beta_init=b0, mu_mode="shared")

            table[name] = run_nrl
        else:
            raise ValueError(f"unknown estimator {name!r}")
    return table


def cmd_estimate(args) -> int:
    net = load_network(_require_file(args.network))
    obs = load_observations(_require_file(args.observations), net)
    nets = obs.net_by_group()
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    try:
        estimators = _estimators(methods, SolverOptions(tol_gap=args.solver_tol,
                                                        tol_feas=args.solver_tol))
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    beta_init = None
    if args.init_from:
        doc = json.loads(_require_file(args.init_from).read_text())
        beta_init = np.array(doc["beta_hat"])
    elif args.beta_init:
        beta_init = _parse_vector(args.beta_init)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    any_success = False

    if args.runs > 1:
        sampler = nfxp.uniform_beta_init_sampler(net.n_attributes, args.seed)
        rows = nfxp.success_rate_harness([(nets, obs)], args.runs, sampler, estimators)
        any_success = any(r["success_rate"] > 0 for r in rows)
    else:
        for name, run in estimators.items():
            t0 = time.perf_counter()
            try:
                res = run(nets, obs, beta_init)
            except RLogitError as exc:
                rows.append({"instance": 0, "estimator": name, "status": type(exc).__name__,
                             "loglik_per_obs": float("nan"), "time": time.perf_counter() - t0})
                continue
            ok = res.status in nfxp.SUCCESS_STATUSES
            any_success = any_success or ok
            rows.append({"instance": 0, "estimator": name, "status": res.status,
                         "loglik_per_obs": res.loglik_per_obs,
                         "time": res.wall_time})
            _write_json(out / f"result_{name}.json", res.to_dict())

    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=sorted({k for r in rows for k in r}))
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK if any_success else EXIT_ESTIMATION_FAILED


# --- trim -------------------------------------------------------------------


def cmd_trim(args) -> int:
    net = load_network(_require_file(args.network))
    protected = set()
    if args.observations:
        obs = load_observations(_require_file(args.observations), net)
        protected = {obs.state_ids[c] for c in np.unique(obs.flat).tolist()}
    try:
        beta0 = (_parse_vector(args.beta0) if args.beta0
                 else trim.choose_reference_beta(net, [-1.0, -2.0, -4.0]))
        flow = trim.flow_vector(net, beta0, args.origin)
        if args.drop <= 0:
            trimmed = net
            epsilon = 0.0
        else:
            trimmed, epsilon = trim.quantile_trim(net, flow, args.drop, protected=protected)
    except (NoFeasibleReference, OriginTrimmed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION_FAILED
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_network(trimmed, out / "trimmed.json")
    _write_json(out / "trim_report.json", trim.trim_report(net, trimmed, flow, epsilon))
    return EXIT_OK


# --- export -----------------------------------------------------------------


def cmd_export(args) -> int:
    net = load_network(_require_file(args.network))
    obs = load_observations(_require_file(args.observations), net)
    prog, _ = builder.build_ecp(obs.net_by_group(), builder.group_observations(obs))
    try:
        builder.export_problem(prog, args.out, args.format)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# --- report -----------------------------------------------------------------


def _svg_line_plot(points_by_series, title, xlabel, ylabel) -> str:
    """Minimal hand-rolled SVG line chart (no plotting dependency)."""
    width, height, margin = 640, 400, 60
    xs = [x for pts in points_by_series.values() for x, _ in pts]
    ys = [y for pts in points_by_series.values() for _, y in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs) or 1.0
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width / 2}" y="{height - 10}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="15" y="{height / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 15 {height / 2})">{ylabel}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    for si, (name, pts) in enumerate(sorted(points_by_series.items())):
        color = colors[si % len(colors)]
        pts = sorted(pts)
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{width - margin + 5}" y="{margin + 15 * si}" font-size="12" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_report(args) -> int:
    rows = []
    for path in args.results:
        with open(_require_file(path), newline="") as fh:
            rows.extend(csv.DictReader(fh))
    series: dict = {}
    for row in rows:
        name = row.get("estimator", "run")
        x = float(row.get(args.x_column, 0) or 0)
        y = float(row.get(args.y_column, "nan") or "nan")
        if np.isfinite(y):
            series.setdefault(name, []).append((x, y))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    svg = _svg_line_plot(series, args.title, args.x_column, args.y_column)
    (out / "sweep.svg").write_text(svg)
    _write_json(out / "report_summary.json",
                {"series": {k: len(v) for k, v in series.items()},
                 "rows": len(rows)})
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlogit",
        description="Recursive-logit estimation toolkit: generate instances, "
        "simulate paths, estimate (Newton or conic), trim, export, report.",
    )
    parser.add_argument("--config", help="key=value defaults file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write synthetic network instances")
    g.add_argument("--kind", choices=["dag", "undirected", "lmdc"], default="dag")
    g.add_argument("--nodes", type=int, default=20)
    g.add_argument("--instances", type=int, default=5)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--radius", type=float, default=0.35)
    g.add_argument("--extra-attributes", type=int, default=0)
    g.add_argument("--m", type=int, default=5, help="elemental alternatives (lmdc)")
    g.add_argument("--L", dest="low", type=int, default=0)
    g.add_argument("--U", dest="up", type=int, default=3)
    g.add_argument("--out", default="out")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("simulate", help="sample observation paths")
    s.add_argument("--network", required=True)
    s.add_argument("--beta", default=DEFAULT_BETA_TRUE)
    s.add_argument("--origin", default="o")
    s.add_argument("--n", type=int, default=1000)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--layered", action="store_true",
                   help="sample on the layered unrolling (bounded walk length)")
    s.add_argument("--out", default="observations.jsonl")
    s.set_defaults(func=cmd_simulate)

    e = sub.add_parser("estimate", help="run estimators and tabulate results")
    e.add_argument("--network", required=True)
    e.add_argument("--observations", required=True)
    e.add_argument("--method", default="nfxp,ecp")
    e.add_argument("--beta-init", help="comma-separated starting beta for NFXP and NRL "
                   "(ECP takes no starting point)")
    e.add_argument("--init-from", help="warm start from a prior result JSON")
    e.add_argument("--runs", type=int, default=1)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--solver-tol", type=float, default=1e-8)
    e.add_argument("--out", default="out")
    e.set_defaults(func=cmd_estimate)

    t = sub.add_parser("trim", help="flow-based network trimming")
    t.add_argument("--network", required=True)
    t.add_argument("--observations", help="protect observed-path states")
    t.add_argument("--origin", default="o")
    t.add_argument("--beta0", help="reference coefficients (default: grid scan)")
    t.add_argument("--drop", type=float, default=0.9)
    t.add_argument("--out", default="out")
    t.set_defaults(func=cmd_trim)

    x = sub.add_parser("export", help="write the conic problem to JSON or CBF")
    x.add_argument("--network", required=True)
    x.add_argument("--observations", required=True)
    x.add_argument("--format", default="json")
    x.add_argument("--out", default="problem.json")
    x.set_defaults(func=cmd_export)

    r = sub.add_parser("report", help="aggregate result tables into an SVG sweep plot")
    r.add_argument("--results", nargs="+", required=True)
    r.add_argument("--x-column", default="instance")
    r.add_argument("--y-column", default="time")
    r.add_argument("--title", default="estimation sweep")
    r.add_argument("--out", default="out")
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return _dispatch(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except RLogitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION_FAILED


def _dispatch(argv) -> int:
    parser = build_parser()

    # config file values become defaults; explicit flags win
    if "--config" in argv:
        idx = argv.index("--config")
        try:
            cfg_path = argv[idx + 1]
        except IndexError:
            parser.error("--config needs a file argument")
        cfg = read_config(_require_file(cfg_path))
        for sp_action in parser._subparsers._group_actions:
            for sub_parser in sp_action.choices.values():
                usable = {a.dest: cfg[a.dest] for a in sub_parser._actions if a.dest in cfg}
                typed = {}
                for a in sub_parser._actions:
                    if a.dest in usable:
                        raw = usable[a.dest]
                        if a.type is not None:
                            raw = a.type(raw)
                        elif isinstance(a.const, bool) or isinstance(a.default, bool):
                            raw = str(raw).lower() in ("1", "true", "yes")
                        typed[a.dest] = raw
                        a.required = False  # satisfied by the config file
                sub_parser.set_defaults(**typed)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
