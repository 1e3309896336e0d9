"""Workload instance lists, and the command that regenerates them.

    python3 bench/instances.py --seed 1 | diff - bench/instances.json

reproduces the checked-in ``instances.json`` (the cyclic scan takes a few
minutes).  The rules:

* DAG seeds are scanned upward from ``--seed``; a seed is kept when the
  network is connected and identified by the criterion-01 singular-value
  test on 3,000 paths simulated at simulation seed 7.
* dag-many-obs takes the first identified ``(30, 0.3)`` and ``(50, 0.22)``
  seeds; dag-large-ipm takes the first two identified ``(80, 0.18)`` seeds
  whose network has at least 200 states, and for its multi-destination set
  the next three identified ``(50, 0.22)`` seeds.
* The cyclic list is the criterion-06 scan started at ``10 * --seed``: five
  ``(20, 0.35)`` then five ``(30, 0.3)`` cyclic networks whose value system
  solves at the simulation coefficients.  Path seeds are the scan positions,
  as in that test.  The workload runs the instance at position 3 (its
  conic solve re-solves) and the two smallest others.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
INSTANCES_FILE = HERE / "instances.json"

BETA_DAG = [-4.0, -0.1, -0.05, -0.3]
BETA_CYCLIC = [-8.0, -0.2, -0.1, -0.6]
SCAN_PATHS = 3000
SCAN_SIM_SEED = 7
MIN_SINGULAR_VALUE = 0.01
LARGE_MIN_STATES = 200
CYCLIC_SIZES = [(20, 0.35)] * 5 + [(30, 0.3)] * 5
CYCLIC_RESOLVE_POSITION = 3
CYCLIC_SMALLEST = 2


def load() -> dict:
    with open(INSTANCES_FILE) as fh:
        return json.load(fh)


def _identified_dags(n_nodes, radius, start, count, min_states=0):
    import numpy as np

    import reference as ref
    from rlogit import core, generators, simulate
    from rlogit.errors import DisconnectedInstance

    spec = core.UtilitySpec(np.array(BETA_DAG))
    found = []
    for seed in itertools.count(start):
        if len(found) == count:
            return found
        try:
            net = generators.random_geometric_network(n_nodes, radius, seed=seed)
        except DisconnectedInstance:
            continue
        if net.n_states < min_states:
            continue
        obs = simulate.generate_observations(net, spec, "o", SCAN_PATHS, seed=SCAN_SIM_SEED)
        data = ref.PathData(ref.RefNet.from_network(net), [ob.path for ob in obs.observations])
        if data.min_singular_value() >= MIN_SINGULAR_VALUE:
            found.append({"nodes": n_nodes, "radius": radius, "seed": seed,
                          "states": net.n_states})


def _cyclic_scan(start):
    import numpy as np

    from rlogit import core, generators
    from rlogit.errors import DisconnectedInstance

    spec = core.UtilitySpec(np.array(BETA_CYCLIC))
    found = []
    seeds = itertools.count(start)
    for position, (n_nodes, radius) in enumerate(CYCLIC_SIZES):
        for seed in seeds:
            try:
                net = generators.random_geometric_network(n_nodes, radius, seed=seed,
                                                          acyclic=False)
            except DisconnectedInstance:
                continue
            if core.solve_value_linear(net, spec)[1].status == core.SOLVED:
                break
        found.append({"nodes": n_nodes, "radius": radius, "seed": seed,
                      "states": net.n_states, "path_seed": position})
    return found


def scan(seed: int) -> dict:
    many = (_identified_dags(30, 0.3, seed, 1) + _identified_dags(50, 0.22, seed, 1))
    large = _identified_dags(80, 0.18, seed, 2, min_states=LARGE_MIN_STATES)
    multi = _identified_dags(50, 0.22, many[1]["seed"] + 1, 3)
    cyclic = _cyclic_scan(10 * seed)
    others = [c for i, c in enumerate(cyclic) if i != CYCLIC_RESOLVE_POSITION]
    chosen = [cyclic[CYCLIC_RESOLVE_POSITION]] + sorted(
        others, key=lambda c: (c["states"], c["seed"]))[:CYCLIC_SMALLEST]
    return {
        "scan_seed": seed,
        "dag_many_obs": many,
        "dag_large_ipm": large,
        "multi_destination": multi,
        "criterion_06_scan": cyclic,
        "cyclic": chosen,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="scan start (default 1)")
    args = parser.parse_args(argv)
    root = HERE.parent
    sys.path[:0] = [str(root / "src"), str(HERE)]
    print(json.dumps(scan(args.seed), indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
