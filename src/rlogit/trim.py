"""Flow-based network trimming.

Under a reference parameter the expected number of visits to each state by a
unit of flow injected at the origin solves the sparse linear system
(I - P') F = e_o, where P is the transition matrix of the choice process;
``core.visit_flows`` solves it by level passes or on the value solve's factor.
States whose flow falls below a threshold are dropped together with their
incident arcs; the trimmed network provably keeps every surviving state
reachable from the origin, which is asserted on every output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import (
    NoFeasibleReference,
    OriginTrimmed,
    SingularFlowSystem,
    ValueSolveFailed,
)
from .network import Network, _kept_arcs, _on_walk, network_from_arrays, reachable_from
from .network import build_network  # noqa: F401 (bench/tracing.py wraps trim.build_network)


@dataclass
class FlowVector:
    """Expected visit flow per state for a unit injection at the origin."""

    values: np.ndarray
    origin: object
    beta0: np.ndarray

    def __getitem__(self, idx):
        return self.values[idx]


def choose_reference_beta(net: Network, scale_grid) -> np.ndarray:
    """Scan multipliers of the all-ones vector (smallest magnitude first as
    given) and return the first coefficient vector whose value system solves."""
    if len(scale_grid) == 0:
        raise NoFeasibleReference("empty scale grid")
    k = net.n_attributes
    for mult in scale_grid:
        beta0 = np.full(k, float(mult))
        _, report = core.solve_value_linear(net, core.UtilitySpec(beta0))
        if report.status == core.SOLVED:
            return beta0
    raise NoFeasibleReference(f"no solvable reference on grid {list(scale_grid)!r}")


def flow_vector(net: Network, beta0, origin) -> FlowVector:
    """Solve (I - P') F = e_origin for the expected state-visit flows."""
    beta0 = np.atleast_1d(np.asarray(beta0, dtype=float))
    spec = core.UtilitySpec(beta0)
    vf = core.solved_values(net, spec)
    e_o = np.zeros(net.n_states)
    e_o[net.state_index(origin)] = 1.0
    try:
        flow = core.visit_flows(net, vf, core.choice_probabilities(net, spec, vf), e_o)
    except ValueSolveFailed as exc:
        raise SingularFlowSystem(str(exc)) from None
    flow = np.where(np.abs(flow) < 1e-14, 0.0, flow)
    if np.any(flow < 0):
        raise SingularFlowSystem("negative flow component")
    return FlowVector(flow, origin, beta0)


def trim(net: Network, flow: FlowVector, epsilon: float, protected=()) -> Network:
    """Drop states with flow below ``epsilon`` (and their arcs).

    The destination and any ``protected`` states (observed-path states) are
    always retained; dead-end survivors created by the cut are pruned.
    Raises OriginTrimmed when the origin loses its route to the destination.
    Every kept state is reachable from the origin on the output (this is the
    connectivity guarantee of flow trimming, asserted here).
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    origin = flow.origin
    o, d = net.state_index(origin), net.destination_index
    keep = flow.values >= epsilon
    keep[[o, d]] = True
    keep[[net.index[s] for s in protected if s in net.index]] = True

    # restrict to states on some origin-to-destination walk inside the kept
    # set; this prunes dead ends and orphans in one pass
    on_walk = _on_walk(net.n_states, net.arc_from, net.arc_to, o, d, allowed=keep)
    if not (on_walk[o] and on_walk[d]):
        raise OriginTrimmed(
            f"epsilon {epsilon} disconnects {origin!r} from the destination"
        )
    states = [s for s, k in zip(net.states, on_walk.tolist()) if k]
    lost = set(protected) - set(states)
    if lost:
        raise OriginTrimmed(
            f"protected states cut off at epsilon {epsilon}: {sorted(map(str, lost))[:5]}"
        )

    arcs, kept_from, kept_to = _kept_arcs(on_walk, net.arc_from, net.arc_to)
    trimmed = network_from_arrays(states, net.destination, kept_from, kept_to, net.attrs[arcs],
                                  net.attribute_names, net.positions)
    assert reachable_from(trimmed, origin) >= set(trimmed.states)
    return trimmed


def trim_quantile(net: Network, flow: FlowVector, drop_fraction: float,
                  protected=()) -> Network:
    """The trimmed network of :func:`quantile_trim`."""
    return quantile_trim(net, flow, drop_fraction, protected)[0]


def quantile_trim(net: Network, flow: FlowVector, drop_fraction: float,
                  protected=()) -> tuple[Network, float]:
    """(trimmed network, threshold) with the threshold at the
    ``drop_fraction`` quantile of positive state flows, backed off to smaller
    fractions while the cut disconnects the origin, down to no trimming."""
    if not 0 <= drop_fraction < 1:
        raise ValueError("drop_fraction must lie in [0, 1)")
    positive = flow.values[flow.values > 0]
    if len(positive) == 0:
        raise OriginTrimmed("no positive flow anywhere")
    fraction = drop_fraction
    while True:
        if fraction <= 0:
            epsilon = float(np.min(positive))
        else:
            epsilon = float(np.quantile(positive, fraction))
        try:
            return trim(net, flow, epsilon, protected), epsilon
        except OriginTrimmed:
            if fraction <= 0:
                raise
            fraction = 0.0 if fraction < 0.05 else fraction / 2.0


def trim_report(net: Network, trimmed: Network, flow: FlowVector, epsilon: float) -> dict:
    """JSON-ready summary of one trim: kept/dropped counts and threshold."""
    return {
        "epsilon": float(epsilon),
        "states_before": net.n_states,
        "states_after": trimmed.n_states,
        "arcs_before": net.n_arcs,
        "arcs_after": trimmed.n_arcs,
        "dropped_state_fraction": 1.0 - trimmed.n_states / net.n_states,
        "dropped_arc_fraction": 1.0 - trimmed.n_arcs / max(net.n_arcs, 1),
        "origin": flow.origin,
    }
