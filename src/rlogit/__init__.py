"""Recursive logit choice-model estimation toolkit.

Estimates recursive logit models by maximum likelihood two ways: the classic
nested fixed-point algorithm and an exact exponential-cone reformulation
solved by an in-repo interior-point method.  Also ships the supporting
machinery: network generators, path simulation, flow-based network trimming,
and the nested (state-dependent scale) extension.
"""

from .core import (
    SOLVED,
    SolveReport,
    UtilitySpec,
    ValueField,
    bellman_apply,
    bellman_residual,
    choice_probabilities,
    log_likelihood,
    path_log_prob,
    solve_value_iteration,
    solve_value_linear,
    utility,
)
from .network import (
    Network,
    build_network,
    ensure_connectivity,
    enumerate_paths,
    load_network,
    network_from_arrays,
    reachable_from,
    save_network,
)
from .generators import (
    bic_dag,
    layered_dag_from_undirected,
    muc_dag,
    random_geometric_network,
)
from .simulate import (
    Observation,
    ObservationSet,
    generate_observations,
    generate_observations_via_layered,
    load_observations,
    sample_path,
    save_observations,
)

__version__ = "0.1.0"
