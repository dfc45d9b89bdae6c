"""Distributed construction of near-critical geometric graphs.

Library layout:

* geometry — deployments on a rectangular region
* graphs — geometric graphs, critical/degree-1 radii, hop distances
* channel — SINR slotted-Aloha Hello simulation and link weights
* protocol — the distributed range and weight min-max protocols
* discretize — distance-per-hop (rho) statistics
* selforg — transport-capacity hop-length optimisation
* localize — hop-ratio Apollonius localization
* cli — experiment pipelines and artifact output
"""

from .geometry import (
    Region, Deployment, generate_deployment, distance_matrix, interior_nodes,
)
from .graphs import (
    EdgeGraph, UNBOUNDED, build_gg, critical_radius, degree1_radius,
    hop_distances, hop_matrix, graph_diameter, disparity, is_connected,
    induced_subgraph,
)
from .channel import (
    ChannelParams, LinkWeightTable, DEFAULT_CHANNEL, EmpiricalCDF,
    simulate_hello, predict_p, received_power_histogram, homogeneity_check,
    total_variation,
)
from .protocol import (
    ProtocolTrace, InvariantViolation, run_range_algorithm, run_discrit,
)
from .discretize import RhoStats, rho_stats, rho_trend
from .selforg import (
    SelfOrgParams, DEFAULT_SELFORG, theoretical_psi, optimal_hop_length,
    build_h_hop_topology, simulate_transport_capacity, find_h_opt,
    aloha_contention_constant,
)
from .localize import (
    BeaconSet, PositionSolverError, corner_beacons, estimate_position,
    error_pattern,
)

__version__ = "0.1.0"
