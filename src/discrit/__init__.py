"""Distributed construction of near-critical geometric graphs.

Modules (import them; the package root holds only ``__version__``):

* geometry — deployments on a rectangular region
* graphs — geometric graphs, critical/degree-1 radii, hop distances
* channel — SINR slotted-Aloha Hello simulation and link weights
* protocol — the distributed range and weight min-max protocols
* discretize — distance-per-hop (rho) statistics
* selforg — transport-capacity hop-length optimisation
* localize — hop-ratio Apollonius localization
* cli — experiment pipelines and artifact output
"""

__version__ = "0.1.0"
