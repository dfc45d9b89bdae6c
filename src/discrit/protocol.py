"""Round-synchronous engine for the distributed min-max / max-min protocols.

Two modes share one engine:

* distance mode — every node keeps a range threshold initialised to its
  nearest-neighbour distance; each round it unicasts the range to its
  current adjacent set and raises it to the maximum range received.
* weight mode (discrit) — every node keeps a p-threshold initialised to
  its maximum incoming link weight and lowers it to the minimum
  threshold received; adjacency is the set of senders whose incoming
  weight clears the threshold.

Weight mode runs on negated weights, which turns it into distance mode
exactly, so the engine is written once in "lower key = closer" terms.
A node's own threshold always takes part in its update, which keeps it
monotone; self is never an edge and never counted as a message.

Every round the engine checks that thresholds are copies of initial
values, never exceed the network-wide extreme kmax, and are absorbed
once they reach it, and raises InvariantViolation on the first breach.
So no node ever admits a neighbour whose key exceeds kmax: the engine
takes a list of directed candidate pairs holding every pair with key
<= kmax, and each round is a mask over that list, with no (n, n) array.
Each mode's caller already holds such a list:

* distance mode — kmax is the largest nearest-neighbour distance r1,
  so the candidates are the edges of the degree-1 graph
  (graphs.degree1_radius) in both directions.
* weight mode — every p-threshold starts at a weight > 0 and never
  falls below the smallest start, so the candidates are the pairs whose
  Hellos were decoded, the rows of the LinkWeightTable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import LinkWeightTable
from .geometry import Deployment, check_count, pair_distances, save_csv
from .graphs import EdgeGraph, degree1_radius


class InvariantViolation(AssertionError):
    """A protocol-run invariant failed; indicates an engine bug."""


@dataclass
class ProtocolTrace:
    """Per-round record of a protocol run.

    ``thresholds`` holds one snapshot per round plus the initial state,
    in the mode's natural units (meters for distance mode, probabilities
    for weight mode); the final two snapshots are identical. ``degrees``
    counts adjacent nodes excluding self. ``iterations`` counts rounds
    in which at least one threshold changed; ``rounds`` counts every
    executed round including quiet ones. ``trace_to_csv`` writes the
    snapshots as change events.
    """

    mode: str
    termination: str
    thresholds: list = field(default_factory=list)
    degrees: list = field(default_factory=list)
    messages_per_round: list = field(default_factory=list)
    iterations: int = 0
    rounds: int = 0
    messages: int = 0


def _check_round_invariants(prev, new, initial_set, kmax, mode):
    changed = new != prev
    for v in new[changed].tolist():
        if v not in initial_set:
            raise InvariantViolation(f"{mode}: threshold {v!r} is not an initial value")
    if np.any(new > kmax):
        raise InvariantViolation(f"{mode}: threshold exceeded the network extreme")
    if np.any(new < prev):
        raise InvariantViolation(f"{mode}: threshold moved away from the extreme")
    absorbed = prev == kmax
    if np.any(new[absorbed] != kmax):
        raise InvariantViolation(f"{mode}: absorbed threshold changed")


def check_termination(termination="centralized", timeout_rounds=1) -> None:
    """Raise ValueError unless a run with these options (run_* defaults) can end."""
    if termination not in ("centralized", "distributed"):
        raise ValueError(f"unknown termination mode {termination!r}")
    check_count("timeout_rounds", timeout_rounds)


def _run_minmax(n, src, dst, key, mode, natural, termination, timeout_rounds):
    """Engine core. Holder ``src[k]`` keeps ``key[k]`` for neighbour
    ``dst[k]``, lower = closer. No pair is a self pair, every node holds
    one, and every pair with key <= kmax is listed (module docstring).
    ``natural`` maps engine keys back to the mode's reported units."""
    check_termination(termination, timeout_rounds)
    thr = np.full(n, np.inf)
    np.minimum.at(thr, src, key)
    initial_set = set(thr.tolist())
    kmax = thr.max()
    keep = key <= kmax
    src, dst, key = src[keep], dst[keep], key[keep]

    live = key <= thr[src]  # live[k]: dst[k] is in src[k]'s adjacent set
    trace = ProtocolTrace(mode=mode, termination=termination)
    trace.thresholds.append(natural(thr))
    trace.degrees.append(np.bincount(src[live], minlength=n))

    sender = np.ones(n, dtype=bool)  # first round: every node announces
    quiet = np.zeros(n, dtype=np.int64)
    max_rounds = n * n + timeout_rounds + 2

    while True:
        trace.rounds += 1
        if trace.rounds > max_rounds:
            raise InvariantViolation(f"{mode}: no termination after {max_rounds} rounds")

        deliver = live & sender[src]  # dst[k] hears thr[src[k]]
        msgs = int(deliver.sum())
        new_thr = thr.copy()  # own threshold always participates
        np.maximum.at(new_thr, dst[deliver], thr[src[deliver]])
        changed = new_thr != thr
        _check_round_invariants(thr, new_thr, initial_set, kmax, mode)

        live = key <= new_thr[src]
        trace.thresholds.append(natural(new_thr))
        trace.degrees.append(np.bincount(src[live], minlength=n))
        trace.messages_per_round.append(msgs)
        trace.messages += msgs
        if changed.any():
            trace.iterations += 1

        if termination == "centralized":
            if not changed.any():
                break
        else:
            received = np.bincount(dst[deliver], minlength=n) > 0
            quiet = np.where(changed | received, 0, quiet + 1)
            if np.all(quiet >= timeout_rounds):
                break

        sender = changed  # after round 1 a node announces only a changed threshold
        thr = new_thr

    return EdgeGraph(n, np.column_stack([src[live], dst[live]])), trace


def run_range_algorithm(dep: Deployment, *, termination="centralized", timeout_rounds=1):
    """Distance-based construction of the degree-1 geometric graph.

    Ranges start at the nearest-neighbour distance and rise via max
    exchanges with the current adjacent sets. When the degree-1 graph is
    connected, the output equals it and the run converges within its hop
    diameter.
    """
    e = degree1_radius(dep)[1].edges
    src, dst = np.concatenate([e, e[:, ::-1]]).T
    return _run_minmax(dep.n, src, dst, pair_distances(dep, src, dst), "distance",
                       lambda t: t.copy(), termination, timeout_rounds)


def run_discrit(weights: LinkWeightTable, *, termination="centralized", timeout_rounds=1):
    """Weight-based construction from Hello link-weight estimates.

    Node i holds incoming weights w[j, i]; its p-threshold starts at the
    maximum of them and falls via min exchanges. The final directed
    adjacency is made bidirectional.
    """
    dst, src = weights.pairs.T  # node src heard dst's Hellos
    dead = np.flatnonzero(np.bincount(src, minlength=weights.n) == 0)
    if dead.size:
        raise ValueError(f"node {int(dead[0])} has no incoming weight > 0; "
                         "cannot initialise its p-threshold")
    return _run_minmax(weights.n, src, dst, -weights.p_hat, "discrit", lambda t: -t,
                       termination, timeout_rounds)


def trace_to_csv(trace: ProtocolTrace, path) -> None:
    """Write ``iteration,node,threshold,degree`` rows in (iteration, node)
    order, ``iteration`` being the snapshot index (0 = initial state).
    Snapshot 0 and the last are written in full, any other only for the
    nodes whose threshold or degree differs from the snapshot before, so
    forward-filling each node's rows gives back every snapshot exactly."""
    thr, deg = np.asarray(trace.thresholds), np.asarray(trace.degrees)
    keep = np.ones(thr.shape, dtype=bool)
    keep[1:-1] = (thr[1:-1] != thr[:-2]) | (deg[1:-1] != deg[:-2])
    it, node = np.nonzero(keep)
    save_csv(path, ["iteration", "node", "threshold", "degree"], it, node, thr[it, node], deg[it, node])
