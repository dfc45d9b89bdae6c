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
Self membership in the adjacent set is maintained internally (it makes
the per-node threshold monotone) and stripped from the output graph;
self entries are not counted as messages.

The engine checks three invariants every round and raises
InvariantViolation on the first breach: thresholds are always copies of
initial values, never exceed the network-wide extreme, and are absorbed
once they reach it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import LinkWeightTable
from .geometry import Deployment, distance_matrix
from .graphs import EdgeGraph


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
    executed round including quiet ones.
    """

    mode: str
    termination: str
    thresholds: list = field(default_factory=list)
    degrees: list = field(default_factory=list)
    changed: list = field(default_factory=list)
    received: list = field(default_factory=list)
    messages_per_round: list = field(default_factory=list)
    iterations: int = 0
    rounds: int = 0
    messages: int = 0

    @property
    def n(self) -> int:
        return len(self.thresholds[0])

    def final_thresholds(self) -> np.ndarray:
        return self.thresholds[-1]


def detect_quiescence(trace: ProtocolTrace, timeout_rounds: int) -> bool:
    """True iff every node has been quiet for the last timeout_rounds rounds.

    Quiet means no threshold change and no incoming message. This is the
    local time-out termination rule; it agrees with the centralised
    no-change condition because a change anywhere produces a message.
    """
    if timeout_rounds < 1:
        raise ValueError(f"timeout_rounds must be >= 1, got {timeout_rounds}")
    if trace.rounds < timeout_rounds:
        return False
    for k in range(trace.rounds - timeout_rounds, trace.rounds):
        if trace.changed[k].any() or trace.received[k].any():
            return False
    return True


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


def _run_minmax(score, mode, natural, termination, timeout_rounds, suppress):
    """Engine core. ``score`` is an (n, n) key matrix, lower = closer.

    score[i, j] is the key node i holds for node j; the diagonal is
    ignored (self is always adjacent). ``natural`` maps engine keys back
    to the mode's reported units.
    """
    if termination not in ("centralized", "distributed"):
        raise ValueError(f"unknown termination mode {termination!r}")
    if termination == "distributed":
        if timeout_rounds < 1:
            raise ValueError(f"timeout_rounds must be >= 1, got {timeout_rounds}")
        if not suppress:
            raise ValueError("distributed termination needs message suppression; "
                             "without it messages never cease")
    n = score.shape[0]
    s = np.array(score, dtype=np.float64)
    np.fill_diagonal(s, np.inf)
    thr = s.min(axis=1)
    np.fill_diagonal(s, -np.inf)  # self always passes the adjacency test
    initial_set = set(thr.tolist())
    kmax = thr.max()

    member = s <= thr[:, None]
    trace = ProtocolTrace(mode=mode, termination=termination)
    trace.thresholds.append(natural(thr))
    trace.degrees.append(member.sum(axis=1) - 1)

    sender = np.ones(n, dtype=bool)  # first round: every node announces
    quiet = np.zeros(n, dtype=np.int64)
    not_self = ~np.eye(n, dtype=bool)
    max_rounds = n * n + timeout_rounds + 2

    while True:
        trace.rounds += 1
        if trace.rounds > max_rounds:
            raise InvariantViolation(f"{mode}: no termination after {max_rounds} rounds")

        deliver = member & sender[:, None]  # deliver[j, i]: i hears thr[j]
        msgs = int((member[sender].sum(axis=1) - 1).sum()) if sender.any() else 0
        received = (deliver & not_self).any(axis=0)

        cand = np.where(deliver, thr[:, None], -np.inf).max(axis=0)
        new_thr = np.maximum(thr, cand)  # own threshold always participates
        changed = new_thr != thr
        _check_round_invariants(thr, new_thr, initial_set, kmax, mode)

        member = s <= new_thr[:, None]
        trace.thresholds.append(natural(new_thr))
        trace.degrees.append(member.sum(axis=1) - 1)
        trace.changed.append(changed)
        trace.received.append(received)
        trace.messages_per_round.append(msgs)
        trace.messages += msgs
        if changed.any():
            trace.iterations += 1

        if termination == "centralized":
            if not changed.any():
                break
        else:
            quiet = np.where(changed | received, 0, quiet + 1)
            if np.all(quiet >= timeout_rounds):
                break

        sender = changed if suppress else np.ones(n, dtype=bool)
        thr = new_thr

    return EdgeGraph(n, np.argwhere(np.triu(member | member.T, 1))), trace


def run_range_algorithm(dep: Deployment, *, termination="centralized",
                        timeout_rounds=1, suppress=True):
    """Distance-based construction of the degree-1 geometric graph.

    Ranges start at the nearest-neighbour distance and rise via max
    exchanges with the current adjacent sets. When the degree-1 graph is
    connected, the output equals it and the run converges within its hop
    diameter.
    """
    return _run_minmax(distance_matrix(dep), "distance", lambda t: t.copy(), termination,
                       timeout_rounds, suppress)


def run_discrit(weights: LinkWeightTable, *, termination="centralized",
                timeout_rounds=1, suppress=True):
    """Weight-based construction from Hello link-weight estimates.

    Node i holds incoming weights w[j, i]; its p-threshold starts at the
    maximum of them and falls via min exchanges. The final directed
    adjacency is made bidirectional.
    """
    p = weights.p_hat
    n = p.shape[0]
    incoming_max = np.where(np.eye(n, dtype=bool), -np.inf, p).max(axis=0)
    dead = np.flatnonzero(incoming_max <= 0)
    if dead.size:
        raise ValueError(f"node {int(dead[0])} has no incoming weight > 0; "
                         "cannot initialise its p-threshold")
    return _run_minmax(-p.T, "discrit", lambda t: -t, termination,
                       timeout_rounds, suppress)


def bidirectionalize(adjacency) -> EdgeGraph:
    """Union a directed adjacency (id -> id set) into an undirected graph.

    Edge (i, j) is present iff j in N(i) or i in N(j); self-loops are
    dropped. ``adjacency`` is a sequence or dict covering ids 0..n-1.
    """
    n = len(adjacency)
    sets = [adjacency[i] for i in range(n)] if isinstance(adjacency, dict) else list(adjacency)
    src = np.repeat(np.arange(n), [len(nbrs) for nbrs in sets])
    dst = np.fromiter((int(j) for nbrs in sets for j in nbrs), dtype=np.intp, count=src.size)
    bad = np.flatnonzero((dst < 0) | (dst >= n))
    if bad.size:
        raise ValueError(f"adjacency of {src[bad[0]]} references out-of-range id {dst[bad[0]]}")
    keep = src != dst
    return EdgeGraph(n, np.column_stack([src[keep], dst[keep]]))


def trace_to_csv(trace: ProtocolTrace, path) -> None:
    """Write per-round state as ``iteration,node,threshold,degree`` rows."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "node", "threshold", "degree"])
        for k, (thr, deg) in enumerate(zip(trace.thresholds, trace.degrees)):
            for i in range(len(thr)):
                writer.writerow([k, i, repr(float(thr[i])), int(deg[i])])
