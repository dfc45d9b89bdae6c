import csv
import functools
import itertools
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.spatial import cKDTree

from discrit.channel import (
    ChannelParams, LinkWeightTable, PowerHistograms, _gain_matrix, simulate_hello,
    square_annulus_index,
)
from discrit.discretize import RhoStats, _pair_sample
from discrit.geometry import Deployment, Region, distance_matrix, generate_deployment, pair_distances
from discrit.graphs import EdgeGraph, hop_matrix
from discrit import localize
from discrit.protocol import (
    InvariantViolation, ProtocolTrace, _check_round_invariants, run_discrit,
    run_range_algorithm,
)
from discrit.selforg import link_rate


def edge_set(g):
    """The edges of an ``EdgeGraph`` as a set of (i, j) tuples."""
    return set(map(tuple, g.edges.tolist()))


def reference_edges(n, pairs):
    """``EdgeGraph``'s normalised edges as the constructor built them with
    ``np.unique`` on the keys i*n+j (input already validated)."""
    e = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    lo, hi = e.min(axis=1), e.max(axis=1)
    return np.column_stack(np.divmod(np.unique(lo * n + hi), n))


def reference_distance_matrix(dep):
    """``distance_matrix`` as one broadcast ``pair_distances`` call."""
    ids = np.arange(dep.n)
    return pair_distances(dep, ids[:, None], ids[None, :])


def reference_gain_matrix(dep, params):
    """``channel._gain_matrix`` as it was written out of place."""
    d = reference_distance_matrix(dep)
    np.fill_diagonal(d, np.inf)
    return params.p_t * d ** -params.eta


def line_deployment(xs, side=1000.0, y=None):
    """Collinear nodes at the given x offsets inside a square region."""
    y = side / 2 if y is None else y
    pos = np.array([[x, y] for x in xs], dtype=float)
    return Deployment(pos, "uniform-iid", Region(side, side), 0)


def enumerate_hello_p(pos, params):
    """Exact per-pair Hello success probabilities by exhausting the
    transmit patterns of the other nodes (deterministic fading only)."""
    n = len(pos)
    d = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(-1))
    with np.errstate(divide="ignore"):
        g = np.where(np.eye(n, dtype=bool), 0.0, params.p_t / d ** params.eta)
    p = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            others = [k for k in range(n) if k not in (i, j)]
            total = 0.0
            for bits in itertools.product((0, 1), repeat=len(others)):
                prob = 1.0
                interference = 0.0
                for k, b in zip(others, bits):
                    prob *= params.alpha if b else (1.0 - params.alpha)
                    if b:
                        interference += g[k, j]
                ok = g[i, j] >= params.beta * (params.sigma2 + interference)
                total += prob * ok
            p[i, j] = (1.0 - params.alpha) * total
    return p


def reference_p_hat(c, b):
    """The dense (n, n) weights ``LinkWeightTable.from_counts`` once
    stored: c[i, j] / b[i], and 0 where b[i] is 0."""
    c, b = np.asarray(c, dtype=np.int64), np.asarray(b, dtype=np.int64)
    with np.errstate(invalid="ignore"):
        return np.where(b[:, None] > 0, c / np.maximum(b[:, None], 1), 0.0)


def dense(table, field="p_hat"):
    """A row field of a ``LinkWeightTable`` as an (n, n) array, 0 off the rows."""
    rows = getattr(table, field)
    out = np.zeros((table.n, table.n), dtype=rows.dtype)
    out[tuple(table.pairs.T)] = rows
    return out


def weights_from_dense(p):
    """A ``LinkWeightTable`` of the nonzero entries of a dense weight
    matrix p, for synthetic weights: no counts, no broadcasts."""
    p = np.asarray(p, dtype=np.float64)
    i, j = np.nonzero(p)
    return LinkWeightTable(len(p), np.column_stack([i, j]), np.zeros(i.size, np.int64),
                           np.zeros(len(p), np.int64), p[i, j])


def reference_hello(dep, params, seed):
    """The Hello slot loop that ``simulate_hello`` replaced: every
    (transmitter, listener) pair is gathered and tested each slot."""
    n = dep.n
    gain = _gain_matrix(dep, params)
    rng = np.random.default_rng(seed)
    c = np.zeros((n, n), dtype=np.int64)
    b = np.zeros(n, dtype=np.int64)
    one_plus_beta = 1.0 + params.beta
    for _ in range(params.slots):
        transmitting = rng.random(n) < params.alpha
        tx = np.flatnonzero(transmitting)
        b[tx] += 1
        if tx.size == 0 or tx.size == n:
            continue
        rx = np.flatnonzero(~transmitting)
        sig = gain[np.ix_(tx, rx)]
        if params.fading == "rayleigh-power":
            sig = sig * rng.exponential(params.fading_mean, size=sig.shape)
        total = sig.sum(axis=0)
        ok = sig * one_plus_beta >= params.beta * (params.sigma2 + total[None, :])
        i, j = np.nonzero(ok)  # a slot's (tx, rx) pairs are distinct
        c[tx[i], rx[j]] += 1
    return LinkWeightTable.from_counts(c, b)


def reference_power_histogram(dep, params, seed, annuli):
    """``received_power_histogram`` as it was, with its own copy of the
    slot loop."""
    n = dep.n
    ring = square_annulus_index(dep, annuli)
    gain = _gain_matrix(dep, params)
    rng = np.random.default_rng(seed)
    samples = [[] for _ in range(annuli)]
    for _ in range(params.slots):
        transmitting = rng.random(n) < params.alpha
        tx = np.flatnonzero(transmitting)
        if tx.size == 0 or tx.size == n:
            continue
        rx = np.flatnonzero(~transmitting)
        sig = gain[np.ix_(tx, rx)]
        if params.fading == "rayleigh-power":
            sig = sig * rng.exponential(params.fading_mean, size=sig.shape)
        total = sig.sum(axis=0)
        rx_ring = ring[rx]
        for a in range(annuli):
            vals = total[rx_ring == a]
            if vals.size:
                samples[a].append(vals)
    pooled = [np.concatenate(s) if s else np.empty(0) for s in samples]
    top = max((float(p.max()) for p in pooled if p.size), default=0.0)
    if top <= 0:
        raise ValueError("no power was received in any slot")
    edges = np.linspace(0.0, top, 201)
    masses = [np.histogram(p, bins=edges)[0] / p.size if p.size else np.zeros(200)
              for p in pooled]
    return PowerHistograms(bin_edges=edges, masses=masses,
                           counts=[int(p.size) for p in pooled],
                           ring_width=(dep.region.width / 2) / annuli)


class _DisjointSet:
    def __init__(self, n):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.components = n

    def find(self, a):
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.components -= 1
        return True


def reference_build_gg(dep, r):
    """``build_gg`` as it was: the upper triangle of the distance matrix
    through ``triu_indices``."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    d = distance_matrix(dep)
    iu = np.triu_indices(dep.n, 1)
    keep = d[iu] <= r
    edges = frozenset(zip(iu[0][keep].tolist(), iu[1][keep].tolist()))
    return EdgeGraph(dep.n, edges, radius=float(r))


def reference_degree1_radius(dep):
    """``degree1_radius`` as it was: row minima of the dense distance
    matrix, and the graph thresholded from the same matrix."""
    d = distance_matrix(dep)
    np.fill_diagonal(d, np.inf)
    r1 = float(d.min(axis=1).max())
    return r1, EdgeGraph(dep.n, np.argwhere(np.triu(d <= r1, 1)), radius=r1)


def reference_hops(g, sources=None):
    """``graphs._bfs_hops`` as it was: one scipy Dijkstra per source, over
    scipy's own adjacency of ``g.edges``, with unreachable pairs (inf) set
    to -1."""
    adj = coo_matrix((np.ones(g.num_edges), tuple(g.edges.T)), shape=(g.n, g.n))
    dist = shortest_path(adj.tocsr(), method="D", directed=False, unweighted=True, indices=sources)
    dist[np.isinf(dist)] = -1
    return dist.astype(np.int64)


def reference_critical_radius(dep):
    """The ``critical_radius`` that Prim's algorithm replaced: every pair
    sorted by length and fed to a union-find until one component
    remains."""
    n = dep.n
    d = distance_matrix(dep)
    iu = np.triu_indices(n, 1)
    dvec = d[iu]
    order = np.argsort(dvec, kind="stable")
    ii, jj = iu[0][order], iu[1][order]
    dsu = _DisjointSet(n)
    r_crit = None
    for k in range(order.size):
        dsu.union(int(ii[k]), int(jj[k]))
        if dsu.components == 1:
            r_crit = float(dvec[order[k]])
            break
    assert r_crit is not None, "complete graph is always connected"
    return r_crit, reference_build_gg(dep, r_crit)


# The graph code from before ``EdgeGraph.edges`` became an array, kept
# as oracles for the array code. ``SetGraph`` holds a graph the way
# ``EdgeGraph`` did: ``edges`` is a frozenset of (i, j) tuples, i < j.
SetGraph = namedtuple("SetGraph", "n edges radius", defaults=(None,))


def set_graph(g):
    return SetGraph(g.n, frozenset(edge_set(g)), g.radius)


def reference_bidirectionalize(adjacency):
    """``bidirectionalize`` as it was: a Python loop over every pair."""
    if isinstance(adjacency, dict):
        n = len(adjacency)
        items = [(i, adjacency[i]) for i in range(n)]
    else:
        n = len(adjacency)
        items = list(enumerate(adjacency))
    edges = set()
    for i, nbrs in items:
        for j in nbrs:
            j = int(j)
            if not (0 <= j < n):
                raise ValueError(f"adjacency of {i} references out-of-range id {j}")
            if j != i:
                edges.add((min(i, j), max(i, j)))
    return SetGraph(n, frozenset(edges))


def reference_minmax(score, mode, natural, termination, timeout_rounds):
    """``protocol._run_minmax`` as it was: dense (n, n) membership,
    delivery and candidate arrays rebuilt every round. ``score`` is an
    (n, n) key matrix, lower = closer.

    score[i, j] is the key node i holds for node j; the diagonal is
    ignored (self is always adjacent). ``natural`` maps engine keys back
    to the mode's reported units.
    """
    if termination not in ("centralized", "distributed"):
        raise ValueError(f"unknown termination mode {termination!r}")
    if termination == "distributed" and timeout_rounds < 1:
        raise ValueError(f"timeout_rounds must be >= 1, got {timeout_rounds}")
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

        sender = changed  # after round 1 a node announces only a changed threshold
        thr = new_thr

    return EdgeGraph(n, np.argwhere(np.triu(member | member.T, 1))), trace


TraceRow = namedtuple("TraceRow", "iteration node threshold degree")


def read_trace_csv(path):
    """Decode a ``trace.csv`` written by ``protocol.trace_to_csv``.

    Returns ``(thresholds, degrees, rows)``: two (k, n) arrays with every
    snapshot, and the file's rows as ``TraceRow`` tuples. The snapshot
    count k is the last row's iteration + 1 and n is the number of
    iteration-0 rows. Each row sets its node's value from its iteration
    on, so a later row of that node overrides it (forward fill)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["iteration", "node", "threshold", "degree"]
        rows = [TraceRow(int(i), int(v), float(t), int(d)) for i, v, t, d in reader]
    k = rows[-1].iteration + 1
    n = sum(r.iteration == 0 for r in rows)
    thresholds = np.full((k, n), np.nan)
    degrees = np.full((k, n), -1, dtype=np.int64)
    for r in rows:
        thresholds[r.iteration:, r.node] = r.threshold
        degrees[r.iteration:, r.node] = r.degree
    return thresholds, degrees, rows


def reference_induced_subgraph(g, ids):
    """``induced_subgraph`` as it was, with a dict remap."""
    ids = sorted(int(i) for i in ids)
    remap = {old: new for new, old in enumerate(ids)}
    keep = set(ids)
    edges = frozenset(
        (remap[i], remap[j]) for i, j in g.edges if i in keep and j in keep
    )
    return SetGraph(len(ids), edges, radius=g.radius)


def reference_disparity(ga, gb):
    """``disparity`` as it was: a set difference."""
    if ga.n != gb.n:
        raise ValueError(f"graphs have different node counts: {ga.n} vs {gb.n}")
    if not ga.edges:
        raise ValueError("disparity undefined for an empty edge set in the first graph")
    return len(ga.edges - gb.edges) / len(ga.edges)


def _reference_csv_field(x):
    """One field as the hand-written writers formatted it."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    return repr(float(x))


def reference_save_csv(path, header, *columns):
    """``geometry.save_csv`` as the artifact writers did it before: one
    ``writerow`` per row, floats via repr(float(x)), None as ""."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_reference_csv_field(x) for x in row])


def reference_save_graph(g, prefix):
    """``save_graph`` as it was: one row per sorted edge tuple."""
    prefix = Path(prefix)
    csv_path = prefix.with_name(prefix.name + ".edges.csv")
    hdr_path = prefix.with_name(prefix.name + ".graph.json")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j"])
        for i, j in sorted(g.edges):
            writer.writerow([i, j])
    header = {"n": g.n, "radius": g.radius}
    hdr_path.write_text(json.dumps(header) + "\n")
    return csv_path, hdr_path


def reference_topology_adjacency(hops, h):
    """Flattened adjacency of the h-hop topology as ``selforg`` built it
    from the hop matrix; None if empty."""
    match = hops == h
    np.fill_diagonal(match, False)
    deg = match.sum(axis=1)
    active = np.flatnonzero(deg > 0)
    if active.size == 0:
        return None
    flat = np.nonzero(match)[1]
    start = np.zeros(active.size, dtype=np.int64)
    np.cumsum(deg[active][:-1], out=start[1:])
    return active, deg[active], flat, start


def reference_simulate_psi(dist, adj, p, seed):
    """The Aloha loop as it read ``reference_topology_adjacency``."""
    active, deg, flat, start = adj
    rng = np.random.default_rng(seed)
    total = 0.0
    chunk = max(1, min(p.slots, 2_000_000 // max(active.size, 1)))
    done = 0
    while done < p.slots:
        m = min(chunk, p.slots - done)
        attempts = rng.random((m, active.size)) < p.q
        natt = attempts.sum(axis=1)
        winners = attempts.argmax(axis=1)[natt == 1]
        if winners.size:
            u = rng.random(winners.size)
            nbr = flat[start[winners] + (u * deg[winners]).astype(np.int64)]
            d = dist[active[winners], nbr]
            total += float((d * p.w * link_rate(d, p)).sum())
        done += m
    return total / p.slots


def reference_rho_stats(dep, g, pair_sample="all", seed=0):
    """``rho_stats`` as it read all pairs at once through ``triu_indices``."""
    n = dep.n
    hops = hop_matrix(g)
    if pair_sample == "all":
        ii, jj = np.triu_indices(n, 1)
    else:
        ii, jj = _pair_sample(n, int(pair_sample), seed)
    hvals = hops[ii, jj].astype(np.float64)
    dvals = pair_distances(dep, ii, jj)
    finite = hvals > 0
    excluded = int(np.sum(hvals < 0))
    samples = dvals[finite] / hvals[finite]
    mean = float(samples.mean())
    variance = float(samples.var())
    bin_width = (g.radius if g.radius else float(samples.max())) / 50.0
    top = max(float(samples.max()), bin_width)
    edges = np.arange(int(math.ceil(top / bin_width)) + 1) * bin_width
    hist, _ = np.histogram(samples, bins=edges)
    return RhoStats(
        samples=samples, mean=mean, variance=variance, cv=float(math.sqrt(variance) / mean),
        hist_edges=edges, hist_masses=hist / samples.size, bin_width=bin_width,
        pairs_used=int(samples.size), pairs_excluded=excluded,
    )


@functools.lru_cache(maxsize=None)
def edge_format_deployments():
    """``(label, dep)`` for uniform-iid n=1000 seeds 0-2, a 32 x 32 grid
    (exact distance ties) and a randomised lattice."""
    km = Region(1000.0, 1000.0)
    deps = [(f"uniform-seed{s}", generate_deployment("uniform-iid", 1000, km, s)) for s in range(3)]
    deps += [("grid-32x32", generate_deployment("grid", 1024, km, 0)),
             ("randomised-lattice", generate_deployment("randomised-lattice", 1000, km, 0))]
    return deps


@functools.lru_cache(maxsize=None)
def hello_seed0_weights():
    """The criterion-8 Hello weights of uniform-iid n=1000 seed 0."""
    dep = edge_format_deployments()[0][1]
    hello = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.10, slots=5000)
    return simulate_hello(dep, hello, 0)


@functools.lru_cache(maxsize=None)
def edge_format_cases():
    """Protocol runs the array-edge code is checked on against the oracles
    above: the ``edge_format_deployments`` in distance mode, and weight
    mode on ``hello_seed0_weights``.

    Each case is ``(label, dep, graph, member)``, where ``member[i]`` is
    node i's adjacent set rebuilt from the run's final thresholds.
    """
    cases = []
    for label, dep in edge_format_deployments():
        g, trace = run_range_algorithm(dep)
        cases.append((label, dep, g, distance_matrix(dep) <= trace.thresholds[-1][:, None]))
    dep = edge_format_deployments()[0][1]
    weights = hello_seed0_weights()
    g, trace = run_discrit(weights)
    cases.append(("hello-seed0-weights", dep, g, dense(weights).T >= trace.thresholds[-1][:, None]))
    return cases


def kdtree_degree1(pos, box=None):
    """Degree-1 radius r1, edge set and connectivity of a point set.

    An oracle for ``degree1_radius``, ``build_gg`` and ``is_connected``
    that shares no code with ``discrit.graphs``: nearest neighbours and
    candidate pairs come from a KD-tree, components from scipy's
    ``connected_components``. r1 is the largest nearest-neighbour
    distance; the graph joins every pair at distance <= r1. Lengths use
    sqrt(dx*dx + dy*dy), as ``discrit.geometry`` does. The tree only
    proposes candidates, at a slightly larger radius, because its own
    squared-distance test drops the pair of length exactly r1 on about
    a quarter of uniform deployments. ``box=(w, h)`` measures on the
    torus of that size, a region without boundary.

    Returns ``(r1, edges, connected)`` with edges as (i, j), i < j.
    """
    pos = np.asarray(pos, dtype=float)
    n = len(pos)
    tree = cKDTree(pos, boxsize=box)

    def length(i, j):
        delta = np.abs(pos[i] - pos[j])
        if box is not None:
            delta = np.minimum(delta, np.asarray(box, dtype=float) - delta)
        return np.sqrt(delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1])

    nearest = tree.query(pos, k=2)[1][:, 1]
    r1 = float(length(np.arange(n), nearest).max())
    pairs = tree.query_pairs(r1 * (1 + 1e-9), output_type="ndarray")
    pairs = pairs[length(pairs[:, 0], pairs[:, 1]) <= r1]
    adj = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    connected = connected_components(adj, directed=False)[0] == 1
    edges = set(map(tuple, pairs.tolist()))
    return r1, edges, bool(connected)


def kdtree_pairs_within(dep, r):
    """``graphs._pairs_within`` as it was: a KD-tree proposes the pairs
    within r·(1 + 1e-9), and ``pair_distances`` keeps those of length <= r.
    Returns the kept pairs' keys i*n+j (i < j) in ascending order and
    their lengths in that order."""
    pairs = cKDTree(dep.positions).query_pairs(r * (1 + 1e-9), output_type="ndarray").reshape(-1, 2)
    d = pair_distances(dep, pairs[:, 0], pairs[:, 1])
    keys = pairs.min(axis=1) * dep.n + pairs.max(axis=1)
    order = np.argsort(keys[d <= r])
    return keys[d <= r][order], d[d <= r][order]


def scipy_components(g):
    """(count, giant) by scipy's ``connected_components`` over its own
    adjacency of ``g.edges``; giant is the largest component's ascending
    ids, and of equally large ones the component holding the lowest id."""
    adj = coo_matrix((np.ones(g.num_edges), tuple(g.edges.T)), shape=(g.n, g.n))
    count, labels = connected_components(adj, directed=False)
    sizes = np.bincount(labels)[labels]
    lowest = np.flatnonzero(sizes == sizes.max())[0]
    return count, np.flatnonzero(labels == labels[lowest])


def degree1_connected_share(n, seeds, torus=False):
    """Share of uniform-iid deployments of n nodes in the 1 km square
    whose degree-1 graph is connected, by ``kdtree_degree1``; with
    ``torus`` the square's edges wrap around."""
    region = Region(1000.0, 1000.0)
    box = (region.width, region.height) if torus else None
    hits = sum(kdtree_degree1(generate_deployment("uniform-iid", n, region, s).positions, box)[2]
               for s in seeds)
    return hits / len(seeds)


def pairwise_distance(dep, i, j):
    """Euclidean distance between nodes i and j, one pair at a time: the
    scalar oracle for ``distance_matrix``, which must agree bit for bit."""
    n = dep.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"node id out of range: ({i}, {j}) with n={n}")
    dx = dep.positions[i, 0] - dep.positions[j, 0]
    dy = dep.positions[i, 1] - dep.positions[j, 1]
    return math.sqrt(dx * dx + dy * dy)


@dataclass(frozen=True)
class ApolloniusCurve:
    """Coefficients of a (x^2 + y^2) + bx x + by y + c = 0.

    The locus of points whose distances to two foci have a fixed ratio;
    degenerates to the perpendicular bisector (a = 0) at ratio 1. The
    scalar oracle for ``localize._residuals``.
    """

    a: float
    bx: float
    by: float
    c: float

    def __post_init__(self):
        if self.a == 0 and self.bx == 0 and self.by == 0 and self.c == 0:
            raise ValueError("all-zero curve")

    @property
    def is_line(self) -> bool:
        return self.a == 0

    def residual(self, x: float, y: float) -> float:
        return self.a * (x * x + y * y) + self.bx * x + self.by * y + self.c


def apollonius_curve(bi, bj, r: float) -> ApolloniusCurve:
    """Curve of points with distance ratio r to foci bi, bj."""
    if r <= 0:
        raise ValueError(f"ratio must be > 0, got {r}")
    xi, yi = float(bi[0]), float(bi[1])
    xj, yj = float(bj[0]), float(bj[1])
    if xi == xj and yi == yj:
        raise ValueError("foci must be distinct")
    r2 = r * r
    return ApolloniusCurve(
        a=1.0 - r2,
        bx=-2.0 * (xi - r2 * xj),
        by=-2.0 * (yi - r2 * yj),
        c=(xi * xi + yi * yi) - r2 * (xj * xj + yj * yj),
    )



def _reference_residuals(point, foci_i, foci_j, norm, r2):
    # |p - bi|^2 - r^2 |p - bj|^2, evaluated in factored form for
    # numerical stability; algebraically identical to the expanded
    # curve coefficients. Normalised by (1 + r^2) per pair.
    di = point - foci_i
    dj = point - foci_j
    return ((di * di).sum(axis=1) - r2 * (dj * dj).sum(axis=1)) / norm


def _reference_gauss_newton(start, foci_i, foci_j, norm, r2, scale):
    point = np.array(start, dtype=np.float64)
    step = 1e-6 * scale
    obj = float((_reference_residuals(point, foci_i, foci_j, norm, r2) ** 2).sum())
    for _ in range(localize.MAX_SOLVER_ITERATIONS):
        f = _reference_residuals(point, foci_i, foci_j, norm, r2)
        jac = np.empty((f.size, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = step
            jac[:, k] = (_reference_residuals(point + e, foci_i, foci_j, norm, r2)
                         - _reference_residuals(point - e, foci_i, foci_j, norm, r2)) / (2 * step)
        delta, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        trial = point + delta
        trial_obj = float((_reference_residuals(trial, foci_i, foci_j, norm, r2) ** 2).sum())
        backtracks = 0
        while trial_obj > obj and backtracks < 20:
            delta = delta / 2
            trial = point + delta
            trial_obj = float((_reference_residuals(trial, foci_i, foci_j, norm, r2) ** 2).sum())
            backtracks += 1
        moved = float(np.hypot(*delta))
        point, obj = trial, trial_obj
        if moved <= 1e-12 * scale:
            return point, obj, True
    return point, obj, False


def reference_estimate_position(beacons, ratios):
    """The per-vector solver ``localize._solve`` replaced: numeric-Jacobian
    Gauss-Newton with ``lstsq`` steps, one start after another, on ratios
    {(i, j): h_i / h_j}. Returns (x, y, objective, converged) of the best
    start; the differential oracle for the batched solver."""
    pairs = sorted(ratios)
    rvals = np.array([ratios[p] for p in pairs], dtype=np.float64)
    r2 = rvals * rvals
    norm = 1.0 + r2
    foci_i = beacons.coords[[p[0] for p in pairs]]
    foci_j = beacons.coords[[p[1] for p in pairs]]

    centroid = beacons.coords.mean(axis=0)
    spread = float(max(np.ptp(beacons.coords[:, 0]), np.ptp(beacons.coords[:, 1]), 1.0))
    offsets = np.array([(0, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=np.float64)
    starts = centroid + offsets * (spread / 4)

    best = None
    for start in starts:
        point, obj, ok = _reference_gauss_newton(start, foci_i, foci_j, norm, r2, spread)
        if best is None or obj < best[1]:
            best = (point, obj, ok)
    point, obj, ok = best
    return float(point[0]), float(point[1]), obj, ok

@pytest.fixture
def unit_region():
    return Region(1.0, 1.0)


@pytest.fixture
def km_region():
    return Region(1000.0, 1000.0)
