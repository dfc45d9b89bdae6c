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
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from discrit.channel import (
    ChannelParams, LinkWeightTable, PowerHistograms, _gain_matrix, simulate_hello,
    square_annulus_index,
)
from discrit.geometry import Deployment, Region, distance_matrix, generate_deployment
from discrit.graphs import EdgeGraph
from discrit.protocol import run_discrit, run_range_algorithm
from discrit.selforg import link_rate


def edge_set(g):
    """The edges of an ``EdgeGraph`` as a set of (i, j) tuples."""
    return set(map(tuple, g.edges.tolist()))


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
        c[np.ix_(tx, rx)] += ok
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


@functools.lru_cache(maxsize=None)
def edge_format_cases():
    """Protocol runs the array-edge code is checked on against the oracles
    above: uniform-iid n=1000 seeds 0-2, a 32 x 32 grid (exact distance
    ties) and a randomised lattice in distance mode, and weight mode on
    the criterion-8 Hello weights of uniform-iid seed 0.

    Each case is ``(label, dep, graph, member)``, where ``member[i]`` is
    node i's adjacent set rebuilt from the run's final thresholds.
    """
    km = Region(1000.0, 1000.0)
    deps = [(f"uniform-seed{s}", generate_deployment("uniform-iid", 1000, km, s)) for s in range(3)]
    deps += [("grid-32x32", generate_deployment("grid", 1024, km, 0)),
             ("randomised-lattice", generate_deployment("randomised-lattice", 1000, km, 0))]
    cases = []
    for label, dep in deps:
        g, trace = run_range_algorithm(dep)
        cases.append((label, dep, g, distance_matrix(dep) <= trace.final_thresholds()[:, None]))
    dep = deps[0][1]
    hello = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.10, slots=5000)
    weights = simulate_hello(dep, hello, 0)
    g, trace = run_discrit(weights)
    cases.append(("hello-seed0-weights", dep, g, weights.p_hat.T >= trace.final_thresholds()[:, None]))
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


@pytest.fixture
def unit_region():
    return Region(1.0, 1.0)


@pytest.fixture
def km_region():
    return Region(1000.0, 1000.0)
