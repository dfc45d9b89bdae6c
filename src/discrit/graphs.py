"""Centralised graph constructions and oracles.

Geometric graphs use the closed-ball rule: edge (i, j) present iff
d_ij <= r. Hop distances are unit-weight shortest paths, returned as
read-only int64 arrays in which -1 marks an unreachable pair.
``graph_diameter`` reports a disconnected graph with the ``UNBOUNDED``
marker.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from .geometry import Deployment, distance_matrix


class _Marker:
    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


UNBOUNDED = _Marker("UNBOUNDED")


@dataclass(frozen=True, eq=False)
class EdgeGraph:
    """Undirected graph over node ids 0..n-1.

    ``radius`` is set iff the graph was constructed as a geometric graph.
    ``edges`` is a read-only (E, 2) int array of distinct (i, j) pairs
    with i < j, in ascending row-major order; the constructor accepts
    any (E, 2) array or iterable of pairs and normalises it.
    """

    n: int
    edges: np.ndarray
    radius: float | None = None

    def __post_init__(self):
        raw = self.edges if isinstance(self.edges, np.ndarray) else list(self.edges)
        e = np.asarray(raw, dtype=np.intp)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edges must be (E, 2) pairs, got shape {e.shape}")
        lo, hi = e.min(axis=1), e.max(axis=1)
        loops = np.flatnonzero(lo == hi)
        if loops.size:
            raise ValueError(f"self-loop on node {lo[loops[0]]}")
        bad = np.flatnonzero((lo < 0) | (hi >= self.n))
        if bad.size:
            raise ValueError(f"edge ({lo[bad[0]]},{hi[bad[0]]}) out of range for n={self.n}")
        e = np.column_stack(np.divmod(np.unique(lo * self.n + hi), self.n))
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _csr(self) -> csr_matrix:
        """Symmetric adjacency; column indices are sorted within each row."""
        rows = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        cols = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        data = np.ones(rows.size, dtype=np.int8)
        return csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    @cached_property
    def _hops(self) -> np.ndarray:
        return _bfs_hops(self)

    def degrees(self) -> np.ndarray:
        return np.bincount(self._csr.indices, minlength=self.n)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(np.any((self.edges[:, 0] == min(i, j)) & (self.edges[:, 1] == max(i, j))))


def _bfs_hops(g: EdgeGraph, sources=None) -> np.ndarray:
    """Read-only int64 hop counts from ``sources`` (every node if None)
    to every node, one row per source; -1 = unreachable."""
    dist = shortest_path(g._csr, method="D", directed=False, unweighted=True, indices=sources)
    dist[np.isinf(dist)] = -1
    hops = dist.astype(np.int64)
    hops.setflags(write=False)
    return hops


def _gg(d: np.ndarray, r: float) -> EdgeGraph:
    """Geometric graph of radius r (closed ball) over distance matrix d."""
    return EdgeGraph(len(d), np.argwhere(np.triu(d <= r, 1)), radius=float(r))


def build_gg(dep: Deployment, r: float) -> EdgeGraph:
    """Geometric graph of radius r (closed ball)."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    return _gg(distance_matrix(dep), r)


def is_connected(g: EdgeGraph) -> bool:
    return connected_components(g._csr, directed=False, return_labels=False) == 1


def component_labels(g: EdgeGraph) -> np.ndarray:
    """Connected-component label per node, numbered 0..k-1 in order of
    each component's lowest node id."""
    return connected_components(g._csr, directed=False)[1].astype(np.int64)


def critical_radius(dep: Deployment) -> tuple[float, EdgeGraph]:
    """Smallest pairwise distance whose geometric graph is connected.

    That is the longest edge of a minimum spanning tree, grown here by
    dense Prim's algorithm: ``near`` holds each outside node's distance
    to the tree, and nodes already in it are kept at infinity. The
    returned graph is the full geometric graph at that radius, cut from
    the same matrix, so exact ties keep every edge of length r.
    """
    d = distance_matrix(dep)
    near = d[0].copy()
    joined = np.zeros(dep.n, dtype=bool)
    r_crit, k = 0.0, 0
    for _ in range(dep.n - 1):
        joined[k] = True
        np.minimum(near, d[k], out=near)
        near[joined] = np.inf
        k = int(np.argmin(near))
        r_crit = max(r_crit, float(near[k]))
    return r_crit, _gg(d, r_crit)


def degree1_radius(dep: Deployment) -> tuple[float, EdgeGraph]:
    """Largest nearest-neighbour distance and its geometric graph.

    The returned graph has minimum degree >= 1 but need not be connected.
    """
    d = distance_matrix(dep)
    np.fill_diagonal(d, np.inf)
    r1 = float(d.min(axis=1).max())
    return r1, _gg(d, r1)


def hop_distances(g: EdgeGraph, sources) -> np.ndarray:
    """Hop counts from each source as a (k, n) int array; -1 = unreachable."""
    sources = np.asarray(sources, dtype=np.intp)
    bad = sources[(sources < 0) | (sources >= g.n)]
    if bad.size:
        raise ValueError(f"source {bad[0]} out of range for n={g.n}")
    return _bfs_hops(g, sources)


def hop_matrix(g: EdgeGraph) -> np.ndarray:
    """All-pairs hop counts as an (n, n) int array; -1 = unreachable.

    The matrix is computed once per graph and shared, so it is read-only.
    """
    return g._hops


def graph_diameter(g: EdgeGraph):
    """Maximum hop distance over connected pairs; UNBOUNDED if disconnected."""
    if not is_connected(g):
        return UNBOUNDED
    return int(hop_matrix(g).max())


def disparity(ga: EdgeGraph, gb: EdgeGraph) -> float:
    """Fraction of ga's edges absent from gb."""
    if ga.n != gb.n:
        raise ValueError(f"graphs have different node counts: {ga.n} vs {gb.n}")
    if not ga.num_edges:
        raise ValueError("disparity undefined for an empty edge set in the first graph")
    ka, kb = (g.edges[:, 0] * g.n + g.edges[:, 1] for g in (ga, gb))
    return np.setdiff1d(ka, kb, assume_unique=True).size / ka.size


def induced_subgraph(g: EdgeGraph, ids) -> EdgeGraph:
    """Subgraph on ``ids``, re-indexed by the sorted order of ids."""
    ids = np.sort(np.asarray(ids, dtype=np.intp))
    if ids.size and (ids[0] < 0 or ids[-1] >= g.n):
        raise ValueError(f"ids out of range for n={g.n}")
    remap = np.full(g.n, -1, dtype=np.intp)
    remap[ids] = np.arange(ids.size)
    sub = remap[g.edges]
    return EdgeGraph(ids.size, sub[(sub >= 0).all(axis=1)], radius=g.radius)


def save_graph(g: EdgeGraph, prefix) -> tuple[Path, Path]:
    """Write <prefix>.edges.csv (``i,j`` rows) and <prefix>.graph.json."""
    prefix = Path(prefix)
    csv_path = prefix.with_name(prefix.name + ".edges.csv")
    hdr_path = prefix.with_name(prefix.name + ".graph.json")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j"])
        writer.writerows(g.edges.tolist())
    header = {"n": g.n, "radius": g.radius}
    hdr_path.write_text(json.dumps(header) + "\n")
    return csv_path, hdr_path


def load_graph(prefix) -> EdgeGraph:
    prefix = Path(prefix)
    csv_path = prefix.with_name(prefix.name + ".edges.csv")
    hdr_path = prefix.with_name(prefix.name + ".graph.json")
    header = json.loads(hdr_path.read_text())
    with open(csv_path, newline="") as fh:
        edges = [(int(rec["i"]), int(rec["j"])) for rec in csv.DictReader(fh)]
    return EdgeGraph(header["n"], edges, radius=header["radius"])
