"""Centralised graph constructions and oracles.

Geometric graphs use the closed-ball rule: edge (i, j) present iff
d_ij <= r. Hop distances are unit-weight shortest paths; unreachable
pairs are reported with the explicit ``UNREACHABLE`` marker, never a
sentinel number.
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


UNREACHABLE = _Marker("UNREACHABLE")
UNBOUNDED = _Marker("UNBOUNDED")


@dataclass(frozen=True, eq=False)
class EdgeGraph:
    """Undirected graph over node ids 0..n-1.

    ``radius`` is set iff the graph was constructed as a geometric graph.
    Edges are stored as (i, j) pairs with i < j.
    """

    n: int
    edges: frozenset
    radius: float | None = None

    def __post_init__(self):
        edges = frozenset((int(i), int(j)) if i < j else (int(j), int(i)) for i, j in self.edges)
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
        object.__setattr__(self, "edges", edges)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _csr(self) -> csr_matrix:
        if not self.edges:
            return csr_matrix((self.n, self.n))
        arr = np.array(sorted(self.edges), dtype=np.intp)
        rows = np.concatenate([arr[:, 0], arr[:, 1]])
        cols = np.concatenate([arr[:, 1], arr[:, 0]])
        data = np.ones(rows.size, dtype=np.int8)
        return csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    @cached_property
    def _hops(self) -> np.ndarray:
        dist = shortest_path(self._csr, method="D", directed=False, unweighted=True)
        dist[np.isinf(dist)] = -1
        hops = dist.astype(np.int64)
        hops.setflags(write=False)
        return hops

    def degrees(self) -> np.ndarray:
        return np.bincount(self._csr.indices, minlength=self.n)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges


class HopTable:
    """Per-source minimum hop counts on an EdgeGraph.

    Rows are computed lazily per source (one BFS worth of memory per
    query) and cached. ``get`` returns an int hop count or UNREACHABLE.
    """

    def __init__(self, graph: EdgeGraph, sources=()):
        self._graph = graph
        self._rows: dict[int, np.ndarray] = {}
        if len(sources):
            self._compute(list(sources))

    @property
    def n(self) -> int:
        return self._graph.n

    @property
    def sources(self) -> list:
        return sorted(self._rows)

    def _compute(self, sources) -> None:
        todo = [s for s in sources if s not in self._rows]
        if not todo:
            return
        for s in todo:
            if not (0 <= s < self.n):
                raise ValueError(f"source {s} out of range for n={self.n}")
        dist = shortest_path(self._graph._csr, method="D", directed=False, unweighted=True, indices=todo)
        dist = np.atleast_2d(dist)
        for k, s in enumerate(todo):
            row = dist[k]
            out = np.where(np.isinf(row), -1, row).astype(np.int64)
            self._rows[s] = out

    def row(self, s: int) -> np.ndarray:
        """Hop counts from s to every node; -1 encodes unreachable.

        Internal fast path for vectorised consumers; ``get`` is the
        marker-safe accessor.
        """
        self._compute([s])
        return self._rows[s]

    def get(self, s: int, t: int):
        h = self.row(s)[t]
        return UNREACHABLE if h < 0 else int(h)


def _gg(d: np.ndarray, r: float) -> EdgeGraph:
    """Geometric graph of radius r (closed ball) over distance matrix d."""
    ii, jj = np.nonzero(np.triu(d <= r, 1))
    return EdgeGraph(len(d), frozenset(zip(ii.tolist(), jj.tolist())), radius=float(r))


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


def hop_distances(g: EdgeGraph, sources) -> HopTable:
    """Hop table with the given source rows precomputed."""
    return HopTable(g, sources=list(sources))


def hop_matrix(g: EdgeGraph) -> np.ndarray:
    """All-pairs hop counts as an (n, n) int array; -1 = unreachable.

    Bulk variant of HopTable for vectorised consumers. The matrix is
    computed once per graph and shared, so it is read-only.
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
    if not ga.edges:
        raise ValueError("disparity undefined for an empty edge set in the first graph")
    return len(ga.edges - gb.edges) / len(ga.edges)


def induced_subgraph(g: EdgeGraph, ids) -> EdgeGraph:
    """Subgraph on ``ids``, re-indexed by the sorted order of ids."""
    ids = sorted(int(i) for i in ids)
    remap = {old: new for new, old in enumerate(ids)}
    keep = set(ids)
    edges = frozenset(
        (remap[i], remap[j]) for i, j in g.edges if i in keep and j in keep
    )
    return EdgeGraph(len(ids), edges, radius=g.radius)


def save_graph(g: EdgeGraph, prefix) -> tuple[Path, Path]:
    """Write <prefix>.edges.csv (``i,j`` rows) and <prefix>.graph.json."""
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


def load_graph(prefix) -> EdgeGraph:
    prefix = Path(prefix)
    csv_path = prefix.with_name(prefix.name + ".edges.csv")
    hdr_path = prefix.with_name(prefix.name + ".graph.json")
    header = json.loads(hdr_path.read_text())
    edges = set()
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            edges.add((int(rec["i"]), int(rec["j"])))
    return EdgeGraph(header["n"], frozenset(edges), radius=header["radius"])
