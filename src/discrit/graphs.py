"""Centralised graph constructions and oracles.

Geometric graphs use the closed-ball rule: edge (i, j) present iff
d_ij <= r; a cell list proposes pairs, and their exact lengths decide.
Numpy only, so that no scipy subpackage is on the pipeline's import path.
The hop layer (``hop_matrix``, cached per graph, and ``hop_distances``)
is a bit-parallel multi-source BFS giving read-only arrays of the smallest
signed type holding -n, -1 for unreachable pairs; ``graph_diameter`` is ``UNBOUNDED`` if disconnected.
"""

from __future__ import annotations

import csv
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .geometry import Deployment, check_count, distance_matrix, pair_distances, remap_pairs, save_csv, subset_ids


UNBOUNDED = math.inf  # graph_diameter of a disconnected graph
# Compressed sparse rows: node i's neighbours are indices[indptr[i]:indptr[i + 1]], ascending.
Adjacency = namedtuple("Adjacency", "indptr indices")


@dataclass(frozen=True, eq=False)
class EdgeGraph:
    """Undirected graph over node ids 0..n-1.

    ``radius`` (a float >= 0) is set iff the graph is a geometric graph.
    ``edges`` is a read-only (E, 2) intp array of distinct (i, j) pairs
    with i < j, in ascending row-major order; the constructor accepts any
    (E, 2) array or iterable of pairs, orders each pair, sorts the keys
    i*n+j and drops repeats.
    """

    n: int
    edges: np.ndarray
    radius: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", check_count("n", self.n, 0))  # a graph header is outside input
        if self.n > math.isqrt(np.iinfo(np.intp).max):  # the keys i*n+j must not wrap
            raise ValueError(f"n = {self.n} is too large for i*n+j keys")
        r = self.radius  # a bool or a string is no radius; written so that NaN fails
        if r is not None and (isinstance(r, bool) or not isinstance(r, (int, float, np.integer, np.floating))
                              or not 0 <= r < math.inf):
            raise ValueError(f"radius must be None or a finite number >= 0, got {r!r}")
        object.__setattr__(self, "radius", None if r is None else float(r))
        e = np.asarray(self.edges if isinstance(self.edges, np.ndarray) else list(self.edges))
        if e.size and not np.issubdtype(e.dtype, np.integer):  # a float or bool id is not an id
            raise ValueError(f"edges must be integer node ids, got dtype {e.dtype}")
        e = e.astype(np.intp, copy=False)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edges must be (E, 2) pairs, got shape {e.shape}")
        lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
        loops = np.flatnonzero(lo == hi)
        if loops.size:
            raise ValueError(f"self-loop on node {lo[loops[0]]}")
        bad = np.flatnonzero((lo < 0) | (hi >= self.n))
        if bad.size:
            raise ValueError(f"edge ({lo[bad[0]]},{hi[bad[0]]}) out of range for n={self.n}")
        keys = np.sort(lo * self.n + hi)  # not np.unique: it hashes (numpy >= 2.3), far slower
        e = np.column_stack(np.divmod(keys[np.diff(keys, prepend=-1) != 0], self.n))
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _csr(self) -> Adjacency:
        """Symmetric adjacency, from both directions' keys in sorted order."""
        i, j = self.edges.T
        rows, cols = np.divmod(np.sort(np.concatenate([i * self.n + j, j * self.n + i])), self.n)
        return Adjacency(np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=self.n))]), cols)

    @cached_property
    def _hops(self) -> np.ndarray:
        return _bfs_hops(self)

    def degrees(self) -> np.ndarray:
        return np.bincount(self._csr.indices, minlength=self.n)


BFS_BLOCK = 512  # sources per pass of the multi-source BFS, one bit each


def _bfs_hops(g: EdgeGraph, sources=None) -> np.ndarray:
    """Read-only hop counts (smallest signed type holding -n) from ``sources``
    (every node if None) to every node, one row per source; -1 = unreachable.
    Multi-source BFS (Then et al., VLDB 2014): a node's count is the number
    of levels at which its bit was unseen, kept in bit-sliced counter planes."""
    src = np.arange(g.n) if sources is None else np.asarray(sources, dtype=np.intp)
    indptr, indices = g._csr.indptr, g._csr.indices
    # reduceat gives an empty segment its first element, not 0: skip isolated nodes
    live = np.flatnonzero(np.diff(indptr))
    hops = np.empty((src.size, g.n), dtype=np.min_scalar_type(-g.n))
    for lo in range(0, src.size, BFS_BLOCK):
        block = src[lo:lo + BFS_BLOCK]
        k = np.arange(block.size)
        seen = np.zeros((g.n, -(-block.size // 64)), dtype=np.uint64)
        # .at, because a source may be given twice
        np.bitwise_or.at(seen, (block, k >> 6), np.uint64(1) << k.astype(np.uint64) % 64)
        front, planes = seen, []
        while front.any():
            carry = ~seen  # ripple-add 1 to the counter of every unseen bit
            for plane in planes:
                plane ^= carry
                carry &= ~plane
            if carry.any():
                planes.append(carry)
            reached = np.zeros_like(seen)
            reached[live] = np.bitwise_or.reduceat(np.take(front, indices, axis=0), indptr[live], axis=0)
            front = reached & ~seen
            seen = seen | front
        bits = lambda w: np.unpackbits(w.astype("<u8", copy=False).view(np.uint8), axis=1,
                                       bitorder="little")[:, :block.size]
        count = sum(bits(plane).astype(np.int32) << e for e, plane in enumerate(planes))
        hops[lo:lo + block.size] = np.where(bits(seen) == 1, count, -1).T
    hops.setflags(write=False)
    return hops


def _pairs_within(dep: Deployment, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j), i < j, with d_ij <= r, and their lengths. A cell list
    proposes each pair once: a node meets the later nodes of its cell and
    those of 4 neighbour cells. A cell's side is r·(1 + 1e-9), so rounding
    cannot put a pair of length r two cells apart, and at least 2⁻²⁰ of the
    region, for small int64 keys and r = 0. pair_distances decides."""
    side = max(r * (1 + 1e-9), max(dep.region.width, dep.region.height) * 2.0 ** -20)
    cx, cy = (dep.positions // side).astype(np.int64).T
    rows = int(cy.max()) + 2  # row rows-1 is always empty, so no stencil key wraps onto a node
    cell = cx * rows + cy
    order = np.argsort(cell, kind="stable")
    key = cell[order]
    # candidate range [lo, hi) in sorted order, per node and stencil cell
    stencil = (1, rows - 1, rows, rows + 1)  # (0, 1), (1, -1), (1, 0), (1, 1)
    lo = np.concatenate([np.arange(1, dep.n + 1)] + [np.searchsorted(key, key + o) for o in stencil])
    count = np.concatenate([np.searchsorted(key, key + o, "right") for o in (0,) + stencil]) - lo
    a = np.repeat(np.tile(np.arange(dep.n), 5), count)
    b = np.arange(a.size) + np.repeat(lo - (np.cumsum(count) - count), count)
    i, j = order[a], order[b]
    d = pair_distances(dep, i, j)
    keep = d <= r
    return np.column_stack((np.minimum(i, j), np.maximum(i, j)))[keep], d[keep]


def build_gg(dep: Deployment, r: float) -> EdgeGraph:
    """Geometric graph of radius r (closed ball)."""
    if not (r >= 0):  # written so that NaN fails
        raise ValueError(f"radius must be >= 0, got {r}")
    return EdgeGraph(dep.n, _pairs_within(dep, r)[0], radius=float(r))


def _component_labels(g: EdgeGraph) -> np.ndarray:
    """Each node's component, labelled by its lowest node id: each round
    hooks the label of every edge end to the smaller of the two labels,
    then jumps pointers until each label is its own label."""
    label = np.arange(g.n)
    i, j = g.edges.T
    while not np.array_equal(li := label[i], lj := label[j]):
        np.minimum.at(label, li, lj)
        np.minimum.at(label, lj, li)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    return label


def is_connected(g: EdgeGraph) -> bool:
    return not _component_labels(g).any()


def giant_component(g: EdgeGraph) -> np.ndarray:
    """Ascending ids of the largest connected component; of equally large
    ones, the component holding the lowest node id."""
    # labels are lowest ids, and argmax returns the first maximum
    labels = _component_labels(g)
    return np.flatnonzero(labels == np.bincount(labels).argmax())


def critical_radius(dep: Deployment) -> tuple[float, EdgeGraph]:
    """Smallest pairwise distance whose geometric graph is connected.

    That is the longest edge of a minimum spanning tree, grown here by
    dense Prim's algorithm: ``near`` holds each outside node's distance
    to the tree, and nodes already in it are kept at infinity. The
    returned graph is the full geometric graph at that radius, so exact
    ties keep every edge of length r.
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
    return r_crit, build_gg(dep, r_crit)


def degree1_radius(dep: Deployment) -> tuple[float, EdgeGraph]:
    """Largest nearest-neighbour distance and its geometric graph.

    The returned graph has minimum degree >= 1 but need not be connected.
    The cell list's pairs within r, with r doubled from the mean spacing
    until every node has one, hold each node's nearest neighbour.
    """
    r, near = math.sqrt(dep.region.area / dep.n) / 2, np.full(dep.n, np.inf)
    while np.isinf(near).any():
        r *= 2
        pairs, d = _pairs_within(dep, r)
        np.minimum.at(near, pairs.ravel(), np.repeat(d, 2))
    r1 = float(near.max())
    return r1, EdgeGraph(dep.n, pairs[d <= r1], radius=r1)


def hop_distances(g: EdgeGraph, sources) -> np.ndarray:
    """Hop counts from each source, in the given order, as a (k, n) int
    array; -1 = unreachable. A source may repeat; a float id or a boolean
    mask is rejected, not read as ids."""
    sources = np.asarray(sources)
    if sources.ndim != 1 or sources.size and not np.issubdtype(sources.dtype, np.integer):
        raise ValueError(f"sources must be a 1-D sequence of integer node ids, got {sources.dtype} "
                         f"of shape {sources.shape}")
    sources = sources.astype(np.intp, copy=False)
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
    ids = subset_ids(ids, g.n)
    return EdgeGraph(ids.size, remap_pairs(g.edges, ids, g.n)[0], radius=g.radius)


def save_graph(g: EdgeGraph, prefix) -> tuple[Path, Path]:
    """Write <prefix>.edges.csv (``i,j`` rows) and <prefix>.graph.json."""
    prefix = Path(prefix)
    csv_path = prefix.with_name(prefix.name + ".edges.csv")
    hdr_path = prefix.with_name(prefix.name + ".graph.json")
    save_csv(csv_path, ["i", "j"], g.edges[:, 0], g.edges[:, 1])
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
