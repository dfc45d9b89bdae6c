"""Node deployments and Euclidean primitives on a rectangular region.

All coordinates are double-precision meters. Every generator is a pure
function of its arguments including the seed, so repeated calls are
bit-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.random  # numpy loads it on first use; every run draws, so load it with the program

DEPLOYMENT_KINDS = ("uniform-iid", "randomised-lattice", "grid")
DISTANCE_BLOCK_ROWS = 32  # rows of distance_matrix filled per pair_distances call


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangular deployment region (meters)."""

    width: float = 1000.0
    height: float = 1000.0

    def __post_init__(self):
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError(f"region sides must be positive and finite, got {self.width}x{self.height}")

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True, eq=False)
class Deployment:
    """Node positions plus the metadata needed to regenerate them.

    ``positions`` is an (n, 2) read-only float64 array. ``kind`` and
    ``seed`` record how the parent deployment was drawn; a ``subset``
    keeps them for provenance.
    """

    positions: np.ndarray
    kind: str
    region: Region
    seed: int

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.positions, dtype=np.float64))
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must be (n, 2), got shape {pos.shape}")
        if pos.shape[0] < 2:
            raise ValueError(f"a deployment needs at least 2 nodes, got {pos.shape[0]}")
        if self.kind not in DEPLOYMENT_KINDS:
            raise ValueError(f"unknown deployment kind {self.kind!r}")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        if np.any(pos < 0) or np.any(pos > (self.region.width, self.region.height)):
            raise ValueError("positions must lie inside the region (inclusive)")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def subset(self, ids) -> "Deployment":
        """Sub-deployment over the given node ids (re-indexed 0..k-1)."""
        ids = subset_ids(ids, self.n)
        return Deployment(self.positions[ids].copy(), self.kind, self.region, self.seed)


def subset_ids(ids, n: int) -> np.ndarray:
    """The node ids of a subset of 0..n-1 in ascending order; raises
    ValueError unless the ids are integers (a float id or a boolean mask
    is not read as ids), or on an id out of range or given twice."""
    ids = np.asarray(ids)
    if ids.ndim != 1 or ids.size and not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"subset ids must be a 1-D sequence of integers, got dtype {ids.dtype}")
    ids = np.sort(ids.astype(np.intp))
    if ids.size and (ids[0] < 0 or ids[-1] >= n):
        raise ValueError(f"subset ids out of range for n={n}")
    dup = np.flatnonzero(ids[1:] == ids[:-1])
    if dup.size:
        raise ValueError(f"subset id {ids[dup[0]]} given twice")
    return ids


def remap_pairs(pairs: np.ndarray, ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``pairs`` inside the sorted ``ids``, renumbered by place (so still sorted), and their mask."""
    remap = np.full(n, -1, dtype=np.intp)
    remap[ids] = np.arange(ids.size)
    keep = (remap[pairs] >= 0).all(axis=1)
    return remap[pairs[keep]], keep


def check_count(name: str, value, minimum: int = 1) -> int:
    """value as an int. Raises ValueError unless it is an integer >= minimum:
    a numpy integer counts, a bool or a float does not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_deployment(kind: str, n: int) -> None:
    """Raise ValueError unless generate_deployment can draw n nodes of this kind."""
    check_count("n", n, 2)
    if kind not in DEPLOYMENT_KINDS:
        raise ValueError(f"unknown deployment kind {kind!r}")
    if kind == "grid" and math.isqrt(n) ** 2 != n:
        raise ValueError(f"grid deployment needs a perfect-square node count, got {n}")


def generate_deployment(kind: str, n: int, region: Region, seed: int) -> Deployment:
    """Draw a deployment of ``n`` nodes.

    uniform-iid draws each coordinate independently uniform over the
    region. randomised-lattice splits the region into n equal-area cells
    (floor(sqrt(n)) rows, surplus cells dropped row-major) and places one
    node uniformly per cell. grid places nodes at the centers of a
    sqrt(n) x sqrt(n) cell grid.
    """
    check_deployment(kind, n)
    w, h = region.width, region.height
    rng = np.random.default_rng(seed)

    if kind == "uniform-iid":
        pos = rng.random((n, 2)) * np.array([w, h])
    elif kind == "randomised-lattice":
        rows = math.isqrt(n)
        cols = -(-n // rows)  # ceil
        cw, ch = w / cols, h / rows
        idx = np.arange(n)
        row, col = np.divmod(idx, cols)
        u = rng.random((n, 2))
        pos = np.column_stack([(col + u[:, 0]) * cw, (row + u[:, 1]) * ch])
    else:  # grid
        k = math.isqrt(n)
        idx = np.arange(n)
        row, col = np.divmod(idx, k)
        pos = np.column_stack([(col + 0.5) * (w / k), (row + 0.5) * (h / k)])
    return Deployment(pos, kind, region, seed)


def distance_matrix(dep: Deployment) -> np.ndarray:
    """Full (n, n) Euclidean distance matrix.

    Each entry is sqrt(dx*dx + dy*dy), evaluated elementwise, so a pair
    gets the same bits in every matrix that holds it and from any scalar
    evaluation of that formula (ties matter when a radius equals a
    pairwise distance exactly). ``pair_distances`` fills it in blocks of
    rows, so no n x n temporary is built next to it.
    """
    ids, d = np.arange(dep.n), np.empty((dep.n, dep.n))
    for lo in range(0, dep.n, DISTANCE_BLOCK_ROWS):
        d[lo:lo + DISTANCE_BLOCK_ROWS] = pair_distances(dep, ids[lo:lo + DISTANCE_BLOCK_ROWS, None], ids)
    return d


def pair_distances(dep: Deployment, i, j) -> np.ndarray:
    """Distances between nodes i and j (broadcast together), bit-equal
    to ``distance_matrix(dep)[i, j]`` without building the matrix."""
    x, y = dep.positions.T
    dx, dy = x[i] - x[j], y[i] - y[j]
    dx *= dx  # squared and summed in place: no temporaries beyond dx and dy
    dy *= dy
    return np.sqrt(np.add(dx, dy, out=dx), out=dx)


def interior_nodes(dep: Deployment, margin: float) -> np.ndarray:
    """Ids of nodes at distance >= margin from every region boundary."""
    w, h = dep.region.width, dep.region.height
    if not (0 <= margin < min(w, h) / 2):
        raise ValueError(f"margin must satisfy 0 <= margin < {min(w, h) / 2}, got {margin}")
    pos = dep.positions
    return np.flatnonzero(((pos >= margin) & (pos <= (w - margin, h - margin))).all(axis=1))


def save_csv(path, header, *columns) -> None:
    """Write a ``header`` row, then one row per index of the equal-length
    ``columns``.

    Every CSV artifact is written here. Columns go through ``tolist()``,
    so the csv module writes floats as their repr (lossless), ints as
    text and None as an empty field.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(np.asarray(c).tolist() for c in columns), strict=True))


def save_positions_csv(dep: Deployment, path) -> None:
    """Write positions as ``id,x,y`` rows."""
    save_csv(path, ["id", "x", "y"], np.arange(dep.n), dep.positions[:, 0], dep.positions[:, 1])


def deployment_to_json(dep: Deployment) -> dict:
    return {
        "kind": dep.kind,
        "seed": int(dep.seed),
        "region": {"width": dep.region.width, "height": dep.region.height},
        "positions": [[float(x), float(y)] for x, y in dep.positions],
    }


def save_deployment_json(dep: Deployment, path) -> None:
    Path(path).write_text(json.dumps(deployment_to_json(dep), indent=1) + "\n")
