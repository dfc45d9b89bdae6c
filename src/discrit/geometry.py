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

DEPLOYMENT_KINDS = ("uniform-iid", "randomised-lattice", "grid")


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangular deployment region (meters)."""

    width: float = 1000.0
    height: float = 1000.0

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ValueError(f"region sides must be positive, got {self.width}x{self.height}")

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
        w, h = self.region.width, self.region.height
        x, y = pos[:, 0], pos[:, 1]
        if np.any(x < 0) or np.any(x > w) or np.any(y < 0) or np.any(y > h):
            raise ValueError("positions must lie inside the region (inclusive)")
        if self.kind == "grid":
            k = math.isqrt(pos.shape[0])
            if k * k != pos.shape[0]:
                raise ValueError(f"grid deployment needs a perfect-square node count, got {pos.shape[0]}")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def subset(self, ids) -> "Deployment":
        """Sub-deployment over the given node ids (re-indexed 0..k-1)."""
        ids = np.asarray(sorted(int(i) for i in ids), dtype=np.intp)
        if ids.size and (ids[0] < 0 or ids[-1] >= self.n):
            raise ValueError("subset ids out of range")
        return Deployment(self.positions[ids].copy(), self.kind, self.region, self.seed)


def generate_deployment(kind: str, n: int, region: Region, seed: int) -> Deployment:
    """Draw a deployment of ``n`` nodes.

    uniform-iid draws each coordinate independently uniform over the
    region. randomised-lattice splits the region into n equal-area cells
    (floor(sqrt(n)) rows, surplus cells dropped row-major) and places one
    node uniformly per cell. grid places nodes at the centers of a
    sqrt(n) x sqrt(n) cell grid.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if kind not in DEPLOYMENT_KINDS:
        raise ValueError(f"unknown deployment kind {kind!r}")
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
        if k * k != n:
            raise ValueError(f"grid deployment needs a perfect-square node count, got {n}")
        idx = np.arange(n)
        row, col = np.divmod(idx, k)
        pos = np.column_stack([(col + 0.5) * (w / k), (row + 0.5) * (h / k)])
    return Deployment(pos, kind, region, seed)


def distance_matrix(dep: Deployment) -> np.ndarray:
    """Full (n, n) Euclidean distance matrix.

    Each entry is sqrt(dx*dx + dy*dy), evaluated elementwise, so a pair
    gets the same bits in every matrix that holds it and from any scalar
    evaluation of that formula (ties matter when a radius equals a
    pairwise distance exactly).
    """
    x = dep.positions[:, 0]
    y = dep.positions[:, 1]
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    return np.sqrt(dx * dx + dy * dy)


def interior_nodes(dep: Deployment, margin: float) -> np.ndarray:
    """Ids of nodes at distance >= margin from every region boundary."""
    w, h = dep.region.width, dep.region.height
    if not (0 <= margin < min(w, h) / 2):
        raise ValueError(f"margin must satisfy 0 <= margin < {min(w, h) / 2}, got {margin}")
    x, y = dep.positions[:, 0], dep.positions[:, 1]
    mask = (x >= margin) & (x <= w - margin) & (y >= margin) & (y <= h - margin)
    return np.flatnonzero(mask)


def save_positions_csv(dep: Deployment, path) -> None:
    """Write positions as ``id,x,y`` rows (floats via repr, lossless)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "x", "y"])
        for i, (x, y) in enumerate(dep.positions):
            writer.writerow([i, repr(float(x)), repr(float(y))])


def load_positions_csv(path) -> np.ndarray:
    """Read an ``id,x,y`` file back into an (n, 2) array ordered by id."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append((int(rec["id"]), float(rec["x"]), float(rec["y"])))
    rows.sort()
    return np.array([(x, y) for _, x, y in rows], dtype=np.float64)


def deployment_to_json(dep: Deployment) -> dict:
    return {
        "kind": dep.kind,
        "seed": int(dep.seed),
        "region": {"width": dep.region.width, "height": dep.region.height},
        "positions": [[float(x), float(y)] for x, y in dep.positions],
    }


def save_deployment_json(dep: Deployment, path) -> None:
    Path(path).write_text(json.dumps(deployment_to_json(dep), indent=1) + "\n")
