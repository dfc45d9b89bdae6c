"""Hop-count-ratio localization via Apollonius curves.

A node's hop distances to two beacons approximate its Euclidean
distance ratio; each beacon pair therefore constrains the node to an
Apollonius circle (a line for ratio 1). With four or more beacons the
least-squares intersection of those curves estimates the position.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Deployment, interior_nodes
from .graphs import EdgeGraph, HopTable, UNREACHABLE, hop_distances, is_connected


@dataclass(frozen=True, eq=False)
class BeaconSet:
    """Beacon node ids with their known coordinates."""

    ids: tuple
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        ids = tuple(int(i) for i in self.ids)
        if len(ids) < 4:
            raise ValueError(f"need at least 4 beacons, got {len(ids)}")
        if coords.shape != (len(ids), 2):
            raise ValueError("coords must be (n_beacons, 2)")
        if len(set(ids)) != len(ids):
            raise ValueError("beacon ids must be distinct")
        if len({(x, y) for x, y in coords.tolist()}) != len(ids):
            raise ValueError("beacon positions must be distinct")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "coords", coords)

    @property
    def n_beacons(self) -> int:
        return len(self.ids)

    def pairs(self):
        k = self.n_beacons
        return [(i, j) for i in range(k) for j in range(i + 1, k)]


def corner_beacons(dep: Deployment) -> BeaconSet:
    """The four nodes nearest to the region corners."""
    w, h = dep.region.width, dep.region.height
    corners = np.array([(0.0, 0.0), (w, 0.0), (0.0, h), (w, h)])
    ids = []
    for c in corners:
        diff = dep.positions - c
        ids.append(int(np.argmin(diff[:, 0] ** 2 + diff[:, 1] ** 2)))
    if len(set(ids)) != 4:
        raise ValueError("corner beacons collide; deployment too sparse")
    return BeaconSet(tuple(ids), dep.positions[ids].copy())


@dataclass(frozen=True)
class ApolloniusCurve:
    """Coefficients of a (x^2 + y^2) + bx x + by y + c = 0.

    The locus of points whose distances to two foci have a fixed ratio;
    degenerates to the perpendicular bisector (a = 0) at ratio 1.
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


def hop_ratio(h: HopTable, s: int, bi: int, bj: int) -> float:
    """Hop-distance ratio h(s, bi) / h(s, bj)."""
    hi = h.get(s, bi) if s != bi else 0
    hj = h.get(s, bj) if s != bj else 0
    if hi is UNREACHABLE or hj is UNREACHABLE:
        raise ValueError(f"node {s} is disconnected from a beacon")
    if hj == 0:
        raise ValueError(f"node {s} coincides with beacon {bj}: zero hop denominator")
    if hi == 0:
        raise ValueError(f"node {s} coincides with beacon {bi}: zero hop ratio")
    return hi / hj


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


class PositionSolverError(RuntimeError):
    """Least-squares descent did not converge; carries the best iterate."""

    def __init__(self, message, best, objective):
        super().__init__(message)
        self.best = best
        self.objective = objective


MAX_SOLVER_ITERATIONS = 80


def _residuals(point, foci_i, foci_j, norm, r2):
    # |p - bi|^2 - r^2 |p - bj|^2, evaluated in factored form for
    # numerical stability; algebraically identical to the expanded
    # curve coefficients. Normalised by (1 + r^2) per pair.
    di = point - foci_i
    dj = point - foci_j
    return ((di * di).sum(axis=1) - r2 * (dj * dj).sum(axis=1)) / norm


def _gauss_newton(start, foci_i, foci_j, norm, r2, scale):
    point = np.array(start, dtype=np.float64)
    step = 1e-6 * scale
    obj = float((_residuals(point, foci_i, foci_j, norm, r2) ** 2).sum())
    for _ in range(MAX_SOLVER_ITERATIONS):
        f = _residuals(point, foci_i, foci_j, norm, r2)
        jac = np.empty((f.size, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = step
            jac[:, k] = (_residuals(point + e, foci_i, foci_j, norm, r2)
                         - _residuals(point - e, foci_i, foci_j, norm, r2)) / (2 * step)
        delta, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        trial = point + delta
        trial_obj = float((_residuals(trial, foci_i, foci_j, norm, r2) ** 2).sum())
        backtracks = 0
        while trial_obj > obj and backtracks < 20:
            delta = delta / 2
            trial = point + delta
            trial_obj = float((_residuals(trial, foci_i, foci_j, norm, r2) ** 2).sum())
            backtracks += 1
        moved = float(np.hypot(*delta))
        point, obj = trial, trial_obj
        if moved <= 1e-12 * scale:
            return point, obj, True
    return point, obj, False


def estimate_position(beacons: BeaconSet, ratios) -> tuple[float, float, float]:
    """Least-squares position from beacon-pair hop ratios.

    ratios maps beacon-index pairs (i, j), i < j, to hop ratios
    h(s, B_i) / h(s, B_j). Minimises the sum of squared Apollonius
    residuals, each normalised by (1 + r^2), by Gauss-Newton descent
    with a numeric Jacobian from the beacon centroid plus four quadrant
    offsets. Raises PositionSolverError (carrying the best iterate) if
    no start converges within MAX_SOLVER_ITERATIONS iterations.
    """
    pairs = sorted(ratios)
    if not pairs:
        raise ValueError("no beacon-pair ratios given")
    k = beacons.n_beacons
    for i, j in pairs:
        if not (0 <= i < j < k):
            raise ValueError(f"bad beacon pair ({i}, {j}) for {k} beacons")
        if not (ratios[(i, j)] > 0 and math.isfinite(ratios[(i, j)])):
            raise ValueError(f"ratio for pair ({i}, {j}) must be finite and > 0")
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
        point, obj, ok = _gauss_newton(start, foci_i, foci_j, norm, r2, spread)
        if best is None or obj < best[1]:
            best = (point, obj, ok)
    point, obj, ok = best
    if not ok:
        raise PositionSolverError(
            f"no start converged within {MAX_SOLVER_ITERATIONS} iterations",
            best=(float(point[0]), float(point[1])), objective=obj)
    return float(point[0]), float(point[1]), obj


@dataclass
class NodeEstimate:
    node: int
    x_true: float
    y_true: float
    x_est: float
    y_est: float
    error: float
    interior: bool
    converged: bool


@dataclass
class ErrorPattern:
    records: list
    mean_error: float
    interior_mean_error: float

    def errors(self) -> np.ndarray:
        return np.array([r.error for r in self.records])


def error_pattern(dep: Deployment, beacons: BeaconSet, g: EdgeGraph,
                  margin: float | None = None) -> ErrorPattern:
    """Localize every non-beacon node of a connected graph.

    Nodes outside the interior margin (default a tenth of the smaller
    region side) are flagged as edge-zone; their errors are typically
    larger. A node whose descent stalls keeps the best iterate and is
    flagged unconverged.
    """
    if not is_connected(g):
        raise ValueError("graph must be connected for hop ratios")
    if margin is None:
        margin = 0.1 * min(dep.region.width, dep.region.height)
    interior = set(interior_nodes(dep, margin).tolist())
    hops = hop_distances(g, beacons.ids)
    rows = {b: hops.row(b) for b in beacons.ids}
    pairs = beacons.pairs()
    records = []
    solved = {}  # sorted ratio items -> ((x, y), converged); many nodes share a vector
    for s in range(dep.n):
        if s in beacons.ids:
            continue
        ratios = {}
        for i, j in pairs:
            hi = rows[beacons.ids[i]][s]
            hj = rows[beacons.ids[j]][s]
            ratios[(i, j)] = hi / hj
        key = tuple(sorted(ratios.items()))
        if key not in solved:
            try:
                solved[key] = estimate_position(beacons, ratios)[:2], True
            except PositionSolverError as exc:
                solved[key] = exc.best, False
        (x, y), converged = solved[key]
        xt, yt = dep.positions[s]
        records.append(NodeEstimate(
            node=s, x_true=float(xt), y_true=float(yt), x_est=x, y_est=y,
            error=math.hypot(x - xt, y - yt),
            interior=s in interior, converged=converged,
        ))
    errors = np.array([r.error for r in records])
    interior_errors = np.array([r.error for r in records if r.interior])
    return ErrorPattern(
        records=records,
        mean_error=float(errors.mean()),
        interior_mean_error=float(interior_errors.mean()) if interior_errors.size else math.nan,
    )


def save_error_pattern_csv(pattern: ErrorPattern, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "x_true", "y_true", "x_est", "y_est", "err_m"])
        for r in pattern.records:
            writer.writerow([r.node, repr(r.x_true), repr(r.y_true),
                             repr(r.x_est), repr(r.y_est), repr(r.error)])
