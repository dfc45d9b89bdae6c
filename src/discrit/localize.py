"""Hop-count-ratio localization via Apollonius curves.

A node's hop distances to two beacons approximate its Euclidean
distance ratio; each beacon pair therefore constrains the node to an
Apollonius circle (a line for ratio 1). With four or more beacons the
least-squares intersection of those curves estimates the position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Deployment, check_count, interior_nodes, save_csv
from .graphs import EdgeGraph, hop_distances, is_connected


@dataclass(frozen=True, eq=False)
class BeaconSet:
    """Beacon node ids with their known coordinates."""

    ids: tuple
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        ids = tuple(check_count("beacon id", i, 0) for i in self.ids)
        if len(ids) < 4:
            raise ValueError(f"need at least 4 beacons, got {len(ids)}")
        if coords.shape != (len(ids), 2) or not np.isfinite(coords).all():
            raise ValueError("coords must be a finite (n_beacons, 2) array")
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


MAX_SOLVER_ITERATIONS = 80


def _residuals(point, foci_i, foci_j, norm, r2):
    # |p - bi|^2 - r^2 |p - bj|^2 over the last (pair) axis, evaluated in
    # factored form for numerical stability; algebraically identical to the
    # expanded curve coefficients. Normalised by (1 + r^2) per pair.
    di = point[..., None, :] - foci_i
    dj = point[..., None, :] - foci_j
    return ((di * di).sum(axis=-1) - r2 * (dj * dj).sum(axis=-1)) / norm


def _solve(beacons: BeaconSet, pairs, ratios):
    """Gauss-Newton fits of V ratio vectors over the given beacon pairs.

    ratios is (V, len(pairs)). The five starts of every vector run as
    one (5V, 2) array of lanes, each with its own step, backtracking and
    stop, so no lane's result depends on the others. Returns the point
    (V, 2), objective (V,) and converged flag (V,) of each best start.
    """
    foci_i, foci_j = (beacons.coords[list(side)] for side in zip(*pairs))
    spread = float(max(np.ptp(beacons.coords[:, 0]), np.ptp(beacons.coords[:, 1]), 1.0))
    offsets = np.array([(0, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=np.float64)
    starts = beacons.coords.mean(axis=0) + offsets * (spread / 4)
    r2 = np.repeat(np.square(np.asarray(ratios, dtype=np.float64)), len(starts), axis=0)
    norm = 1.0 + r2
    point = np.tile(starts, (len(r2) // len(starts), 1))
    obj = (_residuals(point, foci_i, foci_j, norm, r2) ** 2).sum(axis=-1)
    converged = np.zeros(len(point), dtype=bool)
    live = np.arange(len(point))
    for _ in range(MAX_SOLVER_ITERATIONS):
        if not live.size:
            break
        p, lr2, lnorm = point[live], r2[live], norm[live]
        f = _residuals(p, foci_i, foci_j, lnorm, lr2)
        # exact Jacobian 2((p - bi) - r^2 (p - bj)) / (1 + r^2); pinv takes
        # lstsq's min-norm step with lstsq's singular-value cut-off
        jac = 2 * ((p[:, None, :] - foci_i) - lr2[..., None] * (p[:, None, :] - foci_j)) / lnorm[..., None]
        pinv = np.linalg.pinv(jac, rcond=max(len(pairs), 2) * np.finfo(np.float64).eps)
        delta = -(pinv * f[:, None, :]).sum(axis=-1)
        trial = p + delta
        trial_obj = (_residuals(trial, foci_i, foci_j, lnorm, lr2) ** 2).sum(axis=-1)
        for _ in range(20):
            worse = np.flatnonzero(trial_obj > obj[live])
            if not worse.size:
                break
            delta[worse] = delta[worse] / 2
            trial[worse] = p[worse] + delta[worse]
            trial_obj[worse] = (_residuals(trial[worse], foci_i, foci_j,
                                           lnorm[worse], lr2[worse]) ** 2).sum(axis=-1)
        point[live], obj[live] = trial, trial_obj
        done = np.hypot(delta[:, 0], delta[:, 1]) <= 1e-12 * spread
        converged[live[done]] = True
        live = live[~done]
    # the first start with the lowest objective, per vector
    best = obj.reshape(-1, len(starts)).argmin(axis=1) + np.arange(0, len(point), len(starts))
    return point[best], obj[best], converged[best]


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


def error_pattern(dep: Deployment, beacons: BeaconSet, g: EdgeGraph,
                  margin: float) -> ErrorPattern:
    """Localize every non-beacon node of a connected graph.

    Nodes closer than ``margin`` meters to the region boundary are
    flagged as edge-zone; their errors are typically larger. A node
    whose descent stalls keeps the best iterate and is flagged
    unconverged.
    """
    if g.n != dep.n:
        raise ValueError(f"graph has {g.n} nodes, deployment has {dep.n}")
    if not is_connected(g):
        raise ValueError("graph must be connected for hop ratios")
    interior = np.zeros(dep.n, dtype=bool)
    interior[interior_nodes(dep, margin)] = True
    nodes = np.setdiff1d(np.arange(dep.n), beacons.ids)
    hops = hop_distances(g, beacons.ids)[:, nodes]
    pairs = beacons.pairs()
    pi, pj = np.array(pairs).T
    # Many nodes share a ratio vector; the distinct ones are solved in one batch.
    vectors, which = np.unique((hops[pi] / hops[pj]).T, axis=0, return_inverse=True)
    points, _, converged = _solve(beacons, pairs, vectors)
    records = []
    for s, v in zip(nodes.tolist(), which.tolist()):
        x, y = points[v].tolist()
        xt, yt = dep.positions[s]
        records.append(NodeEstimate(
            node=s, x_true=float(xt), y_true=float(yt), x_est=x, y_est=y,
            error=math.hypot(x - xt, y - yt),
            interior=bool(interior[s]), converged=bool(converged[v]),
        ))
    errors = np.array([r.error for r in records])
    interior_errors = np.array([r.error for r in records if r.interior])
    return ErrorPattern(
        records=records,
        mean_error=float(errors.mean()),
        interior_mean_error=float(interior_errors.mean()) if interior_errors.size else math.nan,
    )


def save_error_pattern_csv(pattern: ErrorPattern, path) -> None:
    save_csv(path, ["node", "x_true", "y_true", "x_est", "y_est", "err_m"],
             *zip(*((r.node, r.x_true, r.y_true, r.x_est, r.y_est, r.error) for r in pattern.records)))
