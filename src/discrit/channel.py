"""Slotted-Aloha Hello broadcasting under the SINR physical model.

Each slot every node independently transmits with probability alpha and
listens otherwise. A transmission from i is decoded at a listening node
j iff the signal-to-interference-plus-noise ratio clears the threshold
beta, with power-law path loss and per-slot fading. Directed success
ratios C_ij / B_i estimate the per-link reception probabilities that the
weight-based protocol consumes.

Fading is either deterministic (coefficient 1, the reproducible default)
or rayleigh-power: an exponential with the given mean applied to the
received power. Fresh coefficients are drawn per slot and ordered pair.

Capture (Gupta & Kumar, IEEE Trans. IT 2000): with beta >= 1 and
sigma2 > 0 a decodable signal S has S (1 + beta) >= beta (sigma2 +
total), so S > total / 2. Only a listener's strongest transmitter can
hold that (tied ones hold at most half each), so it is the only one
simulate_hello tests. In floating point a second one could pass only if
beta were within rounding of 1 and sigma2 below that of the total.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .geometry import Deployment, distance_matrix

FADING_KINDS = ("deterministic", "rayleigh-power")


@dataclass(frozen=True)
class ChannelParams:
    """Physical-layer and Hello-protocol parameters.

    p_t is the transmit power at the reference distance (watts), eta the
    path-loss exponent, sigma2 the noise variance (watts), beta the SINR
    decoding threshold, alpha the per-slot transmit probability and
    slots the number of Hello slots to simulate.
    """

    p_t: float
    eta: float
    sigma2: float
    beta: float
    alpha: float
    fading: str = "deterministic"
    fading_mean: float = 1.0
    slots: int = 1000

    def __post_init__(self):
        if self.p_t <= 0:
            raise ValueError(f"p_t must be > 0, got {self.p_t}")
        if self.eta < 2:
            raise ValueError(f"eta must be >= 2, got {self.eta}")
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be > 0, got {self.sigma2}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not (0 <= self.alpha <= 1):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.fading not in FADING_KINDS:
            raise ValueError(f"unknown fading kind {self.fading!r}")
        if self.fading_mean <= 0:
            raise ValueError(f"fading_mean must be > 0, got {self.fading_mean}")
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")


# Pinned repo defaults for quantitative experiments at n=1000 in a
# 1000 m x 1000 m region: the reception probability transitions through
# its steep region around the largest nearest-neighbour distance scale.
DEFAULT_CHANNEL = ChannelParams(
    p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.10,
    fading="deterministic", fading_mean=1.0, slots=5000,
)


@dataclass(eq=False)
class LinkWeightTable:
    """Directed Hello statistics: counts c[i, j], broadcasts b[i], ratios p_hat.

    p_hat[i, j] = c[i, j] / b[i] is the estimated probability that a
    Hello of i is decoded at j; pairs never heard have weight 0.
    """

    c: np.ndarray
    b: np.ndarray
    p_hat: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.int64)
        b = np.asarray(self.b, dtype=np.int64)
        p = np.asarray(self.p_hat, dtype=np.float64)
        n = c.shape[0]
        if c.shape != (n, n) or b.shape != (n,) or p.shape != (n, n):
            raise ValueError("inconsistent table shapes")
        if np.any(np.diag(c) != 0):
            raise ValueError("self counts must be zero")
        if np.any(c < 0) or np.any(b < 0) or np.any(c > b[:, None]):
            raise ValueError("need 0 <= c[i, j] <= b[i]")
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("p_hat must lie in [0, 1]")
        self.c, self.b, self.p_hat = c, b, p

    @classmethod
    def from_counts(cls, c, b) -> "LinkWeightTable":
        c = np.asarray(c, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        with np.errstate(invalid="ignore"):
            p = np.where(b[:, None] > 0, c / np.maximum(b[:, None], 1), 0.0)
        return cls(c, b, p)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    def subset(self, ids) -> "LinkWeightTable":
        """Restriction to the given node ids, re-indexed by sorted order."""
        ids = np.asarray(sorted(int(i) for i in ids), dtype=np.intp)
        if ids.size and (ids[0] < 0 or ids[-1] >= self.n):
            raise ValueError("subset ids out of range")
        return LinkWeightTable.from_counts(self.c[np.ix_(ids, ids)], self.b[ids])


def _gain_matrix(dep: Deployment, params: ChannelParams) -> np.ndarray:
    d = distance_matrix(dep)
    np.fill_diagonal(d, np.inf)  # no self-reception, avoids 0**-eta
    return params.p_t * d ** -params.eta


def _slots(dep: Deployment, params: ChannelParams, seed: int):
    """Yield (tx, rx, sig, cols, total) per Hello slot: transmitter and
    listener ids, and faded powers sig, one row per transmitter, in which
    listener rx[m] is column cols[m] and hears total[m] in all (sig is None
    if nobody or everybody transmits). Per slot the draw order is: transmit
    indicators, then rayleigh-power coefficients per (tx, rx) pair."""
    if params.alpha == 0:
        raise ValueError("alpha = 0 broadcasts nothing")
    n = dep.n
    gain = _gain_matrix(dep, params)
    rng = np.random.default_rng(seed)
    for _ in range(params.slots):
        transmitting = rng.random(n) < params.alpha
        tx = np.flatnonzero(transmitting)
        rx = np.flatnonzero(~transmitting)
        if tx.size == 0 or rx.size == 0:
            yield tx, rx, None, None, None
            continue
        # Keep sig C-ordered (take, not sig[:, rx]): axis-0 sums add in tx order.
        sig, cols = gain[tx], rx
        if params.fading == "rayleigh-power":
            sig = sig.take(rx, axis=1)
            sig *= rng.exponential(params.fading_mean, size=sig.shape)
            cols = np.arange(rx.size)
        yield tx, rx, sig, cols, sig.sum(axis=0)[cols]


def simulate_hello(dep: Deployment, params: ChannelParams, seed: int) -> LinkWeightTable:
    """Run the Hello protocol for params.slots slots; deterministic under
    the seed. With beta >= 1 only each listener's strongest transmitter
    is tested (capture, see the module docstring), else every pair."""
    n = dep.n
    c = np.zeros((n, n), dtype=np.int64)
    b = np.zeros(n, dtype=np.int64)
    counts = c.reshape(-1)  # a view; decoded (tx, rx) pairs are unique per slot
    for tx, rx, sig, cols, total in _slots(dep, params, seed):
        b[tx] += 1
        if sig is None:
            continue
        need = params.beta * (params.sigma2 + total)
        if params.beta >= 1:
            j = np.flatnonzero(sig.max(axis=0)[cols] * (1.0 + params.beta) >= need)
            i = sig[:, cols[j]].argmax(axis=0)
        else:
            i, j = np.nonzero(sig[:, cols] * (1.0 + params.beta) >= need)
        counts[tx[i] * n + rx[j]] += 1
    return LinkWeightTable.from_counts(c, b)


class EmpiricalCDF:
    """Step-function CDF of a sample; F(x) = fraction of samples <= x."""

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=np.float64).ravel()
        if samples.size == 0:
            raise ValueError("empty sample")
        self.samples = np.sort(samples)

    def __call__(self, x):
        return np.searchsorted(self.samples, x, side="right") / self.samples.size


def predict_p(d: float, f_cdf, params: ChannelParams) -> float:
    """Reception probability at distance d from the total-power CDF.

    Integrates (1 - alpha) * F((1 + beta) h p_t / (beta d^eta) - sigma2)
    over the fading law; the deterministic law collapses to a single
    evaluation at h = 1.
    """
    if d <= 0:
        raise ValueError(f"distance must be > 0, got {d}")
    scale = (1.0 + params.beta) * params.p_t / (params.beta * d ** params.eta)
    if params.fading == "deterministic":
        return (1.0 - params.alpha) * float(f_cdf(scale - params.sigma2))
    nodes, weights = np.polynomial.legendre.leggauss(256)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    h = -params.fading_mean * np.log1p(-u)
    vals = np.array([f_cdf(scale * hv - params.sigma2) for hv in h], dtype=np.float64)
    return (1.0 - params.alpha) * float(np.dot(w, vals))


@dataclass
class PowerHistograms:
    """Normalised per-annulus histograms of total received power.

    Annulus 0 touches the boundary; the last annulus is the central
    square. All annuli share the bin grid: 200 bins of width
    max_power / 200 spanning [0, max observed power].
    """

    bin_edges: np.ndarray
    masses: list
    counts: list
    ring_width: float

    @property
    def annuli(self) -> int:
        return len(self.masses)


def square_annulus_index(dep: Deployment, annuli: int) -> np.ndarray:
    """Ring index per node: 0 = outermost ring, annuli-1 = central square."""
    w, h = dep.region.width, dep.region.height
    if w != h:
        raise ValueError("annulus partitioning needs a square region")
    ring_width = (w / 2) / annuli
    x, y = dep.positions[:, 0], dep.positions[:, 1]
    m = np.minimum(np.minimum(x, w - x), np.minimum(y, h - y))
    return np.minimum((m / ring_width).astype(np.int64), annuli - 1)


def received_power_histogram(dep: Deployment, params: ChannelParams, seed: int,
                             annuli: int) -> PowerHistograms:
    """Total received power per listening node, histogrammed by annulus.

    A sample is taken for each listening node in each slot with at least
    one transmitter, from the same slots as simulate_hello.
    """
    if annuli < 1:
        raise ValueError(f"annuli must be >= 1, got {annuli}")
    ring = square_annulus_index(dep, annuli)
    samples = [[] for _ in range(annuli)]
    for _, rx, sig, _, total in _slots(dep, params, seed):
        if sig is not None:
            rx_ring = ring[rx]
            for a, s in enumerate(samples):
                s.append(total[rx_ring == a])
    pooled = [np.concatenate(s) if s else np.empty(0) for s in samples]
    top = max((float(p.max()) for p in pooled if p.size), default=0.0)
    if top <= 0:
        raise ValueError("no power was received in any slot")
    edges = np.linspace(0.0, top, 201)
    masses = [np.histogram(p, bins=edges)[0] / p.size if p.size else np.zeros(200)
              for p in pooled]
    return PowerHistograms(bin_edges=edges, masses=masses, counts=[p.size for p in pooled],
                           ring_width=(dep.region.width / 2) / annuli)


def total_variation(p, q) -> float:
    """TV distance between two histograms on the same bin grid."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("histograms must share a bin grid")
    return 0.5 * float(np.abs(p - q).sum())


def homogeneity_check(dep: Deployment, r: float, eps: float,
                      grid_step: float) -> tuple[bool, float]:
    """Empirical density test on a grid over the r-interior of the region.

    Counts nodes within distance r of each grid point and compares the
    disc density N / (pi r^2) against the network density n / area. The
    returned worst ratio is the sampled density ratio (relative to the
    network density) farthest from 1; the check passes iff it lies
    within [1 - eps, 1 + eps].
    """
    if r <= 0:
        raise ValueError(f"r must be > 0, got {r}")
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if grid_step <= 0:
        raise ValueError(f"grid_step must be > 0, got {grid_step}")
    w, h = dep.region.width, dep.region.height
    if 2 * r > w or 2 * r > h:
        raise ValueError(f"interior is empty: 2r = {2 * r} exceeds a region side")
    xs = np.arange(r, w - r + grid_step * 1e-9, grid_step)
    ys = np.arange(r, h - r + grid_step * 1e-9, grid_step)
    pts = np.array([(x, y) for x in xs for y in ys])
    tree = cKDTree(dep.positions)
    counts = tree.query_ball_point(pts, r, return_length=True)
    density = counts / (math.pi * r * r)
    expected = dep.n / dep.region.area
    ratios = density / expected
    worst = float(ratios[np.argmax(np.abs(ratios - 1.0))])
    return abs(worst - 1.0) <= eps, worst


def save_link_weights(table: LinkWeightTable, prefix) -> tuple[Path, Path]:
    """Write <prefix>.weights.csv (``i,j,C,B,p_hat``; rows with C > 0) and
    <prefix>.weights.json carrying n and the full broadcast counts."""
    prefix = Path(prefix)
    csv_path = prefix.with_name(prefix.name + ".weights.csv")
    meta_path = prefix.with_name(prefix.name + ".weights.json")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "C", "B", "p_hat"])
        ii, jj = np.nonzero(table.c)
        for i, j in zip(ii.tolist(), jj.tolist()):
            writer.writerow([i, j, int(table.c[i, j]), int(table.b[i]),
                             repr(float(table.p_hat[i, j]))])
    meta_path.write_text(json.dumps({"n": table.n, "b": table.b.tolist()}) + "\n")
    return csv_path, meta_path


def load_link_weights(prefix) -> LinkWeightTable:
    prefix = Path(prefix)
    csv_path = prefix.with_name(prefix.name + ".weights.csv")
    meta_path = prefix.with_name(prefix.name + ".weights.json")
    meta = json.loads(meta_path.read_text())
    n = meta["n"]
    c = np.zeros((n, n), dtype=np.int64)
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            c[int(rec["i"]), int(rec["j"])] = int(rec["C"])
    return LinkWeightTable.from_counts(c, np.array(meta["b"], dtype=np.int64))


def save_power_histograms(hist: PowerHistograms, path) -> None:
    """Write ``annulus,bin_lo,bin_hi,freq`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["annulus", "bin_lo", "bin_hi", "freq"])
        for a, masses in enumerate(hist.masses):
            for k, mass in enumerate(masses):
                writer.writerow([a, repr(float(hist.bin_edges[k])),
                                 repr(float(hist.bin_edges[k + 1])), repr(float(mass))])
