"""Slotted-Aloha Hello broadcasting under the SINR physical model.

Each slot every node independently transmits with probability alpha and
listens otherwise. A transmission from i is decoded at a listening node
j iff the signal-to-interference-plus-noise ratio clears the threshold
beta, with power-law path loss and per-slot fading. Directed success
ratios C_ij / B_i estimate the per-link reception probabilities that the
weight-based protocol consumes, one LinkWeightTable row per heard pair.

Fading is either deterministic (coefficient 1, the reproducible default)
or rayleigh-power: an exponential with the given mean applied to the
received power. Fresh coefficients are drawn per slot and ordered pair.

Capture (Gupta & Kumar, IEEE Trans. IT 2000): with beta >= 1 and
sigma2 > 0 a decodable signal S has S (1 + beta) >= beta (sigma2 +
total), so S > total / 2. Only a listener's strongest transmitter can
hold that (tied ones hold at most half each), so it is the only one
simulate_hello tests. In floating point a second one could pass only if
beta were within rounding of 1 and sigma2 below that of the total.
As total >= S, also S >= beta sigma2; in floats (a sum is at least each
term, rounding is monotone) S >= beta sigma2 (1 - 8 (1 + beta) eps).

simulate_hello has two kernels with the same counts. Rayleigh-power
fading and beta < 1 run the slot loop, _slots, in two stages: a helper
thread draws slot k+1 (transmit indicators, then fading coefficients,
the seed's order) while the caller decodes slot k. Deterministic capture
runs HELLO_BLOCK_SLOTS slots at a time over the pairs above that bound:
one matrix product gives every listener's total, a rank table its
strongest candidate transmitter, and counts are kept per candidate.
Two summation orders of n nonnegative terms differ by at most about n
eps relative, so a decision that agrees at total (1 -+ HELLO_BAND n eps)
is the slot loop's too; the others are retaken with the slot loop's sum.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import Deployment, check_count, distance_matrix, remap_pairs, save_csv, subset_ids

FADING_KINDS = ("deterministic", "rayleigh-power")


@dataclass(frozen=True)
class ChannelParams:
    """Physical-layer and Hello-protocol parameters.

    p_t is the transmit power at the reference distance (watts), eta the
    path-loss exponent, sigma2 the noise variance (watts), beta the SINR
    decoding threshold, alpha the per-slot transmit probability and
    slots the number of Hello slots to simulate.

    The defaults are pinned for n=1000 in a 1000 m x 1000 m region: the
    reception probability transitions through its steep region around
    the largest nearest-neighbour distance scale.
    """

    p_t: float = 0.05
    eta: float = 4.0
    sigma2: float = 1e-10
    beta: float = 4.0
    alpha: float = 0.10
    fading: str = "deterministic"
    fading_mean: float = 1.0
    slots: int = 5000

    def __post_init__(self):
        for name in ("p_t", "sigma2", "beta", "fading_mean"):  # written so that NaN fails
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be > 0 and finite, got {getattr(self, name)}")
        if not (2 <= self.eta < math.inf):
            raise ValueError(f"eta must be >= 2 and finite, got {self.eta}")
        if not (0 < self.alpha <= 1):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.fading not in FADING_KINDS:
            raise ValueError(f"unknown fading kind {self.fading!r}")
        check_count("slots", self.slots)


@dataclass(frozen=True, eq=False)
class LinkWeightTable:
    """Directed Hello statistics, one row per heard pair (i, j), i != j.

    ``pairs`` is distinct and in row-major order. Row k has c[k], the count
    of i's Hellos decoded at j, and p_hat[k] = c[k] / b[i], the estimated
    probability that j decodes a Hello of i; b[i] counts i's broadcasts.
    """

    n: int
    pairs: np.ndarray
    c: np.ndarray
    b: np.ndarray
    p_hat: np.ndarray

    def __post_init__(self):
        ints = [np.asarray(a) for a in (self.pairs, self.c, self.b)]
        if any(a.size and not np.issubdtype(a.dtype, np.integer) for a in ints):  # a float or bool is not a count
            raise ValueError(f"pairs, c and b must be integers, got dtypes {[str(a.dtype) for a in ints]}")
        pairs, c, b = (a.astype(t, copy=False) for a, t in zip(ints, (np.intp, np.int64, np.int64)))
        p = np.asarray(self.p_hat, dtype=np.float64)
        if p.ndim != 1 or c.shape != p.shape or pairs.shape != p.shape + (2,) or b.shape != (self.n,):
            raise ValueError("inconsistent table shapes")
        i, j = pairs.T
        if np.any((i == j) | (np.minimum(i, j) < 0) | (np.maximum(i, j) >= self.n)):
            raise ValueError(f"a pair must join two distinct nodes of 0..{self.n - 1}")
        if np.any(np.diff(i * self.n + j) <= 0):
            raise ValueError("pairs must be distinct and in row-major order")
        if np.any(c < 0) or np.any(b < 0) or np.any(c > b[i]):
            raise ValueError("need 0 <= c <= b[i]")
        if not np.all((p > 0) & (p <= 1)):  # also rejects NaN
            raise ValueError("p_hat must lie in (0, 1]")
        for name, a in (("pairs", pairs), ("c", c), ("b", b), ("p_hat", p)):
            a.setflags(write=False)  # read-only, as the table is frozen
            object.__setattr__(self, name, a)

    @classmethod
    def from_counts(cls, c, b) -> "LinkWeightTable":
        """The rows of the nonzero counts c[i, j] of a dense (n, n) table."""
        c, b = np.asarray(c, dtype=np.int64), np.asarray(b, dtype=np.int64)
        i, j = np.nonzero(c)
        return cls(len(b), np.column_stack([i, j]), c[i, j], b, c[i, j] / b[i])

    def subset(self, ids) -> "LinkWeightTable":
        """Restriction to the given node ids, re-indexed by sorted order; rows keep c and p_hat."""
        ids = subset_ids(ids, self.n)
        pairs, keep = remap_pairs(self.pairs, ids, self.n)
        return LinkWeightTable(ids.size, pairs, self.c[keep], self.b[ids], self.p_hat[keep])


def _gain_matrix(dep: Deployment, params: ChannelParams) -> np.ndarray:
    d = distance_matrix(dep)
    np.fill_diagonal(d, np.inf)  # no self-reception, avoids 0**-eta
    d **= -params.eta  # in place: the same bits as p_t * d ** -eta, without a second matrix
    return np.multiply(d, params.p_t, out=d)


def _slot_draws(rng, n: int, params: ChannelParams, buf: np.ndarray):
    """One slot's draws in the seed's order: transmit indicators, then the
    rayleigh-power coefficients per (tx, rx) pair, written into buf."""
    transmitting = rng.random(n) < params.alpha
    tx, rx = np.flatnonzero(transmitting), np.flatnonzero(~transmitting)
    if params.fading != "rayleigh-power":
        return tx, rx, None
    h = rng.standard_exponential(out=buf[:tx.size * rx.size].reshape(tx.size, rx.size))
    h *= params.fading_mean  # the same bits as rng.exponential(fading_mean, h.shape)
    return tx, rx, h


def _slots(gain: np.ndarray, rng, params: ChannelParams):
    """Yield (tx, rx, sig, total) per Hello slot: transmitter and listener
    ids, the faded power sig[k, m] from tx[k] at rx[m], and the total[m]
    that rx[m] hears in all (sig and total are None if nobody or everybody
    transmits). A helper thread makes the draws (_slot_draws) into two
    scratch buffers in turn, and queues slot k+2's once the caller has
    applied slot k's; only it touches rng, slot after slot, so the stream
    is unchanged and slot k+1 is drawn while the caller decodes slot k."""
    n = gain.shape[0]
    bufs = [np.empty(n * n // 4) for _ in range(2)]  # tx.size * rx.size <= n^2 / 4
    with ThreadPoolExecutor(1) as pool:
        draws = [pool.submit(_slot_draws, rng, n, params, buf) for buf in bufs[:params.slots]]
        for k in range(params.slots):
            tx, rx, h = draws[k % 2].result()
            # Keep sig C-ordered (take, not [:, rx]): axis-0 sums add in tx order.
            sig = gain[tx].take(rx, axis=1) if tx.size and rx.size else None
            if sig is not None and h is not None:
                sig *= h
            if k + 2 < params.slots:  # h is applied, so its buffer is free
                draws[k % 2] = pool.submit(_slot_draws, rng, n, params, bufs[k % 2])
            yield tx, rx, sig, None if sig is None else sig.sum(axis=0)


HELLO_BLOCK_SLOTS = 64  # slots per block of deterministic capture
HELLO_BAND = 4.0  # half-width of the rounding band around a block total, in n eps


def _hello_blocks(gain: np.ndarray, rng, params: ChannelParams) -> LinkWeightTable:
    """Deterministic capture in blocks of slots over the candidate pairs
    (module docstring); returns the table that the slot loop would."""
    n, eps = gain.shape[0], np.finfo(np.float64).eps
    # Candidates by listener j, strongest first and ties to the lower id, as
    # argmax breaks them; rank[i, j] is transmitter i's place in j's list,
    # and kmax, the longest list's length, marks a non-candidate.
    i, j = np.nonzero(gain >= params.beta * params.sigma2 * (1 - 8 * (1 + params.beta) * eps))
    o = np.lexsort((i, -gain[i, j], j))
    i, j = i[o], j[o]
    k_j = np.bincount(j, minlength=n)
    kmax, first = int(k_j.max(initial=0)), np.cumsum(k_j) - k_j
    rank = np.full((n, n), kmax, np.min_scalar_type(kmax))
    rank[i, j] = np.arange(i.size) - first[j]
    sig = np.append(gain[i, j] * (1.0 + params.beta), 0.0)  # the padding entry never decodes
    b, counts = np.zeros(n, np.int64), np.zeros(sig.size, np.int64)  # counts per candidate
    band = HELLO_BAND * n * eps
    for start in range(0, params.slots, HELLO_BLOCK_SLOTS):
        # The same stream as one rng.random(n) per slot.
        t = rng.random((min(HELLO_BLOCK_SLOTS, params.slots - start), n)) < params.alpha
        b += t.sum(axis=0)
        total = t.astype(np.float64) @ gain
        best = np.full(t.shape, kmax, rank.dtype)  # rank of each listener's strongest transmitter
        for s in np.flatnonzero(t.any(axis=1)):
            np.minimum.reduce(rank[t[s]], axis=0, out=best[s])
        # The candidate each listener tests; a transmitter, and a listener
        # that hears no candidate, read the padding entry.
        k = first + best
        np.putmask(k, t | (best == kmax), i.size)
        sk = sig[k]
        sure, maybe = (sk >= params.beta * (params.sigma2 + total * f)
                       for f in (1.0 + band, 1.0 - band))
        for s in np.flatnonzero((sure != maybe).any(axis=1)):
            r = np.flatnonzero(sure[s] != maybe[s])
            exact = gain[t[s]].sum(axis=0)[r]  # the slot loop's total
            sure[s, r] = sk[s, r] >= params.beta * (params.sigma2 + exact)
        counts += np.bincount(k.ravel().compress(sure.ravel()), minlength=counts.size)
    hit = np.flatnonzero(counts[:-1])
    hit = hit[np.argsort(i[hit] * n + j[hit])]  # row-major order
    c = counts[hit]
    return LinkWeightTable(n, np.column_stack([i[hit], j[hit]]), c, b, c / b[i[hit]])


def simulate_hello(dep: Deployment, params: ChannelParams, seed: int) -> LinkWeightTable:
    """Run the Hello protocol for params.slots slots; deterministic under
    the seed. With beta >= 1 only each listener's strongest transmitter
    is tested (capture, see the module docstring), else every pair."""
    gain, rng = _gain_matrix(dep, params), np.random.default_rng(seed)
    # Coincident nodes give an infinite gain, and 0 * inf in a block total is NaN.
    if params.fading == "deterministic" and params.beta >= 1 and np.isfinite(gain.sum()):
        return _hello_blocks(gain, rng, params)
    n = dep.n
    c, b = np.zeros((n, n), dtype=np.int64), np.zeros(n, dtype=np.int64)  # c: dense scratch
    counts = c.reshape(-1)  # a view; decoded (tx, rx) pairs are unique per slot
    for tx, rx, sig, total in _slots(gain, rng, params):
        b[tx] += 1
        if sig is None:
            continue
        need = params.beta * (params.sigma2 + total)
        if params.beta >= 1:
            i = sig.argmax(axis=0)  # the first strongest, as a tie-break
            j = np.flatnonzero(sig[i, np.arange(rx.size)] * (1.0 + params.beta) >= need)
            i = i[j]
        else:
            i, j = np.nonzero(sig * (1.0 + params.beta) >= need)
        counts[tx[i] * n + rx[j]] += 1
    return LinkWeightTable.from_counts(c, b)


class EmpiricalCDF:
    """Step-function CDF of a sample; F(x) = fraction of samples <= x."""

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=np.float64).ravel()
        if samples.size == 0:
            raise ValueError("empty sample")
        if np.isnan(samples).any():
            raise ValueError("a sample is NaN")
        self.samples = np.sort(samples)

    def __call__(self, x):
        return np.searchsorted(self.samples, x, side="right") / self.samples.size


def predict_p(d: float, cdf: EmpiricalCDF, params: ChannelParams) -> float:
    """Reception probability at distance d from the total-power CDF.

    (1 - alpha) E_h F(scale h - sigma2), scale = (1 + beta) p_t / (beta d^eta), with
    h = 1 under deterministic fading; under rayleigh-power, the mean over F's samples s
    of P(h >= (s + sigma2) / scale) = exp(-max(s + sigma2, 0) / (scale fading_mean)).
    Where d^eta leaves the float range, scale is its limit, 0 or inf.
    """
    if not (0 < d < math.inf):  # written so that NaN fails
        raise ValueError(f"distance must be > 0 and finite, got {d}")
    try:
        scale = (1.0 + params.beta) * params.p_t / (params.beta * d ** params.eta)
    except OverflowError:
        scale = 0.0
    except ZeroDivisionError:
        scale = math.inf
    if params.fading == "deterministic":
        return (1.0 - params.alpha) * float(cdf(scale - params.sigma2))
    excess = np.maximum(cdf.samples + params.sigma2, 0.0)
    denom = scale * params.fading_mean
    # P(h >= excess / 0) is 1 for a zero excess, 0 otherwise
    tail = np.exp(-excess / denom) if denom else excess == 0
    return (1.0 - params.alpha) * float(tail.mean())


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


def square_annulus_index(dep: Deployment, annuli: int) -> np.ndarray:
    """Ring index per node: 0 = outermost ring, annuli-1 = central square."""
    check_count("annuli", annuli)
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
    ring = square_annulus_index(dep, annuli)  # checks annuli
    gain, rng = _gain_matrix(dep, params), np.random.default_rng(seed)
    # Drains _slots, whose helper thread ends with the generator.
    heard = [(ring[rx], total) for _, rx, sig, total in _slots(gain, rng, params) if sig is not None]
    rings, totals = (np.concatenate(a) for a in zip(*heard)) if heard else (np.empty(0),) * 2
    top = float(totals.max(initial=0.0))
    if top <= 0:
        raise ValueError("no power was received in any slot")
    pooled = [totals[rings == a] for a in range(annuli)]  # each ring's samples in slot order
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
    for name, v in (("r", r), ("eps", eps), ("grid_step", grid_step)):
        if not (0 < v < math.inf):  # written so that NaN fails
            raise ValueError(f"{name} must be > 0 and finite, got {v}")
    w, h = dep.region.width, dep.region.height
    if 2 * r > w or 2 * r > h:
        raise ValueError(f"interior is empty: 2r = {2 * r} exceeds a region side")
    xs = np.arange(r, w - r + grid_step * 1e-9, grid_step)
    ys = np.arange(r, h - r + grid_step * 1e-9, grid_step)
    pts = np.column_stack([g.ravel() for g in np.meshgrid(xs, ys, indexing="ij")])  # x-major
    from scipy.spatial import cKDTree  # here: no pipeline stage pays its import
    counts = cKDTree(dep.positions).query_ball_point(pts, r, return_length=True)
    density = counts / (math.pi * r * r)
    expected = dep.n / dep.region.area
    ratios = density / expected
    worst = float(ratios[np.argmax(np.abs(ratios - 1.0))])
    return abs(worst - 1.0) <= eps, worst


def save_link_weights(table: LinkWeightTable, prefix) -> tuple[Path, Path]:
    """Write <prefix>.weights.csv (``i,j,C,B,p_hat``, one row per heard
    pair in the table's order) and <prefix>.weights.json carrying n and
    the full broadcast counts."""
    prefix = Path(prefix)
    csv_path = prefix.with_name(prefix.name + ".weights.csv")
    meta_path = prefix.with_name(prefix.name + ".weights.json")
    i, j = table.pairs.T
    save_csv(csv_path, ["i", "j", "C", "B", "p_hat"], i, j, table.c, table.b[i], table.p_hat)
    meta_path.write_text(json.dumps({"n": table.n, "b": table.b.tolist()}) + "\n")
    return csv_path, meta_path


def save_power_histograms(hist: PowerHistograms, path) -> None:
    """Write ``annulus,bin_lo,bin_hi,freq`` rows."""
    masses = np.asarray(hist.masses)
    annuli, bins = masses.shape
    save_csv(path, ["annulus", "bin_lo", "bin_hi", "freq"], np.repeat(np.arange(annuli), bins),
             np.tile(hist.bin_edges[:-1], annuli), np.tile(hist.bin_edges[1:], annuli), masses.ravel())
