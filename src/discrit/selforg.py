"""Transport-capacity self-organisation over h-hop topologies.

The theoretical transport capacity of a network whose hops all span
distance d is psi(d) = a * d * log(1 + alpha0 * p_t / (d^eta * sigma2))
(natural log), with a absorbing the contention success rate and the
bandwidth. The heuristic builds the h-hop topology T_h of a base graph
for each h, measures the simulated capacity of a saturated single-cell
Aloha MAC on it, and picks the h that maximises it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Deployment, distance_matrix
from .graphs import EdgeGraph, hop_matrix, is_connected


@dataclass(frozen=True)
class SelfOrgParams:
    """Capacity-model parameters.

    a is the contention constant of the theoretical curve; leave it None
    to calibrate from the Aloha success rate of the simulated MAC
    (n_active * q * (1-q)^(n_active-1) * w). q is the per-slot channel
    attempt probability of each saturated node and w the bandwidth (Hz).
    """

    alpha0: float
    p_t: float
    sigma2: float
    eta: float
    w: float
    q: float
    slots: int = 20000
    a: float | None = None

    def __post_init__(self):
        for name in ("alpha0", "p_t", "sigma2", "eta", "w"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        # q = 1 is allowed: every slot collides and the capacity is zero
        if not (0 < self.q <= 1):
            raise ValueError(f"q must be in (0, 1], got {self.q}")
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")


# Pinned defaults for the n=1000 / 1 km x 1 km experiments: the optimal
# hop length lands a few critical-graph hops out, so the argmax over h
# is interior.
DEFAULT_SELFORG = SelfOrgParams(
    alpha0=1.0, p_t=0.1, sigma2=2.33e-6, eta=2.0, w=1e6, q=0.001, slots=20000,
)


def aloha_contention_constant(n_active: int, q: float, w: float) -> float:
    """Success rate of n_active q-Aloha contenders times bandwidth."""
    return n_active * q * (1.0 - q) ** (n_active - 1) * w


def link_rate(d, p: SelfOrgParams):
    """Shannon rate factor log(1 + alpha0 p_t / (d^eta sigma2)), natural log."""
    return np.log1p(p.alpha0 * p.p_t / (np.asarray(d, dtype=np.float64) ** p.eta * p.sigma2))


def theoretical_psi(d: float, p: SelfOrgParams, a: float | None = None) -> float:
    """Transport capacity (bit-meters/sec) of hops of length d."""
    if d <= 0:
        raise ValueError(f"hop length must be > 0, got {d}")
    aval = a if a is not None else p.a
    if aval is None:
        raise ValueError("no contention constant: set params.a or pass a")
    return float(aval * d * link_rate(d, p))


def optimal_hop_length(p: SelfOrgParams, d_lo: float, d_hi: float) -> float:
    """Argmax of the capacity curve on [d_lo, d_hi], grid plus refinement.

    The curve rises then falls, so a coarse grid brackets the peak and
    golden-section search refines it.
    """
    if not (0 < d_lo < d_hi):
        raise ValueError(f"need 0 < d_lo < d_hi, got ({d_lo}, {d_hi})")
    obj = lambda d: d * float(link_rate(d, p))
    grid = np.linspace(d_lo, d_hi, 512)
    vals = [obj(d) for d in grid]
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = obj(c), obj(d)
    while b - a > 1e-9 * max(abs(b), 1.0):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = obj(d)
    return float((a + b) / 2)


def _h_hop_topology(hops: np.ndarray, h: int) -> EdgeGraph:
    """T_h read off a hop matrix; find_h_opt builds every h from one."""
    return EdgeGraph(len(hops), np.argwhere(np.triu(hops == h, 1)))


def build_h_hop_topology(g: EdgeGraph, h: int) -> EdgeGraph:
    """Graph joining exactly the pairs at hop distance h on g."""
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if not is_connected(g):
        raise ValueError("base graph must be connected")
    return _h_hop_topology(hop_matrix(g), h)


def _simulate_psi(dist, topology: EdgeGraph, p: SelfOrgParams, seed: int) -> float:
    """Saturated single-cell Aloha on a fixed topology.

    Each slot every node with a topology neighbour attempts with
    probability q; a slot carries traffic iff exactly one node attempts,
    and the winner sends to a uniformly random topology neighbour,
    crediting d * w * log(1 + alpha0 p_t / (d^eta sigma2)) bit-meters.
    Returns total bit-meters per slot. Draw order: all attempt
    indicators for all slots, then one destination draw per successful
    slot; a winner's neighbours are taken in ascending id order.
    """
    csr = topology._csr
    deg = np.diff(csr.indptr)
    active = np.flatnonzero(deg)
    rng = np.random.default_rng(seed)
    total = 0.0
    chunk = max(1, min(p.slots, 2_000_000 // max(active.size, 1)))
    done = 0
    while done < p.slots:
        m = min(chunk, p.slots - done)
        attempts = rng.random((m, active.size)) < p.q
        natt = attempts.sum(axis=1)
        winners = active[attempts.argmax(axis=1)[natt == 1]]
        if winners.size:
            u = rng.random(winners.size)
            nbr = csr.indices[csr.indptr[winners] + (u * deg[winners]).astype(np.int64)]
            d = dist[winners, nbr]
            total += float((d * p.w * link_rate(d, p)).sum())
        done += m
    return total / p.slots


def simulate_transport_capacity(dep: Deployment, g_base: EdgeGraph, h: int,
                                p: SelfOrgParams, seed: int) -> float:
    """Simulated capacity of the h-hop topology of g_base (bit-meters/sec).

    g_base must be connected. Nodes without an h-hop neighbour sit out
    of contention.
    """
    topology = build_h_hop_topology(g_base, h)
    if not topology.num_edges:
        raise ValueError(f"every node is isolated in the {h}-hop topology")
    return _simulate_psi(distance_matrix(dep), topology, p, seed)


@dataclass
class PsiRow:
    h: int
    n_edges: int
    n_active: int
    mean_hop_len: float
    psi_sim: float
    psi_theory: float


def find_h_opt(dep: Deployment, g_base: EdgeGraph, p: SelfOrgParams, h_max: int,
               seed: int) -> tuple[int, list]:
    """Simulated capacity for h = 1..h_max and the maximising h.

    Ties break toward smaller h. Each row carries the mean hop length of
    T_h and the theoretical capacity there, with the contention constant
    calibrated from the number of contending nodes unless params.a is
    set. Empty topologies score zero.
    """
    if h_max < 1:
        raise ValueError(f"h_max must be >= 1, got {h_max}")
    if g_base.n != dep.n:
        raise ValueError(f"graph has {g_base.n} nodes, deployment has {dep.n}")
    if not is_connected(g_base):
        raise ValueError("base graph must be connected")
    hops = hop_matrix(g_base)
    dist = distance_matrix(dep)
    child_seeds = np.random.SeedSequence(seed).spawn(h_max)
    rows = []
    for h in range(1, h_max + 1):
        topology = _h_hop_topology(hops, h)
        if not topology.num_edges:
            rows.append(PsiRow(h, 0, 0, math.nan, 0.0, 0.0))
            continue
        n_active = int(np.count_nonzero(topology.degrees()))
        mean_len = float(dist[topology.edges[:, 0], topology.edges[:, 1]].mean())
        psi_sim = _simulate_psi(dist, topology, p, child_seeds[h - 1])
        a = p.a if p.a is not None else aloha_contention_constant(n_active, p.q, p.w)
        rows.append(PsiRow(h, topology.num_edges, n_active, mean_len,
                           psi_sim, theoretical_psi(mean_len, p, a=a)))
    psi = [r.psi_sim for r in rows]
    h_opt = 1 + int(np.argmax(psi))
    return h_opt, rows


def save_psi_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "mean_hop_len_m", "psi_sim", "psi_theory"])
        for r in rows:
            writer.writerow([r.h, repr(float(r.mean_hop_len)),
                             repr(float(r.psi_sim)), repr(float(r.psi_theory))])
