"""Transport-capacity self-organisation over h-hop topologies.

The theoretical transport capacity of a network whose hops all span
distance d is psi(d) = a * d * log(1 + alpha0 * p_t / (d^eta * sigma2))
(natural log), with a absorbing the contention success rate and the
bandwidth. The heuristic builds the h-hop topology T_h of a base graph
for each h, measures the simulated capacity of a saturated single-cell
Aloha MAC on it, and picks the h that maximises it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw

from .geometry import Deployment, check_count, pair_distances, save_csv
from .graphs import EdgeGraph, hop_matrix, is_connected


@dataclass(frozen=True)
class SelfOrgParams:
    """Capacity-model parameters.

    q is the per-slot channel attempt probability of each saturated node
    and w the bandwidth (Hz); the contention constant of the theoretical
    curve is calibrated from them (aloha_contention_constant).
    find_h_opt scores the h-hop topologies for h = 1..h_max.

    The defaults are pinned for n=1000 in a 1000 m x 1000 m region: the
    optimal hop length lands a few critical-graph hops out, so the
    argmax over h is interior.
    """

    alpha0: float = 1.0
    p_t: float = 0.1
    sigma2: float = 2.33e-6
    eta: float = 2.0
    w: float = 1e6
    q: float = 0.001
    slots: int = 20000
    h_max: int = 8

    def __post_init__(self):
        for name in ("alpha0", "p_t", "sigma2", "eta", "w"):
            if not (0 < getattr(self, name) < math.inf):  # written so that NaN fails
                raise ValueError(f"{name} must be > 0 and finite, got {getattr(self, name)}")
        # q = 1 is allowed: every slot collides and the capacity is zero
        if not (0 < self.q <= 1):
            raise ValueError(f"q must be in (0, 1], got {self.q}")
        for name in ("slots", "h_max"):
            check_count(name, getattr(self, name))


# Attempt indicators drawn per chunk of MAC slots. The chunk size sets
# where the destination draws interleave with the attempt draws, so it is
# part of the seed contract: changing it changes every psi_sim.
MAC_CHUNK_DRAWS = 2_000_000
# Attempts drawn at a time within a chunk: bounds scratch memory, keeps the stream.
MAC_PIECE_DRAWS = 1 << 17


def aloha_contention_constant(n_active: int, q: float, w: float) -> float:
    """Success rate of n_active q-Aloha contenders times bandwidth."""
    return n_active * q * (1.0 - q) ** (n_active - 1) * w


def link_rate(d, p: SelfOrgParams):
    """Shannon rate factor log(1 + alpha0 p_t / (d^eta sigma2)), natural log."""
    return np.log1p(p.alpha0 * p.p_t / (np.asarray(d, dtype=np.float64) ** p.eta * p.sigma2))


def theoretical_psi(d: float, p: SelfOrgParams, a: float) -> float:
    """Transport capacity (bit-meters/sec) of hops of length d under contention constant a."""
    if not (0 < d < math.inf):  # written so that NaN fails
        raise ValueError(f"hop length must be > 0 and finite, got {d}")
    return float(a * d * link_rate(d, p))


def optimal_hop_length(p: SelfOrgParams, d_lo: float, d_hi: float) -> float:
    """Argmax of the capacity curve d log(1 + x), x = alpha0 p_t / (d^eta sigma2), on [d_lo, d_hi].

    Its slope log1p(x) - eta x / (1 + x) is positive for eta <= 1, and for eta > 1 it
    changes sign once, where log(1 + x) = eta - eta / (1 + x): x* = expm1(eta + W0(-eta e^-eta)).
    """
    if not (0 < d_lo < d_hi):
        raise ValueError(f"need 0 < d_lo < d_hi, got ({d_lo}, {d_hi})")
    if p.eta <= 1:
        return float(d_hi)
    x = math.expm1(p.eta + lambertw(-p.eta * math.exp(-p.eta)).real)
    return float(min(max((p.alpha0 * p.p_t / p.sigma2 / x) ** (1 / p.eta), d_lo), d_hi))


def _h_hop_topologies(hops: np.ndarray, h_max: int) -> list:
    """T_1 .. T_h_max of a connected graph from one pass over its hop
    matrix: the row-major pairs at most h_max hops apart, stable-sorted by hop."""
    i, j = np.nonzero(np.triu(hops <= h_max, 1))
    order = np.argsort(hops[i, j], kind="stable")
    i, j = i[order], j[order]
    cuts = np.searchsorted(hops[i, j], np.arange(1, h_max + 2))
    return [EdgeGraph(len(hops), np.column_stack((i[a:b], j[a:b]))) for a, b in zip(cuts, cuts[1:])]


def _aloha_links(topology: EdgeGraph, p: SelfOrgParams, seed) -> list:
    """(winners, destinations) of each chunk of Aloha slots that carried
    traffic: saturated single-cell Aloha on a fixed topology. Reads only
    the RNG and the CSR, so it may run off the main thread.

    Each slot every node with a topology neighbour attempts with
    probability q; a slot carries traffic iff exactly one node attempts,
    and the winner sends to a uniformly random topology neighbour. Draw
    order: the slots run in chunks of MAC_CHUNK_DRAWS // (number of
    contenders); each chunk draws its attempt indicators
    (MAC_PIECE_DRAWS at a time, which leaves the stream unchanged), then
    one destination per successful slot of that chunk. A winner's
    neighbours are taken in ascending id order.
    """
    csr = topology._csr
    deg = np.diff(csr.indptr)
    active = np.flatnonzero(deg)
    if not active.size:
        return []
    rng = np.random.default_rng(seed)
    raw = rng.bit_generator.random_raw
    # rng.random() = (raw >> 11) * 2**-53 < q iff raw >> 11 < ceil(q * 2**53), iff raw <= limit
    limit = (math.ceil(p.q * 2.0 ** 53) << 11) - 1
    links = []
    chunk = max(1, min(p.slots, MAC_CHUNK_DRAWS // active.size))
    for done in range(0, p.slots, chunk):
        m = min(chunk, p.slots - done)
        draws = m * active.size
        hits = np.concatenate([np.flatnonzero(raw(min(MAC_PIECE_DRAWS, draws - k)) <= limit) + k
                               for k in range(0, draws, MAC_PIECE_DRAWS)])
        slot = hits // active.size
        winners = active[hits[np.bincount(slot, minlength=m)[slot] == 1] % active.size]
        if winners.size:
            u = rng.random(winners.size)
            links.append((winners, csr.indices[csr.indptr[winners] + (u * deg[winners]).astype(np.int64)]))
    return links


def _credit(dep: Deployment, links: list, p: SelfOrgParams) -> float:
    """Bit-meters per slot carried by the links of _aloha_links, summed chunk
    by chunk; a link of length d carries d * w * log(1 + alpha0 p_t / (d^eta sigma2))."""
    total = 0.0
    for winners, nbr in links:
        d = pair_distances(dep, winners, nbr)
        total += float((d * p.w * link_rate(d, p)).sum())
    return total / p.slots


@dataclass
class PsiRow:
    h: int
    n_edges: int
    n_active: int
    mean_hop_len: float
    psi_sim: float
    psi_theory: float


def find_h_opt(dep: Deployment, g_base: EdgeGraph, p: SelfOrgParams,
               seed: int) -> tuple[int, list]:
    """Simulated capacity for h = 1..p.h_max and the maximising h.

    Ties break toward smaller h. Each row carries the mean hop length of
    T_h and the theoretical capacity there, with the contention constant
    calibrated from the number of contending nodes. Empty topologies
    score zero.

    The MAC draws run on min(CPUs, h_max) worker threads, one h per
    thread at a time, each h from its own child of SeedSequence(seed) and
    in _aloha_links's order, so the rows do not depend on the CPU count.
    The credit runs on the calling thread.
    """
    if g_base.n != dep.n:
        raise ValueError(f"graph has {g_base.n} nodes, deployment has {dep.n}")
    if not is_connected(g_base):
        raise ValueError("base graph must be connected")
    topologies = _h_hop_topologies(hop_matrix(g_base), p.h_max)
    rows = []
    # sched_getaffinity exists only on Linux.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(min(cpus or 1, p.h_max)) as pool:
        draws = pool.map(_aloha_links, topologies, [p] * p.h_max,
                         np.random.SeedSequence(seed).spawn(p.h_max))
        for h, (topology, links) in enumerate(zip(topologies, draws), start=1):
            if not topology.num_edges:
                rows.append(PsiRow(h, 0, 0, math.nan, 0.0, 0.0))
                continue
            n_active = int(np.count_nonzero(topology.degrees()))
            mean_len = float(pair_distances(dep, topology.edges[:, 0], topology.edges[:, 1]).mean())
            a = aloha_contention_constant(n_active, p.q, p.w)
            rows.append(PsiRow(h, topology.num_edges, n_active, mean_len,
                               _credit(dep, links, p), theoretical_psi(mean_len, p, a)))
    psi = [r.psi_sim for r in rows]
    h_opt = 1 + int(np.argmax(psi))
    return h_opt, rows


def save_psi_csv(rows, path) -> None:
    save_csv(path, ["h", "mean_hop_len_m", "psi_sim", "psi_theory"],
             *zip(*((r.h, r.mean_hop_len, r.psi_sim, r.psi_theory) for r in rows)))
