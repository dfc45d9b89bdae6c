"""Hop-count distance discretisation statistics.

For node pairs (i, j) on a connected graph, rho = d_ij / h_ij measures
the per-hop distance. On geometric graphs rho never exceeds the radius;
its spread shrinks as deployments densify, which is what makes hop
counts usable as discretised distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Deployment, Region, check_count, generate_deployment, pair_distances, save_csv
from .graphs import EdgeGraph, critical_radius, hop_matrix

# Above this node count all-pairs rho is quadratic-cost; default to a
# seeded sample of this many pairs instead.
PAIR_SAMPLE_THRESHOLD = 2000
DEFAULT_PAIR_SAMPLE = 200_000
RHO_BLOCK_ROWS = 64  # rows of the upper triangle read per block when rho_stats takes all pairs


@dataclass
class RhoStats:
    """Per-hop distance samples and summary statistics."""

    samples: np.ndarray
    mean: float
    variance: float
    cv: float
    hist_edges: np.ndarray
    hist_masses: np.ndarray
    bin_width: float
    pairs_used: int
    pairs_excluded: int


def _pair_sample(n, count, seed):
    rng = np.random.default_rng(seed)
    ii = jj = np.empty(0, dtype=np.int64)
    while ii.size < count:
        a = rng.integers(0, n, size=count)
        b = rng.integers(0, n, size=count)
        keep = a != b
        ii = np.concatenate([ii, a[keep]])
        jj = np.concatenate([jj, b[keep]])
    return ii[:count], jj[:count]


def rho_stats(dep: Deployment, g: EdgeGraph, pair_sample="all", seed: int = 0) -> RhoStats:
    """Distance-per-hop statistics over node pairs of g.

    pair_sample is "all" (every unordered pair) or a pair count sampled
    uniformly with the given seed. Disconnected pairs are excluded and
    counted; it is an error if nothing remains. The histogram bin width
    is radius/50 when g carries a radius, else max(rho)/50.
    """
    n = dep.n
    if g.n != n:
        raise ValueError(f"graph has {g.n} nodes, deployment has {n}")
    hops = hop_matrix(g)
    samples, excluded = [], 0  # rho of the pairs joined by a path; count of pairs not joined
    if pair_sample == "all":
        cols = np.arange(n)
        for lo in range(0, n, RHO_BLOCK_ROWS):  # row blocks of the upper triangle, in triu order
            rows = cols[lo:lo + RHO_BLOCK_ROWS, None]
            h, upper = hops[lo:lo + RHO_BLOCK_ROWS], cols > rows
            ok = upper & (h > 0)
            samples.append(pair_distances(dep, rows, cols)[ok] / h[ok])
            excluded += int(np.count_nonzero(upper & (h < 0)))
    else:
        i, j = _pair_sample(n, check_count("pair_sample", pair_sample), seed)
        h = hops[i, j]
        ok = h > 0
        samples.append(pair_distances(dep, i[ok], j[ok]) / h[ok])
        excluded = int(np.count_nonzero(h < 0))
    samples = np.concatenate(samples)  # drops the blocks
    if samples.size == 0:
        raise ValueError("no connected pairs; rho is undefined")

    mean = float(samples.mean())
    variance = float(samples.var())
    cv = float(math.sqrt(variance) / mean)
    bin_width = (g.radius if g.radius else float(samples.max())) / 50.0
    top = max(float(samples.max()), bin_width)
    nbins = int(math.ceil(top / bin_width))
    edges = np.arange(nbins + 1) * bin_width
    hist, _ = np.histogram(samples, bins=edges)
    return RhoStats(
        samples=samples, mean=mean, variance=variance, cv=cv,
        hist_edges=edges, hist_masses=hist / samples.size, bin_width=bin_width,
        pairs_used=int(samples.size), pairs_excluded=excluded,
    )


@dataclass
class TrendRow:
    n: int
    var_rho: float
    cv_rho: float
    ci_var: float | None
    ci_cv: float | None
    base_stats: RhoStats  # the base seed's, for its histogram


def _half_width(values) -> float | None:
    from scipy.special import stdtrit  # here: no pipeline stage pays its import
    k = len(values)
    if k < 2:
        return None
    sd = float(np.std(values, ddof=1))
    return float(stdtrit(k - 1, 0.975) * sd / math.sqrt(k))


def rho_trend(region: Region, n_list, seeds_per_n: int, base_seed: int = 0) -> list:
    """Mean rho variance and CV against n, on the exact critical graph.

    Each n uses uniform-iid seeds base_seed .. base_seed + seeds_per_n - 1;
    95% half-widths use the Student t quantile and are None for a single
    seed. Pair sampling kicks in above PAIR_SAMPLE_THRESHOLD nodes.
    """
    check_count("seeds_per_n", seeds_per_n)
    rows = []
    for n in n_list:  # generate_deployment checks n
        variances, cvs = [], []
        for seed in range(base_seed, base_seed + seeds_per_n):
            dep = generate_deployment("uniform-iid", n, region, seed)
            _, cgg = critical_radius(dep)
            sample = "all" if n <= PAIR_SAMPLE_THRESHOLD else DEFAULT_PAIR_SAMPLE
            st = rho_stats(dep, cgg, pair_sample=sample, seed=seed)
            if seed == base_seed:
                base = st
            variances.append(st.variance)
            cvs.append(st.cv)
        rows.append(TrendRow(
            n=n,
            var_rho=float(np.mean(variances)),
            cv_rho=float(np.mean(cvs)),
            ci_var=_half_width(variances),
            ci_cv=_half_width(cvs),
            base_stats=base,
        ))
    return rows


def save_trend_csv(rows, path) -> None:
    save_csv(path, ["n", "var_rho", "cv_rho", "ci_var", "ci_cv"],
             *zip(*((r.n, r.var_rho, r.cv_rho, r.ci_var, r.ci_cv) for r in rows)))


def save_rho_histogram_csv(st: RhoStats, path) -> None:
    save_csv(path, ["bin_lo", "bin_hi", "freq"], st.hist_edges[:-1], st.hist_edges[1:], st.hist_masses)
