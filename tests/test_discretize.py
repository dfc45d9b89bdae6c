import math

import numpy as np
import pytest
from scipy import stats

from conftest import line_deployment
from discrit.discretize import _half_width, rho_stats, rho_trend, save_trend_csv
from discrit.geometry import Region, generate_deployment
from discrit.graphs import build_gg, critical_radius


def test_two_nodes_single_sample():
    dep = line_deployment([2.0, 7.0], side=10.0)
    _, cgg = critical_radius(dep)
    st = rho_stats(dep, cgg)
    assert st.samples.tolist() == [5.0]
    assert st.variance == 0.0


def test_equally_spaced_path_constant_rho():
    xs = [1.0 + 0.5 * k for k in range(8)]
    dep = line_deployment(xs, side=10.0)
    g = build_gg(dep, 0.5)
    st = rho_stats(dep, g)
    assert np.allclose(st.samples, 0.5)
    assert st.variance == 0.0
    assert st.cv == 0.0


def test_rho_bounded_by_radius():
    for seed in (0, 3):
        dep = generate_deployment("uniform-iid", 150, Region(1000, 1000), seed)
        _, cgg = critical_radius(dep)
        st = rho_stats(dep, cgg)
        assert (st.samples <= cgg.radius + 1e-9).all()
        assert st.hist_masses.sum() == pytest.approx(1.0)


def test_hops_at_least_ceil_distance_over_radius():
    # the same bound as rho <= r, asserted from the hop side
    dep = generate_deployment("uniform-iid", 120, Region(1000, 1000), 7)
    _, cgg = critical_radius(dep)
    from discrit.geometry import distance_matrix
    from discrit.graphs import hop_matrix

    d = distance_matrix(dep)
    h = hop_matrix(cgg)
    iu = np.triu_indices(120, 1)
    need = np.ceil(d[iu] / cgg.radius - 1e-12)
    assert (h[iu] >= need).all()


def test_excluded_pairs_counted():
    dep = line_deployment([0.0, 1.0, 5.0, 6.0], side=10.0)
    g = build_gg(dep, 1.0)  # two components
    st = rho_stats(dep, g)
    assert st.pairs_excluded == 4
    assert st.pairs_used == 2
    empty = build_gg(dep, 0.5)
    with pytest.raises(ValueError):
        rho_stats(dep, empty)


def test_pair_sampling_deterministic():
    dep = generate_deployment("uniform-iid", 300, Region(1000, 1000), 2)
    _, cgg = critical_radius(dep)
    a = rho_stats(dep, cgg, pair_sample=4000, seed=9)
    b = rho_stats(dep, cgg, pair_sample=4000, seed=9)
    assert np.array_equal(a.samples, b.samples)
    assert a.pairs_used + a.pairs_excluded == 4000
    c = rho_stats(dep, cgg, pair_sample=4000, seed=10)
    assert not np.array_equal(a.samples, c.samples)


def test_trend_spread_shrinks_across_eight_sizes():
    # 8 node counts between 100 and 5000, 2 seeds each: variance and CV
    # each decrease with at most one inversion.
    rows = rho_trend(Region(1000, 1000), [100, 300, 600, 1000, 1700, 3000, 4000, 5000],
                     seeds_per_n=2, base_seed=0)
    variances = [r.var_rho for r in rows]
    cvs = [r.cv_rho for r in rows]
    assert sum(a < b for a, b in zip(variances, variances[1:])) <= 1
    assert sum(a < b for a, b in zip(cvs, cvs[1:])) <= 1


def test_trend_single_seed_undefined_ci():
    rows = rho_trend(Region(1000, 1000), [100], seeds_per_n=1)
    assert len(rows) == 1
    assert rows[0].ci_var is None and rows[0].ci_cv is None


def test_trend_deterministic_and_csv(tmp_path):
    rows_a = rho_trend(Region(1000, 1000), [60, 120], seeds_per_n=2, base_seed=5)
    rows_b = rho_trend(Region(1000, 1000), [60, 120], seeds_per_n=2, base_seed=5)
    assert [(r.n, r.var_rho, r.cv_rho) for r in rows_a] == \
           [(r.n, r.var_rho, r.cv_rho) for r in rows_b]
    assert all(r.ci_var is not None for r in rows_a)
    path = tmp_path / "trend.csv"
    save_trend_csv(rows_a, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,var_rho,cv_rho,ci_var,ci_cv"
    assert len(lines) == 3


def test_half_width_matches_t_ppf():
    # stdtrit is the quantile scipy.stats.t.ppf evaluates, without the
    # import cost of scipy.stats.
    rng = np.random.default_rng(0)
    for k in (2, 3, 5, 10, 30, 100, 500):
        values = rng.normal(size=k)
        sd = float(np.std(values, ddof=1))
        assert _half_width(values) == float(stats.t.ppf(0.975, k - 1) * sd / math.sqrt(k))
    assert _half_width([1.0]) is None
