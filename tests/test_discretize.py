import math

import numpy as np
import pytest
from scipy import stats

from conftest import edge_format_deployments, line_deployment, reference_rho_stats
from discrit.discretize import RHO_BLOCK_ROWS, _half_width, rho_stats, rho_trend, save_trend_csv
from discrit.geometry import Region, generate_deployment
from discrit.graphs import build_gg, critical_radius, degree1_radius, is_connected


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


def test_row_blocks_match_triu_reference():
    # Row blocks against all pairs at once: critical graphs at n = 1000
    # and 3000, the grid's exact ties, a disconnected graph (excluded
    # pairs), n = 2 and 130 (neither a multiple of the block size), and
    # the sampled branch.
    km = Region(1000, 1000)
    deps = dict(edge_format_deployments())
    cases = [(label, deps[label], critical_radius(deps[label])[1], "all")
             for label in ("uniform-seed0", "grid-32x32")]
    g1 = degree1_radius(deps["uniform-seed0"])[1]
    assert not is_connected(g1)  # so some pairs are excluded
    cases.append(("degree1-seed0", deps["uniform-seed0"], g1, "all"))
    for n in (2, 130, 3000):
        dep = generate_deployment("uniform-iid", n, km, 0)
        cases.append((f"n{n}", dep, critical_radius(dep)[1], "all"))
    assert 130 % RHO_BLOCK_ROWS and 3000 % RHO_BLOCK_ROWS
    cases.append(("n3000-sampled", dep, cases[-1][2], 200_000))
    for label, dep, g, sample in cases:
        got = rho_stats(dep, g, pair_sample=sample, seed=7)
        want = reference_rho_stats(dep, g, sample, seed=7)
        assert np.array_equal(got.samples, want.samples), label
        assert (got.pairs_used, got.pairs_excluded) == (want.pairs_used, want.pairs_excluded), label
        assert (got.mean, got.variance, got.cv, got.bin_width) == (want.mean, want.variance, want.cv,
                                                                  want.bin_width), label
        assert np.array_equal(got.hist_edges, want.hist_edges), label
        assert np.array_equal(got.hist_masses, want.hist_masses), label


def test_pair_sampling_deterministic():
    dep = generate_deployment("uniform-iid", 300, Region(1000, 1000), 2)
    _, cgg = critical_radius(dep)
    a = rho_stats(dep, cgg, pair_sample=4000, seed=9)
    b = rho_stats(dep, cgg, pair_sample=4000, seed=9)
    assert np.array_equal(a.samples, b.samples)
    assert a.pairs_used + a.pairs_excluded == 4000
    c = rho_stats(dep, cgg, pair_sample=4000, seed=10)
    assert not np.array_equal(a.samples, c.samples)


@pytest.mark.parametrize("sample", [2.5, True, 0, "some"])
def test_pair_sample_must_be_a_count(sample):
    # 2.5 used to sample 2 pairs and True 1.
    dep = line_deployment([2.0, 7.0, 9.0], side=10.0)
    with pytest.raises(ValueError, match="pair_sample must be an integer >= 1"):
        rho_stats(dep, critical_radius(dep)[1], pair_sample=sample)


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


@pytest.mark.parametrize("seeds", [0, 2.5, True])
def test_trend_seeds_per_n_must_be_a_count(seeds):
    # 0 used to give a row of NaN, 2.5 a bare TypeError and True one seed.
    with pytest.raises(ValueError, match="seeds_per_n must be an integer >= 1"):
        rho_trend(Region(1000, 1000), [100], seeds_per_n=seeds)


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
