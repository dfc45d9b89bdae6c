import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    enumerate_hello_p, line_deployment, reference_hello, reference_power_histogram,
)
from discrit.channel import (
    ChannelParams, EmpiricalCDF, LinkWeightTable, homogeneity_check,
    load_link_weights, predict_p, received_power_histogram, save_link_weights,
    simulate_hello, square_annulus_index, total_variation,
)
from discrit.geometry import Deployment, Region, generate_deployment

PARAMS = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.10, slots=2000)
RAYLEIGH = {"fading": "rayleigh-power", "fading_mean": 1.0}


# The Hello kernel against the slot loop it replaced. The criterion 7
# and 8 seeds at the acceptance parameters; a 20 x 20 grid, whose equal
# spacing gives exact gain ties at a listener; beta below and above 1
# under both fading kinds (beta < 1 lets one listener decode several
# transmitters); every node transmitting; and a sparse alpha that leaves
# most slots without a transmitter.
SMALL = replace(PARAMS, slots=300)
ACCEPTANCE_CASES = [
    pytest.param("uniform-iid", 1000, 1000.0, replace(PARAMS, slots=5000), seed,
                 id=f"acceptance-seed{seed}")
    for seed in range(10)
]
SMALL_CASES = [
    pytest.param("grid", 400, 1000.0, SMALL, 1, id="grid-ties"),
    pytest.param("grid", 400, 1000.0, replace(SMALL, **RAYLEIGH), 2, id="grid-rayleigh"),
] + [
    pytest.param("uniform-iid", 300, 500.0, replace(SMALL, beta=beta, **fading), 3,
                 id=f"beta{beta}-{name}")
    for beta in (0.2, 0.5, 1.0, 4.0)
    for name, fading in (("deterministic", {}), ("rayleigh", RAYLEIGH))
] + [
    pytest.param("uniform-iid", 30, 300.0, replace(SMALL, alpha=1.0, slots=50), 4, id="alpha-one"),
    pytest.param("uniform-iid", 30, 300.0, replace(SMALL, alpha=0.02, slots=2000), 5,
                 id="idle-slots"),
]


@pytest.mark.parametrize("kind, n, side, params, seed", ACCEPTANCE_CASES + SMALL_CASES)
def test_hello_kernel_matches_reference(kind, n, side, params, seed):
    dep = generate_deployment(kind, n, Region(side, side), seed)
    table = simulate_hello(dep, params, seed)
    ref = reference_hello(dep, params, seed)
    assert np.array_equal(table.c, ref.c)
    assert np.array_equal(table.b, ref.b)


# One acceptance seed only: the reference loop takes about 10 s a seed at n=1000.
@pytest.mark.parametrize("kind, n, side, params, seed", ACCEPTANCE_CASES[:1] + SMALL_CASES)
def test_power_histogram_matches_reference(kind, n, side, params, seed):
    dep = generate_deployment(kind, n, Region(side, side), seed)
    if params.alpha == 1:
        for histogram in (received_power_histogram, reference_power_histogram):
            with pytest.raises(ValueError, match="no power"):
                histogram(dep, params, seed, annuli=5)
        return
    hist = received_power_histogram(dep, params, seed, annuli=5)
    ref = reference_power_histogram(dep, params, seed, annuli=5)
    assert np.array_equal(hist.bin_edges, ref.bin_edges)
    assert hist.counts == ref.counts
    for masses, ref_masses in zip(hist.masses, ref.masses, strict=True):
        assert np.array_equal(masses, ref_masses)


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(p_t=0.0, eta=4, sigma2=1, beta=1, alpha=0.5)
    with pytest.raises(ValueError):
        ChannelParams(p_t=1, eta=1.5, sigma2=1, beta=1, alpha=0.5)
    with pytest.raises(ValueError):
        ChannelParams(p_t=1, eta=2, sigma2=1, beta=1, alpha=1.5)
    with pytest.raises(ValueError):
        ChannelParams(p_t=1, eta=2, sigma2=1, beta=1, alpha=0.5, fading="lognormal")


def test_alpha_zero_is_error():
    dep = line_deployment([1.0, 4.0], side=10.0)
    params = ChannelParams(p_t=1, eta=2, sigma2=1, beta=1, alpha=0.0, slots=10)
    with pytest.raises(ValueError):
        simulate_hello(dep, params, 0)


def test_alpha_one_all_collisions():
    dep = line_deployment([1.0, 4.0], side=10.0)
    params = ChannelParams(p_t=1000.0, eta=2.0, sigma2=1.0, beta=1.0, alpha=1.0, slots=100)
    table = simulate_hello(dep, params, 1)
    assert table.p_hat.sum() == 0.0
    assert (table.b == 100).all()


def test_two_node_interference_free_half():
    # SNR >> beta, so success happens exactly when the peer listens.
    dep = line_deployment([1.0, 4.0], side=10.0)
    params = ChannelParams(p_t=1000.0, eta=2.0, sigma2=1.0, beta=1.0, alpha=0.5, slots=100000)
    table = simulate_hello(dep, params, 42)
    assert abs(table.p_hat[0, 1] - 0.5) <= 0.01
    assert abs(table.p_hat[1, 0] - 0.5) <= 0.01


def test_three_node_enumeration_oracle():
    pos = np.array([[400.0, 500.0], [460.0, 500.0], [550.0, 500.0]])
    dep = Deployment(pos, "uniform-iid", Region(1000, 1000), 0)
    params = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.10, slots=20000)
    exact = enumerate_hello_p(pos, params)
    table = simulate_hello(dep, params, 7)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            p = exact[i, j]
            se = math.sqrt(p * (1 - p) / table.b[i])
            assert abs(table.p_hat[i, j] - p) <= 3 * se + 1e-12


def test_counting_sanity_and_determinism():
    dep = generate_deployment("uniform-iid", 30, Region(300, 300), 5)
    a = simulate_hello(dep, PARAMS, 11)
    b = simulate_hello(dep, PARAMS, 11)
    assert np.array_equal(a.c, b.c) and np.array_equal(a.b, b.b)
    assert (a.c <= a.b[:, None]).all()
    assert (np.diag(a.c) == 0).all()
    assert a.b.sum() > 0


def test_slln_error_shrinks_with_slots():
    pos = np.array([[400.0, 500.0], [460.0, 500.0], [550.0, 500.0]])
    dep = Deployment(pos, "uniform-iid", Region(1000, 1000), 0)
    errs = []
    for slots in (1000, 10000, 100000):
        params = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.10, slots=slots)
        exact = enumerate_hello_p(pos, params)
        table = simulate_hello(dep, params, 0)
        errs.append(float(np.abs(table.p_hat - exact).max()))
    assert errs[0] >= errs[1] >= errs[2]
    params = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.10, slots=100000)
    exact = enumerate_hello_p(pos, params)
    table = simulate_hello(dep, params, 0)
    for i in range(3):
        for j in range(3):
            if i != j and 0 < exact[i, j] < 1:
                se = math.sqrt(exact[i, j] * (1 - exact[i, j]) / table.b[i])
                assert abs(table.p_hat[i, j] - exact[i, j]) <= 3 * se


def test_rayleigh_fading_runs_and_differs():
    dep = generate_deployment("uniform-iid", 20, Region(300, 300), 2)
    det = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.2, slots=500)
    ray = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.2,
                        fading="rayleigh-power", fading_mean=1.0, slots=500)
    a = simulate_hello(dep, det, 3)
    b = simulate_hello(dep, ray, 3)
    assert not np.array_equal(a.c, b.c)
    assert (b.c <= b.b[:, None]).all()


def test_predict_p_deterministic_closed_form():
    params = ChannelParams(p_t=2.0, eta=2.0, sigma2=0.5, beta=1.0, alpha=0.25, slots=1)
    cdf = EmpiricalCDF([0.1, 0.4, 0.7, 2.0])
    d = 1.3
    arg = (1 + params.beta) * params.p_t / (params.beta * d ** params.eta) - params.sigma2
    assert predict_p(d, cdf, params) == (1 - params.alpha) * cdf(arg)


def test_predict_p_vanishes_far_away():
    params = ChannelParams(p_t=2.0, eta=2.0, sigma2=0.5, beta=1.0, alpha=0.25, slots=1)
    cdf = EmpiricalCDF([0.1, 0.4, 0.7, 2.0])  # nonnegative support
    assert predict_p(1e9, cdf, params) == 0.0


@pytest.mark.parametrize("fading", ["deterministic", "rayleigh-power"])
def test_predict_p_monotone_in_distance(fading):
    params = ChannelParams(p_t=2.0, eta=3.0, sigma2=0.2, beta=1.5, alpha=0.3,
                           fading=fading, slots=1)
    cdf = EmpiricalCDF(np.random.default_rng(0).exponential(1.0, size=4000))
    grid = np.linspace(0.2, 10.0, 60)
    vals = [predict_p(d, cdf, params) for d in grid]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_predict_p_rayleigh_quadrature_vs_monte_carlo():
    params = ChannelParams(p_t=2.0, eta=2.5, sigma2=0.3, beta=1.0, alpha=0.2,
                           fading="rayleigh-power", fading_mean=1.3, slots=1)
    cdf = EmpiricalCDF(np.random.default_rng(1).exponential(2.0, size=2000))
    d = 1.7
    rng = np.random.default_rng(2)
    h = rng.exponential(params.fading_mean, size=200000)
    scale = (1 + params.beta) * params.p_t / (params.beta * d ** params.eta)
    mc = (1 - params.alpha) * np.mean(cdf(scale * h - params.sigma2))
    assert abs(predict_p(d, cdf, params) - mc) < 5e-3


def test_empirical_cdf():
    cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
    assert cdf(0.5) == 0.0
    assert cdf(2.0) == 0.5
    assert cdf(10.0) == 1.0
    assert cdf(-0.1) == 0.0


def test_annulus_index(unit_region):
    pos = np.array([[0.01, 0.5], [0.15, 0.5], [0.5, 0.5], [0.35, 0.35]])
    dep = Deployment(pos, "uniform-iid", unit_region, 0)
    idx = square_annulus_index(dep, 5)
    assert idx.tolist() == [0, 1, 4, 3]
    with pytest.raises(ValueError):
        square_annulus_index(Deployment(pos * [1, 0.5], "uniform-iid", Region(1.0, 0.5), 0), 5)


def test_power_histogram_point_mass():
    dep = line_deployment([100.0, 200.0], side=1000.0)
    params = ChannelParams(p_t=0.05, eta=2.0, sigma2=1e-12, beta=1.0, alpha=0.5, slots=400)
    hist = received_power_histogram(dep, params, 3, annuli=2)
    expected = 0.05 / 100.0 ** 2
    assert hist.bin_edges[-1] == pytest.approx(expected)
    for masses in hist.masses:
        if masses.sum():
            assert masses.sum() == pytest.approx(1.0)
            assert masses[-1] == pytest.approx(1.0)  # all samples at the top bin


def test_power_histogram_masses_normalised():
    dep = generate_deployment("uniform-iid", 200, Region(1000, 1000), 4)
    params = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.2, slots=200)
    hist = received_power_histogram(dep, params, 4, annuli=5)
    for masses, count in zip(hist.masses, hist.counts):
        if count:
            assert masses.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        received_power_histogram(dep, params, 4, annuli=0)
    silent = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.0, slots=10)
    with pytest.raises(ValueError):
        received_power_histogram(dep, silent, 4, annuli=5)


def test_power_histogram_inner_annuli_overlap():
    # Dense deployment, strong path loss: the innermost two annuli see
    # nearly identical total-power distributions.
    dep = generate_deployment("uniform-iid", 5000, Region(1000, 1000), 0)
    params = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.10, slots=150)
    hist = received_power_histogram(dep, params, 0, annuli=5)
    assert total_variation(hist.masses[-1], hist.masses[-2]) <= 0.1


def test_total_variation():
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
    with pytest.raises(ValueError):
        total_variation([1.0], [0.5, 0.5])


def test_homogeneity_grid_passes(unit_region):
    dep = generate_deployment("grid", 2500, unit_region, seed=0)
    ok, worst = homogeneity_check(dep, 0.1, 0.2, grid_step=0.05)
    assert ok
    assert abs(worst - 1.0) <= 0.2


def test_homogeneity_cluster_fails(unit_region):
    rng = np.random.default_rng(8)
    pos = rng.random((500, 2)) * 0.1  # everything in one corner
    dep = Deployment(pos, "uniform-iid", unit_region, 8)
    ok, worst = homogeneity_check(dep, 0.1, 0.5, grid_step=0.1)
    assert not ok


def test_homogeneity_uniform_passes(km_region):
    dep = generate_deployment("uniform-iid", 5000, km_region, seed=1)
    ok, worst = homogeneity_check(dep, 100.0, 0.3, grid_step=50.0)
    assert ok


def test_homogeneity_errors(km_region):
    dep = generate_deployment("uniform-iid", 100, km_region, seed=1)
    with pytest.raises(ValueError):
        homogeneity_check(dep, 600.0, 0.3, grid_step=50.0)  # interior empty
    with pytest.raises(ValueError):
        homogeneity_check(dep, 0.0, 0.3, grid_step=50.0)


def test_link_weight_table_validation():
    with pytest.raises(ValueError):
        LinkWeightTable(np.array([[0, 2], [0, 0]]), np.array([1, 1]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        LinkWeightTable(np.array([[1, 0], [0, 0]]), np.array([2, 2]), np.zeros((2, 2)))
    t = LinkWeightTable.from_counts(np.array([[0, 1], [2, 0]]), np.array([2, 4]))
    assert t.p_hat[0, 1] == 0.5 and t.p_hat[1, 0] == 0.5


def test_link_weight_subset_and_io(tmp_path):
    dep = generate_deployment("uniform-iid", 12, Region(200, 200), 6)
    table = simulate_hello(dep, ChannelParams(0.05, 4.0, 1e-10, 4.0, 0.3, slots=300), 6)
    sub = table.subset([3, 1, 7])
    ids = [1, 3, 7]
    assert np.array_equal(sub.c, table.c[np.ix_(ids, ids)])
    assert np.array_equal(sub.b, table.b[ids])
    save_link_weights(table, tmp_path / "w")
    back = load_link_weights(tmp_path / "w")
    assert np.array_equal(back.c, table.c)
    assert np.array_equal(back.b, table.b)
    assert np.array_equal(back.p_hat, table.p_hat)


def test_link_weight_subset_rejects_out_of_range_ids():
    table = LinkWeightTable.from_counts([[0, 1, 2], [3, 0, 4], [5, 6, 0]], [10, 10, 10])
    for ids in ([-1, 0], [0, 7]):
        with pytest.raises(ValueError, match="subset ids out of range"):
            table.subset(ids)
