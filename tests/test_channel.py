import contextlib
import csv
import dataclasses
import itertools
import json
import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from discrit import channel
from conftest import (
    dense, enumerate_hello_p, hello_seed0_weights, line_deployment, reference_gain_matrix,
    reference_hello, reference_p_hat, reference_power_histogram, weights_from_dense,
)
from discrit.channel import (
    ChannelParams, EmpiricalCDF, LinkWeightTable, homogeneity_check,
    predict_p, received_power_histogram, save_link_weights,
    simulate_hello, square_annulus_index, total_variation,
)
from discrit.geometry import Deployment, Region, generate_deployment
from discrit.graphs import build_gg
from discrit.selforg import SelfOrgParams, theoretical_psi

PARAMS = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.10, slots=2000)
RAYLEIGH = {"fading": "rayleigh-power", "fading_mean": 1.0}


# The Hello kernel against the slot loop it replaced. The criterion 7
# and 8 seeds at the acceptance parameters; a 20 x 20 grid, whose equal
# spacing gives exact gain ties at a listener; beta below and above 1
# under both fading kinds (beta < 1 lets one listener decode several
# transmitters); every node transmitting; and a sparse alpha that leaves
# most slots without a transmitter. The rayleigh cases with mean 2.5, one
# slot, an odd slot count and idle slots check the slot loop's helper
# thread and its two reused coefficient buffers.
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
] + [
    pytest.param("uniform-iid", 300, 500.0, replace(SMALL, beta=beta, fading="rayleigh-power",
                                                    fading_mean=2.5), 6, id=f"beta{beta}-mean2.5")
    for beta in (0.5, 4.0)
] + [
    pytest.param("uniform-iid", 300, 500.0, replace(SMALL, slots=slots, **RAYLEIGH), 7,
                 id=f"rayleigh-slots{slots}")
    for slots in (1, 77)
] + [
    pytest.param("uniform-iid", 30, 300.0, replace(SMALL, alpha=0.02, slots=2000, **RAYLEIGH), 8,
                 id="idle-slots-rayleigh"),
]


@pytest.mark.parametrize("kind, n, side, params, seed", ACCEPTANCE_CASES + SMALL_CASES)
def test_hello_kernel_matches_reference(kind, n, side, params, seed):
    dep = generate_deployment(kind, n, Region(side, side), seed)
    table = simulate_hello(dep, params, seed)
    ref = reference_hello(dep, params, seed)
    assert np.array_equal(table.pairs, ref.pairs)
    assert np.array_equal(table.c, ref.c)
    assert np.array_equal(table.b, ref.b)


def _small_case(case_id):
    kind, n, side, params, seed = next(c.values for c in SMALL_CASES if c.id == case_id)
    return generate_deployment(kind, n, Region(side, side), seed), params, seed


def _matches_reference(dep, params, seed):
    table, ref = simulate_hello(dep, params, seed), reference_hello(dep, params, seed)
    return all(np.array_equal(getattr(table, f), getattr(ref, f)) for f in ("pairs", "c", "b"))


def test_hello_candidate_lists_past_uint8_and_empty_match_reference():
    # 400 nodes in a 100 m square, well inside the decode range
    # (p_t / (beta sigma2))^(1/eta) = 106 m of one another, and one node
    # over 700 m from all of them: a listener's candidate list outgrows uint8
    # ranks, and one listener has no candidate. A sparse alpha leaves few
    # transmitters a slot, so far ones are decoded too.
    pos = np.vstack([np.random.default_rng(9).random((400, 2)) * 100, [[600.0, 600.0]]])
    dep, params = Deployment(pos, "uniform-iid", Region(1000, 1000), 9), replace(PARAMS, alpha=0.01)
    gain = reference_gain_matrix(dep, params)
    k_j = (gain >= params.beta * params.sigma2).sum(axis=0)
    assert k_j.max() > 255 and k_j.min() == 0
    ref = reference_hello(dep, params, 9)
    i, j = ref.pairs.T
    assert ((gain[:, j] > gain[i, j]).sum(axis=0) > 255).any()  # a decode past rank 255
    assert _matches_reference(dep, params, 9)


def test_hello_pair_at_the_decode_limit_matches_reference():
    # Two nodes d = (p_t / (beta sigma2))^(1/eta) apart, and a few float
    # steps nearer and farther: the gain lies within rounding of beta
    # sigma2, on both sides of it. The slot loop decodes one pair whose
    # gain is below beta sigma2, so the candidate threshold needs its margin.
    floor = PARAMS.beta * PARAMS.sigma2
    d = (PARAMS.p_t / floor) ** (1 / PARAMS.eta)
    seen = set()
    for step in range(-3, 4):
        dep = line_deployment([10.0, 10.0 + d + step * math.ulp(10.0 + d)])
        gain = reference_gain_matrix(dep, PARAMS)[0, 1]
        assert abs(gain / floor - 1) < 1e-12
        seen.add((bool(gain >= floor), reference_hello(dep, PARAMS, 0).c.size > 0))
        assert _matches_reference(dep, PARAMS, 0)
    assert seen == {(True, True), (False, True), (False, False)}


def test_hello_block_memory_stays_below_twice_the_gain_matrix():
    # The gain matrix is 8 MB at n=1000; no n x n int64 table joins it.
    dep = generate_deployment("uniform-iid", 1000, Region(1000, 1000), 90)
    tracemalloc.start()
    try:
        simulate_hello(dep, replace(PARAMS, slots=300), 90)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1000 * 1000 * 8


@pytest.mark.parametrize("case_id", ["grid-ties", "beta1.0-deterministic",
                                     "beta4.0-deterministic", "alpha-one", "idle-slots"])
def test_hello_exact_branch_matches_reference(monkeypatch, case_id):
    # A band this wide holds every block total, so each listener's
    # decision is taken from the slot loop's own sum.
    monkeypatch.setattr(channel, "HELLO_BAND", 1e20)
    assert _matches_reference(*_small_case(case_id))


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("case_id", ["alpha-one", "idle-slots"])
def test_hello_block_sizes_match_reference(monkeypatch, case_id, block):
    # Blocks with no transmitter and with every node transmitting.
    monkeypatch.setattr(channel, "HELLO_BLOCK_SLOTS", block)
    assert _matches_reference(*_small_case(case_id))


def _spy_blocks(monkeypatch):
    calls = []
    blocks = channel._hello_blocks
    monkeypatch.setattr(channel, "_hello_blocks", lambda *args: calls.append(1) or blocks(*args))
    return calls


def test_hello_kernel_follows_params(monkeypatch):
    calls = _spy_blocks(monkeypatch)
    dep = generate_deployment("uniform-iid", 30, Region(300, 300), 5)
    for params, blocks in ((SMALL, True), (replace(SMALL, beta=1.0), True),
                           (replace(SMALL, beta=0.5), False),
                           (replace(SMALL, **RAYLEIGH), False)):
        calls.clear()
        simulate_hello(dep, params, 0)
        assert bool(calls) == blocks, params


def test_hello_coincident_nodes_match_reference(monkeypatch):
    # Two nodes at one point have an infinite gain, and 0 * inf in a
    # block total is NaN, so this deployment takes the slot loop.
    calls = _spy_blocks(monkeypatch)
    dep = generate_deployment("uniform-iid", 200, Region(500, 500), 3)
    pos = dep.positions.copy()
    pos[1] = pos[0]
    with np.errstate(divide="ignore"):
        assert _matches_reference(Deployment(pos, "uniform-iid", dep.region, 3), SMALL, 3)
    assert not calls


def _same_slots(a, b):
    return len(a) == len(b) and all(
        (x is None and y is None) or np.array_equal(x, y)
        for sa, sb in zip(a, b) for x, y in zip(sa, sb, strict=True))


def test_slot_helper_thread_ends_with_the_loop():
    # The slot loop's draw thread is gone once the consumer closes the
    # generator or leaves its loop by an exception, and a fresh call
    # yields the same first slots.
    params = replace(SMALL, **RAYLEIGH)
    dep = generate_deployment("uniform-iid", 300, Region(500, 500), 7)
    gain = channel._gain_matrix(dep, params)
    threads = threading.active_count()
    slots = channel._slots(gain, np.random.default_rng(7), params)
    closed = list(itertools.islice(slots, 3))
    assert threading.active_count() == threads + 1
    slots.close()
    assert threading.active_count() == threads
    raised = []
    with pytest.raises(RuntimeError, match="consumer"):
        for slot in channel._slots(gain, np.random.default_rng(7), params):
            raised.append(slot)
            if len(raised) == 3:
                raise RuntimeError("consumer stops")
    assert threading.active_count() == threads
    with contextlib.closing(channel._slots(gain, np.random.default_rng(7), params)) as slots:
        fresh = list(itertools.islice(slots, 3))
    assert threading.active_count() == threads
    assert _same_slots(fresh, closed) and _same_slots(fresh, raised)
    assert all(sig is not None for _, _, sig, _ in fresh)


# The in-place power and product against p_t * d ** -eta, on a grid
# (exact distance ties) and a uniform deployment with a coincident pair.
@pytest.mark.parametrize("eta", [2.0, 2.5, 3.3, 4.0])
@pytest.mark.parametrize("kind, n", [("grid", 400), ("uniform-iid", 300)])
def test_gain_matrix_matches_out_of_place(kind, n, eta):
    dep = generate_deployment(kind, n, Region(1000, 1000), 2)
    pos = dep.positions.copy()
    pos[1] = pos[0]
    if kind == "uniform-iid":
        dep = Deployment(pos, kind, dep.region, 2)
    params = replace(PARAMS, eta=eta)
    with np.errstate(divide="ignore"):
        got, want = channel._gain_matrix(dep, params), reference_gain_matrix(dep, params)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


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


@pytest.mark.parametrize("slots", [2.5, True, 0, np.float64(3.0), "5"])
def test_params_reject_non_integer_slots(slots):
    # 2.5 used to construct and then fail in range() with a bare TypeError; True ran one slot.
    with pytest.raises(ValueError, match="slots must be an integer >= 1"):
        ChannelParams(slots=slots)


def test_params_accept_numpy_integer_slots():
    assert ChannelParams(slots=np.int32(3)).slots == 3


def test_alpha_zero_is_error():
    dep = line_deployment([1.0, 4.0], side=10.0)
    with pytest.raises(ValueError):
        params = ChannelParams(p_t=1, eta=2, sigma2=1, beta=1, alpha=0.0, slots=10)
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
    p_hat = dense(simulate_hello(dep, params, 42))
    assert abs(p_hat[0, 1] - 0.5) <= 0.01
    assert abs(p_hat[1, 0] - 0.5) <= 0.01


def test_three_node_enumeration_oracle():
    pos = np.array([[400.0, 500.0], [460.0, 500.0], [550.0, 500.0]])
    dep = Deployment(pos, "uniform-iid", Region(1000, 1000), 0)
    params = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.10, slots=20000)
    exact = enumerate_hello_p(pos, params)
    table = simulate_hello(dep, params, 7)
    p_hat = dense(table)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            p = exact[i, j]
            se = math.sqrt(p * (1 - p) / table.b[i])
            assert abs(p_hat[i, j] - p) <= 3 * se + 1e-12


def test_counting_sanity_and_determinism():
    dep = generate_deployment("uniform-iid", 30, Region(300, 300), 5)
    a = simulate_hello(dep, PARAMS, 11)
    b = simulate_hello(dep, PARAMS, 11)
    assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("pairs", "c", "b"))
    c = dense(a, "c")
    assert (c <= a.b[:, None]).all()
    assert (np.diag(c) == 0).all()
    assert a.b.sum() > 0


def test_slln_error_shrinks_with_slots():
    pos = np.array([[400.0, 500.0], [460.0, 500.0], [550.0, 500.0]])
    dep = Deployment(pos, "uniform-iid", Region(1000, 1000), 0)
    errs = []
    for slots in (1000, 10000, 100000):
        params = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.10, slots=slots)
        exact = enumerate_hello_p(pos, params)
        table = simulate_hello(dep, params, 0)
        errs.append(float(np.abs(dense(table) - exact).max()))
    assert errs[0] >= errs[1] >= errs[2]
    params = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.10, slots=100000)
    exact = enumerate_hello_p(pos, params)
    table = simulate_hello(dep, params, 0)
    p_hat = dense(table)
    for i in range(3):
        for j in range(3):
            if i != j and 0 < exact[i, j] < 1:
                se = math.sqrt(exact[i, j] * (1 - exact[i, j]) / table.b[i])
                assert abs(p_hat[i, j] - exact[i, j]) <= 3 * se


def test_rayleigh_fading_runs_and_differs():
    dep = generate_deployment("uniform-iid", 20, Region(300, 300), 2)
    det = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.2, slots=500)
    ray = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.2,
                        fading="rayleigh-power", fading_mean=1.0, slots=500)
    a = simulate_hello(dep, det, 3)
    b = simulate_hello(dep, ray, 3)
    assert not np.array_equal(dense(a, "c"), dense(b, "c"))
    assert (dense(b, "c") <= b.b[:, None]).all()


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


def test_predict_p_rayleigh_is_the_exact_ecdf_expectation():
    # Sample s is counted iff h >= (s + sigma2) / scale, which has probability
    # exp(-(s + sigma2) / (scale mean)), and 1 where s + sigma2 <= 0 (s = -0.5).
    params = ChannelParams(p_t=2.0, eta=2.5, sigma2=0.3, beta=1.0, alpha=0.2,
                           fading="rayleigh-power", fading_mean=1.3, slots=1)
    d = 1.7
    m = (1 + params.beta) * params.p_t / (params.beta * d ** params.eta) * params.fading_mean
    expected = (1 - params.alpha) * (1.0 + math.exp(-(0.2 + 0.3) / m) + math.exp(-(1.1 + 0.3) / m)) / 3
    got = predict_p(d, EmpiricalCDF([1.1, -0.5, 0.2]), params)
    assert got == pytest.approx(expected, rel=1e-15, abs=0)


@pytest.mark.parametrize("fading", ["deterministic", "rayleigh-power"])
def test_predict_p_limits_where_d_eta_leaves_the_float_range(fading):
    # d^eta used to raise OverflowError at d = 1e80 and ZeroDivisionError at
    # d = 1e-300. The limits: 1 - alpha near, and far (1 - alpha) F(-sigma2),
    # which is the share of samples with s + sigma2 <= 0 (-0.5 and -0.3).
    params = ChannelParams(p_t=2.0, eta=4.0, sigma2=0.3, beta=1.0, alpha=0.2, fading=fading, slots=1)
    cdf = EmpiricalCDF([1.1, -0.5, 0.2, -0.3])
    for d in (5e-324, 1e-300, 1e-80, 1e-40):
        assert predict_p(d, cdf, params) == 1 - params.alpha, d
    for d in (1e40, 1e80, 1e300, 1.7e308):
        assert predict_p(d, cdf, params) == (1 - params.alpha) * 0.5, d


# Outside inputs whose checks used to let NaN (or Infinity) through to a
# result: an empty graph of radius nan, p = 0.9, psi = nan, a failed
# homogeneity verdict, and a NaN sample counted above every x.
@pytest.mark.parametrize("call", [
    lambda: build_gg(line_deployment([0.0, 1.0]), math.nan),
    lambda: predict_p(math.nan, EmpiricalCDF([0.1, 0.4]), PARAMS),
    lambda: predict_p(math.nan, EmpiricalCDF([0.1, 0.4]), replace(PARAMS, **RAYLEIGH)),
    lambda: theoretical_psi(math.nan, SelfOrgParams(), 1.0),
    lambda: theoretical_psi(math.inf, SelfOrgParams(), 1.0),
    lambda: homogeneity_check(generate_deployment("grid", 100, Region(1, 1), 0), 0.1, math.nan, 0.05),
    lambda: EmpiricalCDF([1.0, math.nan]),
], ids=["build_gg-nan", "predict_p-nan", "predict_p-rayleigh-nan", "theoretical_psi-nan",
        "theoretical_psi-inf", "homogeneity_check-eps-nan", "EmpiricalCDF-nan"])
def test_outside_inputs_reject_nan(call):
    with pytest.raises(ValueError):
        call()


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


@pytest.mark.parametrize("annuli", [0, 2.5, True])
def test_annulus_index_annuli_must_be_a_count(annuli, unit_region):
    # 0 used to raise ZeroDivisionError, 2.5 gave float ring indices and True one ring.
    dep = Deployment(np.array([[0.01, 0.5], [0.5, 0.5]]), "uniform-iid", unit_region, 0)
    with pytest.raises(ValueError, match="annuli must be an integer >= 1"):
        square_annulus_index(dep, annuli)


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
    with pytest.raises(ValueError):
        silent = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.0, slots=10)
        received_power_histogram(dep, silent, 4, annuli=5)


@pytest.mark.parametrize("annuli", [2.5, True, 0])
def test_power_histogram_annuli_must_be_a_count(annuli):
    # 2.5 used to fail in range() with a bare TypeError, and True ran one annulus.
    dep = generate_deployment("uniform-iid", 50, Region(1000, 1000), 4)
    with pytest.raises(ValueError, match="annuli must be an integer >= 1"):
        received_power_histogram(dep, SMALL, 4, annuli=annuli)


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


def _three_node_table(**change):
    rows = dict(n=3, pairs=[[0, 1], [1, 2], [2, 0]], c=[1, 2, 3], b=[4, 4, 4],
                p_hat=[0.25, 0.5, 0.75])
    return LinkWeightTable(**dict(rows, **change))


def test_link_weight_table_validation():
    t = _three_node_table()
    assert t.pairs.shape == (3, 2) and t.c.shape == t.p_hat.shape == (3,)
    for a in (t.pairs, t.c, t.b, t.p_hat):
        assert not a.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.c = np.zeros(3, np.int64)
    for c in ([5, 2, 3], [-1, 2, 3]):
        with pytest.raises(ValueError, match="0 <= c <= b"):
            _three_node_table(c=c)
    t = LinkWeightTable.from_counts(np.array([[0, 1], [2, 0]]), np.array([2, 4]))
    assert t.pairs.tolist() == [[0, 1], [1, 0]] and t.p_hat.tolist() == [0.5, 0.5]
    empty = LinkWeightTable.from_counts(np.zeros((3, 3), np.int64), [2, 0, 5])
    assert empty.pairs.shape == (0, 2) and empty.c.size == empty.p_hat.size == 0


@pytest.mark.parametrize("rows", [
    dict(pairs=[[0.5, 1.7]], c=[2], b=[3, 0, 0]),
    dict(pairs=[[True, False]], c=[1], b=[3, 3, 3]),
    dict(pairs=[[0, 1]], c=[2.9], b=[3, 0, 0]),
    dict(pairs=[[0, 1]], c=[True], b=[3, 0, 0]),
    dict(pairs=[[0, 1]], c=[2], b=[3.0, 0.0, 0.0]),
], ids=["pairs-float", "pairs-bool", "c-float", "c-bool", "b-float"])
def test_link_weight_table_rejects_float_and_bool_ids_and_counts(rows):
    # [[0.5, 1.7]] used to be stored as the pair (0, 1), c = 2.9 as 2, and
    # [[True, False]] as the pair (1, 0).
    with pytest.raises(ValueError, match="must be integers"):
        LinkWeightTable(n=3, p_hat=[0.9], **rows)


def test_link_weight_table_rejects_nan_weights():
    # NaN compares False both ways, so it must not slip past the range check
    # and reach the engine, which used to blame itself for it. A row is a
    # heard pair, so its weight is above 0.
    for bad in (np.nan, np.inf, -np.inf, 0.0, 1.5):
        with pytest.raises(ValueError, match=r"p_hat must lie in \(0, 1\]"):
            _three_node_table(p_hat=[0.25, bad, 0.75])


def test_link_weight_table_rejects_self_weights():
    # The weight engine reads the rows as the heard pairs, so a self row
    # would reach it as a self pair.
    with pytest.raises(ValueError, match="two distinct nodes"):
        _three_node_table(pairs=[[0, 1], [1, 1], [2, 0]])


@pytest.mark.parametrize("change, match", [
    pytest.param({"pairs": [[1, 2], [0, 1], [2, 0]]}, "row-major order", id="unsorted"),
    pytest.param({"pairs": [[0, 1], [0, 1], [2, 0]]}, "must be distinct", id="duplicate"),
    pytest.param({"pairs": [[0, 1], [1, 3], [2, 0]]}, r"nodes of 0\.\.2", id="id-too-large"),
    pytest.param({"pairs": [[-1, 1], [1, 2], [2, 0]]}, r"nodes of 0\.\.2", id="id-negative"),
    pytest.param({"c": [1, 2]}, "inconsistent table shapes", id="short-c"),
    pytest.param({"b": [4, 4]}, "inconsistent table shapes", id="short-b"),
    pytest.param({"pairs": [[0, 1, 2]]}, "inconsistent table shapes", id="pairs-3-wide"),
])
def test_link_weight_table_rejects_bad_rows(change, match):
    with pytest.raises(ValueError, match=match):
        _three_node_table(**change)


def _count_table(seed, n=40):
    """Dense Hello-like counts: sparse, no self counts, c[i, j] <= b[i],
    and a few silent nodes (b = 0)."""
    rng = np.random.default_rng(seed)
    b = rng.integers(0, 60, n)
    b[:3] = 0
    c = rng.integers(0, b[:, None] + 1, (n, n)) * (rng.random((n, n)) < 0.2)
    np.fill_diagonal(c, 0)
    return c, b


@pytest.mark.parametrize("seed", range(3))
def test_from_counts_matches_dense_formula(seed):
    # The rows against the dense table they replaced: the nonzero counts
    # in np.nonzero order, and the bits of the dense division.
    c, b = _count_table(seed)
    table, ref = LinkWeightTable.from_counts(c, b), reference_p_hat(c, b)
    assert np.array_equal(table.pairs, np.argwhere(c))
    assert np.array_equal(table.c, c[c > 0]) and np.array_equal(table.b, b)
    assert table.p_hat.tobytes() == ref[c > 0].tobytes()
    assert dense(table).tobytes() == ref.tobytes()


def test_hello_table_matches_dense_formula():
    table = hello_seed0_weights()
    assert dense(table).tobytes() == reference_p_hat(dense(table, "c"), table.b).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_subset_matches_dense_restriction(seed):
    c, b = _count_table(seed)
    ids = np.sort(np.random.default_rng(seed).choice(len(b), 25, replace=False))
    ix = np.ix_(ids, ids)
    sub = LinkWeightTable.from_counts(c, b).subset(ids[::-1])
    assert np.array_equal(dense(sub, "c"), c[ix]) and np.array_equal(sub.b, b[ids])
    assert dense(sub).tobytes() == reference_p_hat(c[ix], b[ids]).tobytes()
    # A table of weights alone keeps them; recomputing p_hat from c zeroed them.
    ref = reference_p_hat(c, b)
    assert dense(weights_from_dense(ref).subset(ids)).tobytes() == ref[ix].tobytes()


def test_link_weight_subset_and_io(tmp_path):
    dep = generate_deployment("uniform-iid", 12, Region(200, 200), 6)
    table = simulate_hello(dep, ChannelParams(0.05, 4.0, 1e-10, 4.0, 0.3, slots=300), 6)
    sub = table.subset([3, 1, 7])
    ids = [1, 3, 7]
    assert np.array_equal(dense(sub, "c"), dense(table, "c")[np.ix_(ids, ids)])
    assert np.array_equal(sub.b, table.b[ids])
    save_link_weights(table, tmp_path / "w")
    meta = json.loads((tmp_path / "w.weights.json").read_text())
    assert meta == {"n": 12, "b": table.b.tolist()}
    with open(tmp_path / "w.weights.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [[int(r["i"]), int(r["j"])] for r in rows] == table.pairs.tolist()
    assert [int(r["C"]) for r in rows] == table.c.tolist()
    assert [int(r["B"]) for r in rows] == table.b[table.pairs[:, 0]].tolist()
    assert [float(r["p_hat"]) for r in rows] == table.p_hat.tolist()


def test_link_weight_subset_rejects_out_of_range_ids():
    table = LinkWeightTable.from_counts([[0, 1, 2], [3, 0, 4], [5, 6, 0]], [10, 10, 10])
    for ids in ([-1, 0], [0, 7]):
        with pytest.raises(ValueError, match="subset ids out of range"):
            table.subset(ids)


def test_link_weight_subset_rejects_duplicate_ids():
    table = LinkWeightTable.from_counts([[0, 1, 2], [3, 0, 4], [5, 6, 0]], [10, 10, 10])
    with pytest.raises(ValueError, match="subset id 0 given twice"):
        table.subset([0, 0, 1])
