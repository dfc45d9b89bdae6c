import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    edge_format_cases, edge_set, line_deployment, reference_simulate_psi,
    reference_topology_adjacency,
)
from discrit import selforg
from discrit.geometry import Region, distance_matrix, generate_deployment
from discrit.graphs import EdgeGraph, critical_radius, degree1_radius, graph_diameter, hop_matrix
from discrit.selforg import (
    BANDWIDTH_HZ, MAC_CHUNK_DRAWS, MAC_PIECE_DRAWS, SelfOrgParams, _aloha_links, _credit, _h_hop_topologies,
    aloha_contention_constant, find_h_opt, optimal_hop_length, theoretical_psi,
)

P = SelfOrgParams(p_t=0.1, sigma2=2.33e-6, eta=2.0, q=0.001, slots=4000)


def path_graph(n):
    return EdgeGraph(n, frozenset((i, i + 1) for i in range(n - 1)))


def test_params_validation():
    with pytest.raises(ValueError):
        SelfOrgParams(p_t=0, sigma2=1, eta=2, q=0.5)
    with pytest.raises(ValueError):
        SelfOrgParams(p_t=1, sigma2=1, eta=2, q=0.0)


@pytest.mark.parametrize("field, value", [
    ("slots", 100.5), ("slots", True), ("h_max", 2.5), ("h_max", True), ("h_max", np.float64(2.0))])
def test_params_reject_non_integer_counts(field, value):
    # These used to construct and then fail in range() or the list product
    # with a bare TypeError; True ran as 1.
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
        SelfOrgParams(**{field: value})


def test_params_accept_numpy_integer_counts():
    p = SelfOrgParams(slots=np.int64(300), h_max=np.int32(2))
    assert (p.slots, p.h_max) == (300, 2)


def test_psi_vanishes_at_extremes():
    assert theoretical_psi(1e-12, P, 1.0) < 1e-6
    assert theoretical_psi(1e12, P, 1.0) < 1e-6
    with pytest.raises(ValueError):
        theoretical_psi(0.0, P, 1.0)
    other = SelfOrgParams(p_t=0.1, sigma2=1e-6, eta=2.0, q=0.5)
    assert theoretical_psi(10.0, other, 2.0) > 0


def test_optimal_hop_length_matches_brute_force():
    d_opt = optimal_hop_length(P, 1.0, 2000.0)
    grid = np.linspace(1.0, 2000.0, 400001)
    vals = grid * np.log1p(P.p_t / (grid ** P.eta * P.sigma2))
    brute = grid[np.argmax(vals)]
    assert abs(d_opt - brute) <= 1e-3 * brute


@pytest.mark.parametrize("eta", [1.05, 1.5, 2.0, 3.0, 4.0])
def test_optimal_hop_length_is_the_slope_root(eta):
    # d log(1 + x), x = K / d^eta, has slope log1p(x) - eta x / (1 + x)
    p = replace(P, eta=eta)
    d = optimal_hop_length(p, 1e-3, 1e12)
    x = p.p_t / (d ** eta * p.sigma2)
    assert abs(math.log1p(x) - eta * x / (1 + x)) <= 1e-12 * math.log1p(x)


@pytest.mark.parametrize("eta", [0.5, 1.0])
def test_optimal_hop_length_without_interior_peak_is_d_hi(eta):
    assert optimal_hop_length(replace(P, eta=eta), 1.0, 2000.0) == 2000.0


def test_optimal_hop_length_clips_to_the_interval():
    d_star = optimal_hop_length(P, 1e-3, 1e12)
    assert 1.0 < d_star < 2000.0
    assert optimal_hop_length(P, 2 * d_star, 3 * d_star) == 2 * d_star
    assert optimal_hop_length(P, d_star / 3, d_star / 2) == d_star / 2


def test_h_hop_topology_examples():
    dep = generate_deployment("uniform-iid", 80, Region(1000, 1000), 1)
    _, cgg = critical_radius(dep)
    [t1] = _h_hop_topologies(hop_matrix(cgg), 1)
    assert edge_set(t1) == edge_set(cgg)

    t = _h_hop_topologies(hop_matrix(path_graph(5)), 7)
    assert edge_set(t[1]) == {(0, 2), (1, 3), (2, 4)}
    assert edge_set(t[6]) == set()


def test_h_hop_topologies_partition_pairs():
    dep = generate_deployment("uniform-iid", 70, Region(1000, 1000), 2)
    _, cgg = critical_radius(dep)
    diam = graph_diameter(cgg)
    seen = set()
    total = 0
    for th in _h_hop_topologies(hop_matrix(cgg), diam):
        assert not (edge_set(th) & seen)
        seen |= edge_set(th)
        total += th.num_edges
    assert total == 70 * 69 // 2


def test_h_hop_topology_matches_reference():
    # T_h's edges and CSR against the flattened adjacency and the
    # triu pairs that selforg used to read off the hop matrix; psi and
    # the mean hop length against the old Aloha loop, h = 1..8, where
    # every node contends, and at the diameter, where few do.
    h_max = 8
    for label, dep, _, _ in edge_format_cases():
        cgg = critical_radius(dep)[1]
        hops, dist = hop_matrix(cgg), distance_matrix(dep)
        _, rows = find_h_opt(dep, cgg, replace(P, h_max=h_max), seed=0)
        child_seeds = np.random.SeedSequence(0).spawn(h_max)
        for h, (row, topology) in enumerate(zip(rows, _h_hop_topologies(hops, h_max)), start=1):
            iu = np.nonzero(np.triu(hops == h, 1))
            assert np.array_equal(topology.edges, np.column_stack(iu)), (label, h)
            active, deg, flat, start = adj = reference_topology_adjacency(hops, h)
            csr = topology._csr
            assert np.array_equal(np.flatnonzero(np.diff(csr.indptr)), active), (label, h)
            assert np.array_equal(np.diff(csr.indptr)[active], deg), (label, h)
            assert np.array_equal(csr.indices, flat), (label, h)
            assert np.array_equal(csr.indptr[active], start), (label, h)
            assert (row.n_edges, row.n_active) == (iu[0].size, active.size), (label, h)
            assert row.mean_hop_len == float(dist[iu].mean()), (label, h)
            assert row.psi_sim == reference_simulate_psi(dist, adj, P, child_seeds[h - 1]), (label, h)
        # At the diameter only the ends of the longest paths contend.
        h = graph_diameter(cgg)
        topologies = _h_hop_topologies(hops, h + 2)
        for k, topology in enumerate(topologies, start=1):
            assert np.array_equal(topology.edges, np.argwhere(np.triu(hops == k, 1))), (label, k)
        child = np.random.SeedSequence(5).spawn(h)[h - 1]
        psi = _credit(dep, _aloha_links(topologies[h - 1], P, child), P)
        assert psi == reference_simulate_psi(dist, reference_topology_adjacency(hops, h), P, child), label
    # Past the diameter T_h is empty and scores zero.
    dep = line_deployment([100.0, 200.0, 300.0], side=1000.0)
    _, rows = find_h_opt(dep, path_graph(3), replace(P, h_max=3), seed=0)
    assert [(r.n_edges, r.n_active) for r in rows] == [(2, 3), (1, 2), (0, 0)]
    assert rows[2].psi_sim == 0.0 and math.isnan(rows[2].mean_hop_len)


def test_aloha_raw_draws_match_reference_loop():
    # Attempts read off raw 64-bit draws against the rng.random() loop:
    # q = 1, a single link (each winner has one destination), slot
    # counts on both sides of a chunk boundary, and single chunks of
    # exactly k pieces of attempt draws and one draw fewer or more
    # (2, 3 and 5 contenders on paths of 2, 3 and 5 nodes).
    pair = line_deployment([100.0, 200.0], side=1000.0)
    dep = generate_deployment("uniform-iid", 1000, Region(1000, 1000), 0)
    cgg = critical_radius(dep)[1]
    chunk = MAC_CHUNK_DRAWS // cgg.n
    cases = [(pair, path_graph(2), 1.0, 300), (pair, path_graph(2), 0.3, 5000),
             (dep, cgg, 1.0, 50)]
    cases += [(dep, cgg, 0.001, slots) for slots in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1)]
    for draws in (MAC_PIECE_DRAWS, MAC_PIECE_DRAWS + 1, 2 * MAC_PIECE_DRAWS - 1, 2 * MAC_PIECE_DRAWS,
                  2 * MAC_PIECE_DRAWS + 1):
        k = next(k for k in (2, 3, 5) if draws % k == 0)
        line = line_deployment([100.0 * (x + 1) for x in range(k)], side=1000.0)
        cases.append((line, path_graph(k), 0.3, draws // k))
    for case, (d, g, q, slots) in enumerate(cases):
        p = replace(P, q=q, slots=slots)
        adj = reference_topology_adjacency(hop_matrix(g), 1)
        expect = reference_simulate_psi(distance_matrix(d), adj, p, case)
        assert _credit(d, _aloha_links(g, p, case), p) == expect, case
    assert expect > 0


def test_find_h_opt_rows_independent_of_cpu_count(monkeypatch):
    # One worker thread or one per h: the same rows as on every CPU.
    dep = generate_deployment("uniform-iid", 1000, Region(1000, 1000), 0)
    cgg = critical_radius(dep)[1]
    rows = find_h_opt(dep, cgg, P, seed=3)[1]
    assert all(r.n_edges for r in rows)  # no NaN mean hop length, so == compares every field
    for cpus in ({0}, set(range(P.h_max))):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert find_h_opt(dep, cgg, P, seed=3)[1] == rows, cpus
    # Off Linux there is no sched_getaffinity; the CPU count stands in.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert find_h_opt(dep, cgg, P, seed=3)[1] == rows
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # which may not know either
    assert find_h_opt(dep, cgg, P, seed=3)[1] == rows


def test_find_h_opt_calls_public_functions_on_main_thread(monkeypatch):
    # The benchmark tracer keeps one span stack for every thread, so the
    # worker threads must not call traced (public) functions.
    threads = []
    for name in ("pair_distances", "link_rate"):
        def spy(*args, fn=getattr(selforg, name), **kwargs):
            threads.append(threading.current_thread())
            return fn(*args, **kwargs)
        monkeypatch.setattr(selforg, name, spy)
    dep = generate_deployment("uniform-iid", 300, Region(1000, 1000), 0)
    find_h_opt(dep, critical_radius(dep)[1], P, seed=0)
    assert threads and set(threads) == {threading.main_thread()}


def test_disconnected_base_graph_rejected():
    dep = line_deployment([0.0, 1.0, 5.0, 6.0], side=10.0)
    _, g1 = degree1_radius(dep)
    with pytest.raises(ValueError, match="base graph must be connected"):
        find_h_opt(dep, g1, replace(P, h_max=2), seed=0)


def test_find_h_opt_rejects_node_count_mismatch():
    region = Region(1000, 1000)
    _, g = critical_radius(generate_deployment("uniform-iid", 200, region, 0))
    dep = generate_deployment("uniform-iid", 300, region, 0)
    with pytest.raises(ValueError, match="graph has 200 nodes, deployment has 300"):
        find_h_opt(dep, g, replace(P, h_max=2), seed=0)


def test_two_node_aloha_closed_form():
    dep = line_deployment([100.0, 200.0], side=1000.0)
    g = path_graph(2)
    q, slots = 0.3, 100000
    params = SelfOrgParams(p_t=0.1, sigma2=2.33e-6, eta=2.0, q=q, slots=slots, h_max=1)
    d = 100.0
    credit = d * BANDWIDTH_HZ * math.log1p(params.p_t / (d ** params.eta * params.sigma2))
    p_success = 2 * q * (1 - q)
    expect = p_success * credit
    se = credit * math.sqrt(p_success * (1 - p_success) / slots)
    psi = find_h_opt(dep, g, params, seed=3)[1][0].psi_sim
    assert abs(psi - expect) <= 3 * se


def test_full_collisions_zero_capacity():
    dep = line_deployment([100.0, 200.0], side=1000.0)
    params = SelfOrgParams(p_t=0.1, sigma2=2.33e-6, eta=2.0, q=1.0, slots=200, h_max=1)
    assert find_h_opt(dep, path_graph(2), params, seed=0)[1][0].psi_sim == 0.0


def test_find_h_opt_hmax_one():
    dep = generate_deployment("uniform-iid", 60, Region(1000, 1000), 3)
    _, cgg = critical_radius(dep)
    h_opt, rows = find_h_opt(dep, cgg, replace(P, h_max=1), seed=0)
    assert h_opt == 1 and len(rows) == 1


def test_find_h_opt_noisy_channel_prefers_single_hop():
    # enormous noise floor pushes the capacity optimum to tiny hop lengths
    noisy = SelfOrgParams(p_t=0.1, sigma2=1e6, eta=2.0, q=0.01, slots=4000)
    dep = generate_deployment("uniform-iid", 80, Region(1000, 1000), 4)
    _, cgg = critical_radius(dep)
    h_opt, rows = find_h_opt(dep, cgg, replace(noisy, h_max=4), seed=1)
    assert h_opt == 1
    assert all(r.psi_sim >= 0 for r in rows)


def test_find_h_opt_deterministic():
    dep = generate_deployment("uniform-iid", 60, Region(1000, 1000), 5)
    _, cgg = critical_radius(dep)
    a = find_h_opt(dep, cgg, replace(P, h_max=3), seed=7)
    b = find_h_opt(dep, cgg, replace(P, h_max=3), seed=7)
    assert a[0] == b[0]
    assert [(r.psi_sim, r.psi_theory) for r in a[1]] == [(r.psi_sim, r.psi_theory) for r in b[1]]


def test_contention_constant():
    assert aloha_contention_constant(2, 0.5) == pytest.approx(0.5 * BANDWIDTH_HZ)
    assert aloha_contention_constant(1, 0.3) == pytest.approx(0.3 * BANDWIDTH_HZ)
