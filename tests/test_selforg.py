import math

import numpy as np
import pytest

from conftest import (
    edge_format_cases, edge_set, line_deployment, reference_simulate_psi,
    reference_topology_adjacency,
)
from discrit.geometry import Region, distance_matrix, generate_deployment
from discrit.graphs import EdgeGraph, critical_radius, degree1_radius, graph_diameter, hop_matrix
from discrit.selforg import (
    SelfOrgParams, aloha_contention_constant, build_h_hop_topology, find_h_opt,
    optimal_hop_length, simulate_transport_capacity, theoretical_psi,
)

P = SelfOrgParams(alpha0=1.0, p_t=0.1, sigma2=2.33e-6, eta=2.0, w=1e6, q=0.001,
                  slots=4000, a=1.0)


def path_graph(n):
    return EdgeGraph(n, frozenset((i, i + 1) for i in range(n - 1)))


def test_params_validation():
    with pytest.raises(ValueError):
        SelfOrgParams(alpha0=0, p_t=1, sigma2=1, eta=2, w=1, q=0.5)
    with pytest.raises(ValueError):
        SelfOrgParams(alpha0=1, p_t=1, sigma2=1, eta=2, w=1, q=0.0)


def test_psi_vanishes_at_extremes():
    assert theoretical_psi(1e-12, P) < 1e-6
    assert theoretical_psi(1e12, P) < 1e-6
    with pytest.raises(ValueError):
        theoretical_psi(0.0, P)
    no_a = SelfOrgParams(alpha0=1.0, p_t=0.1, sigma2=1e-6, eta=2.0, w=1e6, q=0.5)
    with pytest.raises(ValueError):
        theoretical_psi(10.0, no_a)
    assert theoretical_psi(10.0, no_a, a=2.0) > 0


def test_optimal_hop_length_matches_brute_force():
    d_opt = optimal_hop_length(P, 1.0, 2000.0)
    grid = np.linspace(1.0, 2000.0, 400001)
    vals = grid * np.log1p(P.alpha0 * P.p_t / (grid ** P.eta * P.sigma2))
    brute = grid[np.argmax(vals)]
    assert abs(d_opt - brute) <= 1e-3 * brute


def test_h_hop_topology_examples():
    dep = generate_deployment("uniform-iid", 80, Region(1000, 1000), 1)
    _, cgg = critical_radius(dep)
    t1 = build_h_hop_topology(cgg, 1)
    assert edge_set(t1) == edge_set(cgg)

    g = path_graph(5)
    t2 = build_h_hop_topology(g, 2)
    assert edge_set(t2) == {(0, 2), (1, 3), (2, 4)}
    beyond = build_h_hop_topology(g, 7)
    assert edge_set(beyond) == set()
    with pytest.raises(ValueError):
        build_h_hop_topology(g, 0)
    with pytest.raises(ValueError):
        build_h_hop_topology(EdgeGraph(4, frozenset([(0, 1)])), 1)


def test_h_hop_topologies_partition_pairs():
    dep = generate_deployment("uniform-iid", 70, Region(1000, 1000), 2)
    _, cgg = critical_radius(dep)
    diam = graph_diameter(cgg)
    seen = set()
    total = 0
    for h in range(1, diam + 1):
        th = build_h_hop_topology(cgg, h)
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
        _, rows = find_h_opt(dep, cgg, P, h_max, seed=0)
        child_seeds = np.random.SeedSequence(0).spawn(h_max)
        for h, row in zip(range(1, h_max + 1), rows):
            topology = build_h_hop_topology(cgg, h)
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
        psi = simulate_transport_capacity(dep, cgg, h, P, seed=5)
        assert psi == reference_simulate_psi(dist, reference_topology_adjacency(hops, h), P, 5), label
    # Past the diameter T_h is empty and scores zero.
    dep = line_deployment([100.0, 200.0, 300.0], side=1000.0)
    _, rows = find_h_opt(dep, path_graph(3), P, 3, seed=0)
    assert [(r.n_edges, r.n_active) for r in rows] == [(2, 3), (1, 2), (0, 0)]
    assert rows[2].psi_sim == 0.0 and math.isnan(rows[2].mean_hop_len)


def test_disconnected_base_graph_rejected():
    dep = line_deployment([0.0, 1.0, 5.0, 6.0], side=10.0)
    _, g1 = degree1_radius(dep)
    with pytest.raises(ValueError, match="base graph must be connected"):
        find_h_opt(dep, g1, P, 2, seed=0)
    with pytest.raises(ValueError, match="base graph must be connected"):
        simulate_transport_capacity(dep, g1, 1, P, seed=0)


def test_find_h_opt_rejects_node_count_mismatch():
    region = Region(1000, 1000)
    _, g = critical_radius(generate_deployment("uniform-iid", 200, region, 0))
    dep = generate_deployment("uniform-iid", 300, region, 0)
    with pytest.raises(ValueError, match="graph has 200 nodes, deployment has 300"):
        find_h_opt(dep, g, P, 2, seed=0)


def test_two_node_aloha_closed_form():
    dep = line_deployment([100.0, 200.0], side=1000.0)
    g = path_graph(2)
    q, slots = 0.3, 100000
    params = SelfOrgParams(alpha0=1.0, p_t=0.1, sigma2=2.33e-6, eta=2.0, w=1e6,
                           q=q, slots=slots)
    d = 100.0
    credit = d * params.w * math.log1p(params.alpha0 * params.p_t / (d ** params.eta * params.sigma2))
    p_success = 2 * q * (1 - q)
    expect = p_success * credit
    se = credit * math.sqrt(p_success * (1 - p_success) / slots)
    psi = simulate_transport_capacity(dep, g, 1, params, seed=3)
    assert abs(psi - expect) <= 3 * se


def test_full_collisions_zero_capacity():
    dep = line_deployment([100.0, 200.0], side=1000.0)
    params = SelfOrgParams(alpha0=1.0, p_t=0.1, sigma2=2.33e-6, eta=2.0, w=1e6,
                           q=1.0, slots=200)
    assert simulate_transport_capacity(dep, path_graph(2), 1, params, seed=0) == 0.0


def test_empty_topology_error():
    dep = line_deployment([100.0, 200.0], side=1000.0)
    with pytest.raises(ValueError):
        simulate_transport_capacity(dep, path_graph(2), 5, P, seed=0)


def test_find_h_opt_hmax_one():
    dep = generate_deployment("uniform-iid", 60, Region(1000, 1000), 3)
    _, cgg = critical_radius(dep)
    h_opt, rows = find_h_opt(dep, cgg, P, 1, seed=0)
    assert h_opt == 1 and len(rows) == 1


def test_find_h_opt_noisy_channel_prefers_single_hop():
    # enormous noise floor pushes the capacity optimum to tiny hop lengths
    noisy = SelfOrgParams(alpha0=1.0, p_t=0.1, sigma2=1e6, eta=2.0, w=1e6,
                          q=0.01, slots=4000)
    dep = generate_deployment("uniform-iid", 80, Region(1000, 1000), 4)
    _, cgg = critical_radius(dep)
    h_opt, rows = find_h_opt(dep, cgg, noisy, 4, seed=1)
    assert h_opt == 1
    assert all(r.psi_sim >= 0 for r in rows)


def test_find_h_opt_deterministic():
    dep = generate_deployment("uniform-iid", 60, Region(1000, 1000), 5)
    _, cgg = critical_radius(dep)
    a = find_h_opt(dep, cgg, P, 3, seed=7)
    b = find_h_opt(dep, cgg, P, 3, seed=7)
    assert a[0] == b[0]
    assert [(r.psi_sim, r.psi_theory) for r in a[1]] == [(r.psi_sim, r.psi_theory) for r in b[1]]


def test_contention_constant():
    assert aloha_contention_constant(2, 0.5, 1.0) == pytest.approx(0.5)
    assert aloha_contention_constant(1, 0.3, 2.0) == pytest.approx(0.6)
