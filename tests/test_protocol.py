import numpy as np
import pytest

from conftest import (
    edge_format_cases, edge_set, line_deployment, reference_bidirectionalize,
)
from discrit.channel import LinkWeightTable
from discrit.geometry import Region, distance_matrix, generate_deployment
from discrit.graphs import degree1_radius, graph_diameter, is_connected
from discrit.protocol import run_discrit, run_range_algorithm, trace_to_csv


def synthetic_weights(dep, scale=1.0):
    d = distance_matrix(dep)
    with np.errstate(under="ignore"):
        p = np.exp(-d / scale)
    np.fill_diagonal(p, 0.0)
    n = dep.n
    return LinkWeightTable(np.zeros((n, n), np.int64), np.zeros(n, np.int64), p)


def test_two_nodes_converges_immediately():
    dep = line_deployment([2.0, 7.0], side=10.0)
    g, trace = run_range_algorithm(dep)
    assert trace.iterations == 0
    assert edge_set(g) == {(0, 1)}
    assert trace.final_thresholds().tolist() == [5.0, 5.0]


def test_collinear_013_hand_trace():
    dep = line_deployment([0.0, 1.0, 3.0], side=10.0)
    g, trace = run_range_algorithm(dep)
    assert trace.final_thresholds().tolist() == [2.0, 2.0, 2.0]
    assert edge_set(g) == {(0, 1), (1, 2)}
    _, g1 = degree1_radius(dep)
    assert edge_set(g) == edge_set(g1)


def test_collinear_0156_disconnected_immediate():
    # all initial ranges equal 1; nothing ever changes and the two
    # nearest-neighbour pairs stay separate components
    dep = line_deployment([0.0, 1.0, 5.0, 6.0], side=10.0)
    g, trace = run_range_algorithm(dep)
    assert trace.iterations == 0
    assert edge_set(g) == {(0, 1), (2, 3)}


def test_converges_to_degree1_graph_within_diameter():
    checked = 0
    for seed in range(25):
        dep = generate_deployment("uniform-iid", 60, Region(1000, 1000), seed)
        _, g1 = degree1_radius(dep)
        if not is_connected(g1):
            continue
        g, trace = run_range_algorithm(dep)
        assert edge_set(g) == edge_set(g1)
        assert trace.iterations <= graph_diameter(g1)
        checked += 1
    assert checked >= 5


def test_trace_final_snapshots_identical_and_fixed_point():
    dep = generate_deployment("uniform-iid", 40, Region(1000, 1000), 3)
    _, trace = run_range_algorithm(dep)
    assert np.array_equal(trace.thresholds[-1], trace.thresholds[-2])
    # one extra forced round changes nothing: replay the update by hand
    d = distance_matrix(dep)
    thr = trace.final_thresholds()
    member = d <= thr[:, None]
    replay = np.where(member, thr[:, None], -np.inf).max(axis=0)
    assert np.array_equal(np.maximum(replay, thr), thr)


def test_thresholds_are_initial_values_and_bounded():
    dep = generate_deployment("uniform-iid", 50, Region(1000, 1000), 9)
    r1, _ = degree1_radius(dep)
    _, trace = run_range_algorithm(dep)
    initials = set(trace.thresholds[0].tolist())
    for snap in trace.thresholds:
        assert set(snap.tolist()) <= initials
        assert snap.max() <= r1
    # distance mode: per-node thresholds never decrease
    stacked = np.stack(trace.thresholds)
    assert (np.diff(stacked, axis=0) >= 0).all()


def test_iteration_growth_sublinear():
    # median rounds-to-converge grows like the hop diameter, i.e. far
    # slower than n: the 16x node increase must stay within a 4x
    # iteration increase (square-root scaling with slack)
    medians = {}
    for n in (100, 400, 1600):
        iters = []
        for seed in range(7):
            dep = generate_deployment("uniform-iid", n, Region(1000, 1000), seed)
            _, trace = run_range_algorithm(dep)
            iters.append(trace.iterations)
        medians[n] = sorted(iters)[len(iters) // 2]
    assert medians[1600] <= 4 * max(medians[100], 1)


def test_message_accounting_first_round():
    dep = generate_deployment("uniform-iid", 30, Region(1000, 1000), 1)
    _, trace = run_range_algorithm(dep, suppress=False)
    assert trace.messages_per_round[0] == int(trace.degrees[0].sum())
    assert trace.messages == sum(trace.messages_per_round)


def test_suppression_equivalence():
    for seed in (0, 4, 8):
        dep = generate_deployment("uniform-iid", 50, Region(1000, 1000), seed)
        g_on, t_on = run_range_algorithm(dep, suppress=True)
        g_off, t_off = run_range_algorithm(dep, suppress=False)
        assert edge_set(g_on) == edge_set(g_off)
        assert t_on.iterations == t_off.iterations
        assert t_on.messages <= t_off.messages


def test_distributed_termination_agrees():
    deps = [line_deployment([0.0, 1.0, 3.0], side=10.0)]
    deps += [generate_deployment("uniform-iid", 45, Region(1000, 1000), s) for s in (0, 2, 5)]
    for dep in deps:
        g_c, t_c = run_range_algorithm(dep, termination="centralized")
        g_d, t_d = run_range_algorithm(dep, termination="distributed", timeout_rounds=1)
        assert edge_set(g_c) == edge_set(g_d)
        assert t_c.iterations == t_d.iterations
        # the final timeout_rounds = 1 round is quiet: no message, no change
        assert t_d.messages_per_round[-1] == 0
        assert np.array_equal(t_d.thresholds[-1], t_d.thresholds[-2])


def test_two_node_distributed_timeout_one():
    dep = line_deployment([2.0, 7.0], side=10.0)
    g_c, t_c = run_range_algorithm(dep, termination="centralized")
    g_d, t_d = run_range_algorithm(dep, termination="distributed", timeout_rounds=1)
    assert edge_set(g_c) == edge_set(g_d)
    assert t_c.iterations == t_d.iterations == 0


def test_distributed_requires_suppression():
    dep = line_deployment([2.0, 7.0], side=10.0)
    with pytest.raises(ValueError):
        run_range_algorithm(dep, termination="distributed", suppress=False)
    with pytest.raises(ValueError):
        run_range_algorithm(dep, termination="distributed", timeout_rounds=0)


def test_discrit_two_nodes_bidirectional():
    p = np.array([[0.0, 0.4], [0.6, 0.0]])
    w = LinkWeightTable(np.zeros((2, 2), np.int64), np.zeros(2, np.int64), p)
    g, trace = run_discrit(w)
    assert edge_set(g) == {(0, 1)}
    # weight-mode thresholds never increase
    stacked = np.stack(trace.thresholds)
    assert (np.diff(stacked, axis=0) <= 0).all()
    assert trace.final_thresholds().tolist() == [0.4, 0.4]


def test_discrit_matches_range_algorithm_on_monotone_weights():
    for seed in (1, 5):
        dep = generate_deployment("uniform-iid", 120, Region(1000, 1000), seed)
        g_dist, t_dist = run_range_algorithm(dep)
        g_w, t_w = run_discrit(synthetic_weights(dep))
        assert edge_set(g_dist) == edge_set(g_w)
        assert t_dist.iterations == t_w.iterations


def test_discrit_isolated_node_error():
    p = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.1, 0.1, 0.0]])
    w = LinkWeightTable(np.zeros((3, 3), np.int64), np.zeros(3, np.int64), p)
    with pytest.raises(ValueError, match="node 2"):
        run_discrit(w)


def test_discrit_threshold_floor_and_membership():
    dep = generate_deployment("uniform-iid", 60, Region(1000, 1000), 14)
    w = synthetic_weights(dep)
    _, trace = run_discrit(w)
    initials = set(trace.thresholds[0].tolist())
    p_floor = min(initials)
    for snap in trace.thresholds:
        assert set(snap.tolist()) <= initials
        assert snap.min() >= p_floor


def test_protocol_graph_matches_bidirectionalize_reference():
    # The engine's array output against the per-node adjacency sets it
    # used to build and hand to the set-based bidirectionalize.
    for label, dep, g, member in edge_format_cases():
        adjacency = [set(np.flatnonzero(member[i]).tolist()) - {i} for i in range(dep.n)]
        ref = reference_bidirectionalize(adjacency)
        assert g.n == ref.n
        assert edge_set(g) == ref.edges, label


def test_trace_csv(tmp_path):
    dep = line_deployment([0.0, 1.0, 3.0], side=10.0)
    _, trace = run_range_algorithm(dep)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,node,threshold,degree"
    assert len(lines) == 1 + 3 * len(trace.thresholds)
