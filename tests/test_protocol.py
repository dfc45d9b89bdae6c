import numpy as np
import pytest

from conftest import (
    dense, edge_format_cases, edge_format_deployments, edge_set, hello_seed0_weights,
    line_deployment, read_trace_csv, reference_bidirectionalize, reference_minmax,
    weights_from_dense,
)
from discrit.geometry import Region, distance_matrix, generate_deployment
from discrit.graphs import degree1_radius, graph_diameter, is_connected
from discrit.protocol import ProtocolTrace, run_discrit, run_range_algorithm, trace_to_csv


def synthetic_weights(dep, scale=1.0):
    d = distance_matrix(dep)
    with np.errstate(under="ignore"):
        p = np.exp(-d / scale)
    np.fill_diagonal(p, 0.0)
    return weights_from_dense(p)


def test_two_nodes_converges_immediately():
    dep = line_deployment([2.0, 7.0], side=10.0)
    g, trace = run_range_algorithm(dep)
    assert trace.iterations == 0
    assert edge_set(g) == {(0, 1)}
    assert trace.thresholds[-1].tolist() == [5.0, 5.0]


def test_collinear_013_hand_trace():
    dep = line_deployment([0.0, 1.0, 3.0], side=10.0)
    g, trace = run_range_algorithm(dep)
    assert trace.thresholds[-1].tolist() == [2.0, 2.0, 2.0]
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
    thr = trace.thresholds[-1]
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
    _, trace = run_range_algorithm(dep)
    assert trace.messages_per_round[0] == int(trace.degrees[0].sum())
    assert trace.messages == sum(trace.messages_per_round)


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


def test_distributed_rejects_timeout_zero():
    dep = line_deployment([2.0, 7.0], side=10.0)
    with pytest.raises(ValueError):
        run_range_algorithm(dep, termination="distributed", timeout_rounds=0)


@pytest.mark.parametrize("timeout_rounds", [1.5, True, 0])
def test_timeout_rounds_must_be_a_count(timeout_rounds):
    # 1.5 used to run as 2, and True as 1.
    dep = line_deployment([2.0, 7.0], side=10.0)
    with pytest.raises(ValueError, match="timeout_rounds must be an integer >= 1"):
        run_range_algorithm(dep, termination="distributed", timeout_rounds=timeout_rounds)


def test_discrit_two_nodes_bidirectional():
    w = weights_from_dense([[0.0, 0.4], [0.6, 0.0]])
    g, trace = run_discrit(w)
    assert edge_set(g) == {(0, 1)}
    # weight-mode thresholds never increase
    stacked = np.stack(trace.thresholds)
    assert (np.diff(stacked, axis=0) <= 0).all()
    assert trace.thresholds[-1].tolist() == [0.4, 0.4]


def test_discrit_matches_range_algorithm_on_monotone_weights():
    for seed in (1, 5):
        dep = generate_deployment("uniform-iid", 120, Region(1000, 1000), seed)
        g_dist, t_dist = run_range_algorithm(dep)
        g_w, t_w = run_discrit(synthetic_weights(dep))
        assert edge_set(g_dist) == edge_set(g_w)
        assert t_dist.iterations == t_w.iterations


def test_discrit_isolated_node_error():
    w = weights_from_dense([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.1, 0.1, 0.0]])
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


def assert_same_run(got, want, label):
    (g, t), (rg, rt) = got, want
    assert g.n == rg.n and np.array_equal(g.edges, rg.edges), label
    for name in ("mode", "termination", "messages_per_round", "rounds", "iterations", "messages"):
        assert getattr(t, name) == getattr(rt, name), (label, name)
    for name in ("thresholds", "degrees"):
        snaps, ref = getattr(t, name), getattr(rt, name)
        assert len(snaps) == len(ref), (label, name)
        for k, (a, b) in enumerate(zip(snaps, ref)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (label, name, k)


@pytest.mark.parametrize("termination, timeout_rounds", [
    pytest.param("centralized", 1, id="centralized"),
    pytest.param("distributed", 1, id="distributed-timeout1"),
    pytest.param("distributed", 2, id="distributed-timeout2"),
])
def test_engine_matches_dense_reference(termination, timeout_rounds):
    # The candidate-pair engine against the dense engine it replaced:
    # every snapshot, message count and edge must be identical.
    options = dict(termination=termination, timeout_rounds=timeout_rounds)
    deps = list(edge_format_deployments())
    deps += [("two-nodes", line_deployment([2.0, 7.0], side=10.0)),
             ("collinear-0156", line_deployment([0.0, 1.0, 5.0, 6.0], side=10.0))]
    for label, dep in deps:
        want = reference_minmax(distance_matrix(dep), "distance", lambda t: t.copy(), **options)
        assert_same_run(run_range_algorithm(dep, **options), want, label)
    # The Hello table is sparse; four in five entries of the criterion-5
    # table are nonzero, so the engine's key <= kmax cut picks the pairs.
    # In the one-way table node 0 hears node 1, but 1 never hears 0.
    one_way = np.array([[0.0, 0.0, 0.0], [0.6, 0.0, 0.5], [0.0, 0.5, 0.0]])
    tables = [("hello-seed0-weights", hello_seed0_weights()),
              ("criterion5-exp-d", synthetic_weights(
                  generate_deployment("uniform-iid", 300, Region(1000, 1000), 0))),
              ("one-way", weights_from_dense(one_way))]
    for label, weights in tables:
        want = reference_minmax(-dense(weights).T, "discrit", lambda t: -t, **options)
        assert_same_run(run_discrit(weights, **options), want, label)


def assert_trace_csv_round_trips(trace, path):
    """Forward-filling the change events (conftest.read_trace_csv) gives
    back every snapshot bit for bit, from rows that are all needed."""
    trace_to_csv(trace, path)
    thresholds, degrees, rows = read_trace_csv(path)
    want_thr, want_deg = np.stack(trace.thresholds), np.stack(trace.degrees)
    assert thresholds.shape == want_thr.shape and thresholds.tobytes() == want_thr.tobytes()
    assert degrees.shape == want_deg.shape and np.array_equal(degrees, want_deg)

    keys = [(r.iteration, r.node) for r in rows]
    assert keys == sorted(set(keys))
    k, n = want_thr.shape
    for snapshot in (0, k - 1):
        assert [r.node for r in rows if r.iteration == snapshot] == list(range(n))
    middle = [r for r in rows if 0 < r.iteration < k - 1]
    for r in middle:
        before = (want_thr[r.iteration - 1, r.node], want_deg[r.iteration - 1, r.node])
        assert (r.threshold, r.degree) != before, r
    return middle


@pytest.mark.parametrize("weight_mode, options", [
    pytest.param(False, {}, id="distance-uniform"),
    pytest.param(True, {}, id="weight-hello-seed0"),
    pytest.param(False, dict(termination="distributed", timeout_rounds=2), id="distributed-timeout2"),
])
def test_trace_csv_round_trips(tmp_path, weight_mode, options):
    if weight_mode:
        _, trace = run_discrit(hello_seed0_weights(), **options)
    else:
        dep = generate_deployment("uniform-iid", 300, Region(1000, 1000), 0)
        _, trace = run_range_algorithm(dep, **options)
    middle = assert_trace_csv_round_trips(trace, tmp_path / "trace.csv")
    k, n = len(trace.thresholds), trace.thresholds[0].size
    assert len(middle) + 2 * n < k * n
    if options:
        # the last two rounds are quiet: nothing changes, nothing is written
        assert trace.rounds >= trace.iterations + 2
        assert not [r for r in middle if r.iteration >= k - 2]


def test_trace_csv_writes_a_lone_degree_change(tmp_path):
    # The engine's degrees follow each node's own threshold, but the
    # format does not rely on it: a degree change alone is a row too.
    trace = ProtocolTrace(mode="distance", termination="centralized",
                          thresholds=[np.array([1.0, 2.0, 0.0])] * 4,
                          degrees=[np.array(d) for d in ([1, 1, 0], [1, 2, 0], [1, 2, 0], [1, 2, 0])])
    middle = assert_trace_csv_round_trips(trace, tmp_path / "trace.csv")
    assert middle == [(1, 1, 2.0, 2)]
