from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    edge_format_cases, edge_set, kdtree_degree1, line_deployment, reference_build_gg,
    reference_critical_radius, reference_degree1_radius, reference_disparity, reference_edges,
    reference_hops, reference_induced_subgraph, reference_save_graph, set_graph,
)
from discrit.geometry import Region, distance_matrix, generate_deployment, interior_nodes
from discrit.graphs import (
    EdgeGraph, UNBOUNDED, build_gg, critical_radius,
    degree1_radius, disparity, giant_component, graph_diameter, hop_distances, hop_matrix,
    induced_subgraph, is_connected, load_graph, save_graph,
)


def brute_force_critical_radius(dep):
    """Try every pairwise distance in increasing order with BFS
    connectivity; independent of the Prim's-algorithm path."""
    n = dep.n
    d = distance_matrix(dep)
    for r in sorted(set(d[np.triu_indices(n, 1)].tolist())):
        adj = [np.flatnonzero((d[i] <= r) & (np.arange(n) != i)) for i in range(n)]
        seen = [False] * n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    queue.append(v)
        if count == n:
            return r
    raise AssertionError("unreachable")


def path_graph(n):
    return EdgeGraph(n, frozenset((i, i + 1) for i in range(n - 1)))


def test_build_gg_examples():
    dep = line_deployment([0.0, 1.0, 3.0], side=10.0)
    assert edge_set(build_gg(dep, 0.0)) == set()
    assert edge_set(build_gg(dep, 1.0)) == {(0, 1)}
    assert edge_set(build_gg(dep, 3.0)) == {(0, 1), (0, 2), (1, 2)}
    with pytest.raises(ValueError):
        build_gg(dep, -1.0)


def test_build_gg_closed_ball():
    dep = line_deployment([0.0, 2.0], side=10.0)
    assert edge_set(build_gg(dep, 2.0)) == {(0, 1)}  # boundary included


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31), st.floats(0, 120), st.floats(0, 120))
def test_build_gg_monotone(seed, ra, rb):
    dep = generate_deployment("uniform-iid", 15, Region(100, 100), seed)
    lo, hi = sorted((ra, rb))
    assert edge_set(build_gg(dep, lo)) <= edge_set(build_gg(dep, hi))


def test_critical_radius_examples():
    two = line_deployment([2.0, 7.0], side=10.0)
    r, g = critical_radius(two)
    assert r == 5.0 and edge_set(g) == {(0, 1)}

    r, _ = critical_radius(line_deployment([0.0, 1.0, 3.0], side=10.0))
    assert r == 2.0
    r, _ = critical_radius(line_deployment([0.0, 1.0, 5.0, 6.0], side=10.0))
    assert r == 4.0


def test_degree1_radius_examples():
    r1, _ = degree1_radius(line_deployment([0.0, 1.0, 3.0], side=10.0))
    assert r1 == 2.0
    r1, g1 = degree1_radius(line_deployment([0.0, 1.0, 5.0, 6.0], side=10.0))
    assert r1 == 1.0
    assert not is_connected(g1)
    assert edge_set(g1) == {(0, 1), (2, 3)}
    two = line_deployment([2.0, 7.0], side=10.0)
    assert degree1_radius(two)[0] == critical_radius(two)[0] == 5.0


def test_degree1_graph_min_degree():
    for seed in range(5):
        dep = generate_deployment("uniform-iid", 80, Region(1000, 1000), seed)
        _, g1 = degree1_radius(dep)
        assert g1.degrees().min() >= 1


def test_r1_below_rcrit_equality_iff_connected():
    for seed in range(12):
        dep = generate_deployment("uniform-iid", 70, Region(1000, 1000), seed)
        r1, g1 = degree1_radius(dep)
        rc, _ = critical_radius(dep)
        assert r1 <= rc
        assert (r1 == rc) == is_connected(g1)


def test_degree1_matches_kdtree_oracle():
    # The deployments of acceptance criterion 4, whose reference shares
    # come from this oracle.
    for n in (100, 300, 1000):
        for seed in range(50):
            dep = generate_deployment("uniform-iid", n, Region(1000, 1000), seed)
            r1, g1 = degree1_radius(dep)
            assert kdtree_degree1(dep.positions) == (r1, edge_set(g1), is_connected(g1))


def test_kdtree_oracle_torus_wraps():
    dep = line_deployment([10.0, 40.0, 990.0], side=1000.0)
    r1, edges, connected = kdtree_degree1(dep.positions)
    assert (r1, edges, connected) == (950.0, {(0, 1), (1, 2)}, True)
    r1, edges, connected = kdtree_degree1(dep.positions, box=(1000.0, 1000.0))
    assert (r1, edges, connected) == (30.0, {(0, 1), (0, 2)}, True)


def test_critical_radius_brute_force_small():
    rng = np.random.default_rng(404)
    for _ in range(40):
        n = int(rng.integers(2, 13))
        dep = generate_deployment("uniform-iid", n, Region(50, 50), int(rng.integers(1 << 30)))
        assert critical_radius(dep)[0] == brute_force_critical_radius(dep)


def test_critical_radius_matches_union_find_reference():
    km = Region(1000, 1000)
    cases = [generate_deployment("uniform-iid", 1000, km, seed) for seed in range(5)]
    cases += [
        generate_deployment("uniform-iid", 3000, km, 0),
        generate_deployment("grid", 400, km, 0),  # exact ties
        generate_deployment("grid", 1024, km, 0),
        generate_deployment("randomised-lattice", 1000, km, 0),
        line_deployment([3.0, 3.0], side=10.0),  # r_c = 0
        # Two coincident pairs: the zero-length edges join nodes that are
        # already in the tree before the one real edge is taken.
        line_deployment([1.0, 6.0, 1.0, 6.0], side=10.0),
    ]
    for dep in cases:
        r, g = critical_radius(dep)
        r_ref, g_ref = reference_critical_radius(dep)
        assert r == r_ref
        assert edge_set(g) == edge_set(g_ref) and g.radius == g_ref.radius
    assert critical_radius(cases[-2])[0] == 0.0
    assert critical_radius(cases[-1])[0] == 5.0


def test_kdtree_graphs_match_dense_reference():
    # degree1_radius and build_gg against the distance-matrix versions
    # they replaced, radius 0 and exact grid ties included.
    km = Region(1000, 1000)
    cases = [generate_deployment("uniform-iid", n, km, seed) for n in (1000, 3000) for seed in range(3)]
    cases += [
        generate_deployment("grid", 400, km, 0),
        generate_deployment("grid", 1024, km, 0),
        generate_deployment("randomised-lattice", 1000, km, 0),
        line_deployment([3.0, 3.0], side=10.0),
        line_deployment([1.0, 6.0, 1.0, 6.0], side=10.0),
    ]
    for dep in cases:
        r1, g1 = degree1_radius(dep)
        r_ref, g_ref = reference_degree1_radius(dep)
        assert (r1, g1.radius) == (r_ref, g_ref.radius)
        assert np.array_equal(g1.edges, g_ref.edges)
        for r in (0.0, r1, 1.5 * r1):
            assert np.array_equal(build_gg(dep, r).edges, reference_build_gg(dep, r).edges)


def test_giant_component():
    two = EdgeGraph(6, frozenset([(0, 2), (2, 4), (1, 3)]))  # node 5 isolated
    assert giant_component(two).tolist() == [0, 2, 4]
    assert not is_connected(two)
    assert two.degrees().tolist() == [1, 1, 2, 1, 1, 0]
    # equal sizes: the component holding the lowest node id wins
    tied = EdgeGraph(6, frozenset([(1, 2), (3, 5), (4, 0)]))
    assert giant_component(tied).tolist() == [0, 4]
    assert giant_component(EdgeGraph(5, frozenset([(2, 4), (1, 3)]))).tolist() == [1, 3]

    empty = EdgeGraph(3, frozenset())
    assert giant_component(empty).tolist() == [0]
    assert not is_connected(empty)
    assert empty.degrees().tolist() == [0, 0, 0]
    assert is_connected(path_graph(4))
    assert giant_component(path_graph(4)).tolist() == [0, 1, 2, 3]


def test_hop_matrix_is_computed_once_and_read_only():
    g = path_graph(5)
    hops = hop_matrix(g)
    assert hop_matrix(g) is hops
    assert hops[0].tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        hops[0, 1] = 7
    assert hop_matrix(EdgeGraph(2, frozenset())).tolist() == [[0, -1], [-1, 0]]


def test_hop_distances_examples():
    g = path_graph(4)
    rows = hop_distances(g, [0, 2])
    assert rows.dtype == np.min_scalar_type(-g.n) == np.int8
    assert rows.tolist() == [[0, 1, 2, 3], [2, 1, 0, 1]]
    with pytest.raises(ValueError):
        rows[0, 1] = 7
    with pytest.raises(ValueError, match="source 4 out of range for n=4"):
        hop_distances(g, [0, 4])
    with pytest.raises(ValueError, match="source -1 out of range for n=4"):
        hop_distances(g, [-1])

    dep = line_deployment([0.0, 1.0, 5.0, 6.0], side=10.0)
    _, g1 = degree1_radius(dep)
    assert hop_distances(g1, [0]).tolist() == [[0, 1, -1, -1]]
    assert np.array_equal(hop_distances(g1, range(4)), hop_matrix(g1))


def test_hop_distances_take_integer_ids_only():
    # A boolean mask used to be read as the ids [1, 0, 0, 0], and 2.7 as 2.
    g = path_graph(4)
    # A scalar or a 2-D array used to fail with a bare IndexError.
    for sources in ([True, False, False, False], [2.7], np.array([0.0, 1.0]), 3, [[0, 1], [2, 3]]):
        with pytest.raises(ValueError, match="sources must be a 1-D sequence of integer node ids"):
            hop_distances(g, sources)
    # Given order and repeats are kept, numpy integers of any width accepted.
    assert hop_distances(g, np.array([3, 0, 3], dtype=np.uint8)).tolist() == [
        [3, 2, 1, 0], [0, 1, 2, 3], [3, 2, 1, 0]]
    assert hop_distances(g, []).shape == (0, 4)


def test_bfs_hops_match_shortest_path():
    km = Region(1000, 1000)
    uniform = lambda n: generate_deployment("uniform-iid", n, km, 0)
    cases = {
        "critical-n1000": critical_radius(uniform(1000))[1],
        "critical-n3000": critical_radius(uniform(3000))[1],
        "degree1-disconnected": degree1_radius(uniform(1000))[1],
        "grid-32x32": critical_radius(generate_deployment("grid", 1024, km, 0))[1],
        "lattice-n2000": critical_radius(generate_deployment("randomised-lattice", 2000, km, 0))[1],
        "isolated-node": EdgeGraph(5, [(0, 1), (3, 4)]),
        "empty-n1": EdgeGraph(1, []),
        "empty-n2": EdgeGraph(2, []),
        # neither a multiple of 64 nor of the block size
        "critical-n513": critical_radius(uniform(513))[1],
    }
    for label, g in cases.items():
        hops = hop_matrix(g)
        assert hops.dtype == np.min_scalar_type(-g.n) and not hops.flags.writeable, label
        assert np.array_equal(hops, reference_hops(g)), label
    assert (hop_matrix(cases["degree1-disconnected"]) == -1).any()
    g = cases["critical-n513"]
    for sources in ([512, 7, 7, 0, 300, 512],
                    np.random.default_rng(0).integers(0, g.n, 700)):
        assert np.array_equal(hop_distances(g, sources), reference_hops(g, sources))


def test_hop_table_symmetry_triangle():
    dep = generate_deployment("uniform-iid", 60, Region(1000, 1000), 13)
    _, cgg = critical_radius(dep)
    hops = hop_matrix(cgg)
    assert (hops >= 0).all()
    assert np.array_equal(hops, hops.T)
    assert (np.diag(hops) == 0).all()
    for i in range(0, 60, 9):
        for j in range(0, 60, 7):
            for k in range(0, 60, 11):
                assert hops[i, j] <= hops[i, k] + hops[k, j]


def test_graph_diameter():
    assert graph_diameter(path_graph(5)) == 4
    n = 6
    complete = EdgeGraph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))
    assert graph_diameter(complete) == 1
    two_comp = EdgeGraph(4, frozenset([(0, 1), (2, 3)]))
    assert graph_diameter(two_comp) is UNBOUNDED


def test_disparity():
    a = EdgeGraph(3, frozenset([(1, 2)]))
    b = EdgeGraph(3, frozenset())
    assert disparity(a, a) == 0.0
    assert disparity(a, b) == 1.0
    with pytest.raises(ValueError):
        disparity(b, a)
    with pytest.raises(ValueError):
        disparity(a, EdgeGraph(4, frozenset([(1, 2)])))


def test_edge_graph_validation():
    with pytest.raises(ValueError):
        EdgeGraph(3, frozenset([(1, 1)]))
    with pytest.raises(ValueError):
        EdgeGraph(3, frozenset([(0, 3)]))
    g = EdgeGraph(3, frozenset([(2, 0)]))
    assert edge_set(g) == {(0, 2)}  # normalised order
    g = EdgeGraph(4, np.array([[3, 1], [0, 2], [1, 3], [0, 1]]))
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 3]]  # sorted, duplicates removed
    assert g.edges.dtype == np.intp and not g.edges.flags.writeable
    assert g.num_edges == 3
    assert EdgeGraph(3, []).edges.shape == (0, 2)
    with pytest.raises(ValueError, match="self-loop on node 2"):
        EdgeGraph(3, np.array([[0, 1], [2, 2]]))
    with pytest.raises(ValueError, match=r"edge \(-1,0\) out of range"):
        EdgeGraph(3, [(0, -1)])
    with pytest.raises(ValueError):
        EdgeGraph(3, np.zeros((2, 3), dtype=int))


def test_edge_graph_takes_integer_ids_only():
    # (0.5, 2.9) used to be stored as the edge (0, 2).
    for edges in ([(0.5, 2.9)], [(True, False)], np.array([[0.0, 1.0]]), np.ones((1, 2), dtype=bool)):
        with pytest.raises(ValueError, match="edges must be integer node ids"):
            EdgeGraph(4, edges)
    for empty in ([], frozenset(), np.zeros((0, 2))):
        assert EdgeGraph(4, empty).edges.shape == (0, 2)
    assert EdgeGraph(4, np.array([[2, 0]], dtype=np.uint16)).edges.tolist() == [[0, 2]]


def _random_pairs(n, e, seed):
    """e random pairs i != j over 0..n-1 in both orientations, each row
    given again swapped at a random place, so every pair repeats."""
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, e)
    j = rng.integers(0, n - 1, e)
    j += j >= i
    pairs = np.column_stack([i, j])
    return rng.permutation(np.concatenate([pairs, pairs[:, ::-1]]))


# Sorting the keys i*n+j, then dropping repeats, against the np.unique it replaced.
@pytest.mark.parametrize("n,e,seed", [(2, 1, 0), (2, 1000, 1), (50, 20, 2), (50, 100_000, 3),
                                      (3000, 1000, 4), (3000, 100_000, 5)])
def test_edge_normalisation_matches_unique(n, e, seed):
    pairs = _random_pairs(n, e, seed)
    for edges in (pairs, pairs.astype(np.int32), [tuple(p) for p in pairs[:500].tolist()],
                  frozenset(map(tuple, pairs[:500].tolist()))):
        got = EdgeGraph(n, edges).edges
        want = reference_edges(n, list(edges) if isinstance(edges, frozenset) else edges)
        assert np.array_equal(got, want) and got.shape == want.shape
        assert got.dtype == np.intp and not got.flags.writeable
    for empty in (np.empty((0, 2), dtype=np.int64), [], frozenset()):
        got = EdgeGraph(n, empty).edges
        assert got.shape == (0, 2) and got.dtype == np.intp and not got.flags.writeable


def test_induced_subgraph():
    g = EdgeGraph(5, frozenset([(0, 1), (1, 2), (3, 4), (1, 4)]))
    sub = induced_subgraph(g, [1, 2, 4])
    assert sub.n == 3
    assert edge_set(sub) == {(0, 1), (0, 2)}  # (1,2)->(0,1), (1,4)->(0,2)
    with pytest.raises(ValueError):
        induced_subgraph(g, [1, 5])


def test_induced_subgraph_rejects_duplicate_ids():
    # [0, 0, 1] on the path 0-1-2 used to give a phantom isolated node 0
    # and the edge (1, 2), which joins node 0 to itself.
    path = EdgeGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="subset id 0 given twice"):
        induced_subgraph(path, [0, 0, 1])


def test_graph_io_roundtrip(tmp_path):
    dep = generate_deployment("uniform-iid", 25, Region(100, 100), 3)
    _, g = critical_radius(dep)
    save_graph(g, tmp_path / "g")
    back = load_graph(tmp_path / "g")
    assert back.n == g.n and edge_set(back) == edge_set(g) and back.radius == g.radius


def test_load_graph_rejects_bad_rows(tmp_path):
    (tmp_path / "g.graph.json").write_text('{"n": 3, "radius": null}\n')
    for rows, message in (("0,1\n1,1\n", "self-loop on node 1"),
                          ("0,1\n0,3\n", r"edge \(0,3\) out of range for n=3")):
        (tmp_path / "g.edges.csv").write_text("i,j\n" + rows)
        with pytest.raises(ValueError, match=message):
            load_graph(tmp_path / "g")


def test_graph_ops_match_set_reference(tmp_path):
    # disparity, induced_subgraph and save_graph against the frozenset
    # code they replaced, on protocol and critical graphs with exact
    # distance ties (grid), both protocol modes and an empty graph.
    rng = np.random.default_rng(5)
    checked = []
    for label, dep, g, _ in edge_format_cases():
        cgg = critical_radius(dep)[1]
        checked.append((label, g, cgg, [interior_nodes(dep, 100.0), rng.permutation(dep.n)[: dep.n // 2]]))
    empty = EdgeGraph(6, [])
    checked.append(("empty", empty, path_graph(6), [[4, 0, 2], []]))
    for label, g, ref_graph, id_sets in checked:
        old_g, old_ref = set_graph(g), set_graph(ref_graph)
        assert disparity(ref_graph, g) == reference_disparity(old_ref, old_g), label
        if g.num_edges:
            assert disparity(g, ref_graph) == reference_disparity(old_g, old_ref), label
        for graph in (g, ref_graph):
            for ids in id_sets:
                sub = induced_subgraph(graph, ids)
                old = reference_induced_subgraph(set_graph(graph), ids)
                assert (sub.n, edge_set(sub), sub.radius) == (old.n, old.edges, old.radius), label
            new = save_graph(graph, tmp_path / "new")
            old = reference_save_graph(set_graph(graph), tmp_path / "old")
            assert [p.read_bytes() for p in new] == [p.read_bytes() for p in old], label
    with pytest.raises(ValueError, match="empty edge set"):
        disparity(empty, path_graph(6))
