import ast
import csv
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pairwise_distance, reference_distance_matrix, reference_save_csv
from discrit.channel import LinkWeightTable
from discrit.geometry import (
    DISTANCE_BLOCK_ROWS, Deployment, Region, deployment_to_json, distance_matrix, generate_deployment,
    interior_nodes, pair_distances, save_csv, save_positions_csv, subset_ids,
)
from discrit.graphs import EdgeGraph, induced_subgraph


def test_region_validation():
    with pytest.raises(ValueError):
        Region(0.0, 1.0)
    with pytest.raises(ValueError):
        Region(1.0, -2.0)
    # an infinite side used to pass and fail later as "positions must be finite"
    for w, h in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="positive and finite"):
            Region(w, h)


def test_grid_2x2_cell_centers(unit_region):
    dep = generate_deployment("grid", 4, unit_region, seed=123)
    got = {tuple(p) for p in dep.positions.tolist()}
    assert got == {(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)}


def test_uniform_iid_deterministic(km_region):
    a = generate_deployment("uniform-iid", 1000, km_region, seed=5)
    b = generate_deployment("uniform-iid", 1000, km_region, seed=5)
    assert np.array_equal(a.positions, b.positions)
    c = generate_deployment("uniform-iid", 1000, km_region, seed=6)
    assert not np.array_equal(a.positions, c.positions)


def test_randomised_lattice_one_node_per_cell(unit_region):
    dep = generate_deployment("randomised-lattice", 100, unit_region, seed=9)
    counts = np.zeros((10, 10), dtype=int)
    for x, y in dep.positions:
        counts[min(int(y * 10), 9), min(int(x * 10), 9)] += 1
    assert (counts == 1).all()


def test_randomised_lattice_non_square_count(unit_region):
    # 7 nodes: 2 rows x 4 cols with one surplus cell dropped
    dep = generate_deployment("randomised-lattice", 7, unit_region, seed=2)
    assert dep.n == 7
    rows, cols = 2, 4
    seen = set()
    for x, y in dep.positions:
        cell = (min(int(y * rows), rows - 1), min(int(x * cols), cols - 1))
        assert cell not in seen
        seen.add(cell)


@pytest.mark.parametrize("kind", ["uniform-iid", "randomised-lattice", "grid"])
def test_positions_inside_region(kind):
    region = Region(30.0, 12.0)
    dep = generate_deployment(kind, 49, region, seed=11)
    assert (dep.positions[:, 0] >= 0).all() and (dep.positions[:, 0] <= 30).all()
    assert (dep.positions[:, 1] >= 0).all() and (dep.positions[:, 1] <= 12).all()


def test_generate_errors(unit_region):
    with pytest.raises(ValueError):
        generate_deployment("grid", 5, unit_region, seed=0)
    with pytest.raises(ValueError):
        generate_deployment("uniform-iid", 1, unit_region, seed=0)
    with pytest.raises(ValueError):
        generate_deployment("poisson", 10, unit_region, seed=0)


def test_generate_counts_are_integers(unit_region):
    # A float n used to fail inside the generator with a bare TypeError.
    for n in (100.0, np.float64(4.0), True):
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            generate_deployment("uniform-iid", n, unit_region, seed=0)
    assert generate_deployment("uniform-iid", np.int64(5), unit_region, seed=0).n == 5


def test_distance_matrix_matches_scalar(km_region):
    dep = generate_deployment("uniform-iid", 40, km_region, seed=3)
    d = distance_matrix(dep)
    for i in range(0, 40, 7):
        for j in range(0, 40, 5):
            assert d[i, j] == pairwise_distance(dep, i, j)
    assert np.array_equal(d, d.T)


@pytest.mark.parametrize("kind,n", [("grid", 400), ("uniform-iid", 300)])
def test_pair_distances_equal_matrix_entries(km_region, kind, n):
    dep = generate_deployment(kind, n, km_region, seed=4)
    d = distance_matrix(dep)
    i, j = np.indices((n, n)).reshape(2, -1)
    assert np.array_equal(pair_distances(dep, i, j), d[i, j])
    if kind == "grid":  # exact ties: many pairs share a distance
        assert np.unique(d).size < d.size // 100


# Row blocks against one broadcast: sizes that are not multiples of the
# block, and a grid, whose exact ties a rounding change would break.
@pytest.mark.parametrize("kind,n", [("uniform-iid", 2), ("uniform-iid", 127), ("uniform-iid", 129),
                                    ("uniform-iid", 300), ("uniform-iid", DISTANCE_BLOCK_ROWS + 1),
                                    ("grid", 400)])
def test_distance_matrix_blocks_match_one_broadcast(km_region, kind, n):
    dep = generate_deployment(kind, n, km_region, seed=5)
    d = distance_matrix(dep)
    assert d.shape == (n, n) and d.dtype == np.float64
    assert np.array_equal(d.view(np.int64), reference_distance_matrix(dep).view(np.int64))


def test_distance_matrix_builds_no_second_matrix(km_region):
    n = 1500
    dep = generate_deployment("uniform-iid", n, km_region, seed=0)
    tracemalloc.start()
    try:
        distance_matrix(dep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * n * n


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_triangle_inequality(seed):
    dep = generate_deployment("uniform-iid", 12, Region(100, 100), seed)
    d = distance_matrix(dep)
    for i in range(12):
        for j in range(12):
            for k in range(12):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def test_interior_nodes(unit_region, km_region):
    dep = generate_deployment("uniform-iid", 500, km_region, seed=4)
    assert len(interior_nodes(dep, 0.0)) == 500
    near_edge = Deployment(np.array([[0.05, 0.5], [0.5, 0.5]]), "uniform-iid", unit_region, 0)
    assert interior_nodes(near_edge, 0.1).tolist() == [1]
    grid = generate_deployment("grid", 4, unit_region, seed=0)
    assert len(interior_nodes(grid, 0.1)) == 4
    with pytest.raises(ValueError):
        interior_nodes(dep, -1.0)
    with pytest.raises(ValueError):
        interior_nodes(dep, 500.0)


def test_uniform_marginals_kolmogorov(km_region):
    dep = generate_deployment("uniform-iid", 10000, km_region, seed=77)
    for axis in (0, 1):
        u = np.sort(dep.positions[:, axis]) / 1000.0
        k = np.arange(1, 10001)
        ks = max(np.abs(k / 10000 - u).max(), np.abs(u - (k - 1) / 10000).max())
        assert ks <= 0.02


def test_csv_roundtrip(tmp_path, km_region):
    dep = generate_deployment("uniform-iid", 60, km_region, seed=8)
    path = tmp_path / "dep.csv"
    save_positions_csv(dep, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["id"]) for r in rows] == list(range(60))
    back = np.array([[float(r["x"]), float(r["y"])] for r in rows])
    assert np.array_equal(back, dep.positions)


SAVE_CSV_CASES = {
    "special-floats": [[np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1e300]],
    "float32": [np.array([0.1, 1 / 3, -2.5e-8, np.nan], dtype=np.float32)],
    "float64-scalars": [[np.float64(0.1), np.float64(1 / 3), np.float64(-7.0)]],
    "ints-and-floats": [np.arange(4), np.array([3, -1, 0, 2**40]), np.linspace(0, 1, 4)],
    "none-and-str": [["a", "b,c", 'q"d'], [None, 0.25, None], [1.5, None, 2.0]],
    "empty": [[], np.array([], dtype=np.float64)],
}


@pytest.mark.parametrize("columns", SAVE_CSV_CASES.values(), ids=SAVE_CSV_CASES.keys())
def test_save_csv_matches_row_writer(tmp_path, columns):
    header = [f"c{k}" for k in range(len(columns))]
    save_csv(tmp_path / "new.csv", header, *columns)
    reference_save_csv(tmp_path / "old.csv", header, *columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_writer_only_in_save_csv():
    # One writer keeps the artifact format in one place.
    src = Path(__file__).resolve().parent.parent / "src" / "discrit"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "save_csv" and path.name == "geometry.py":
                allowed |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "writer"
                    and isinstance(node.value, ast.Name) and node.value.id == "csv"
                    and id(node) not in allowed):
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "csv":
                found.append(f"{path.name}:{node.lineno} imports from csv")
    assert found == []


def test_json_roundtrip(km_region):
    dep = generate_deployment("randomised-lattice", 30, km_region, seed=8)
    doc = json.loads(json.dumps(deployment_to_json(dep)))
    back = Deployment(np.array(doc["positions"]), doc["kind"], Region(**doc["region"]), doc["seed"])
    assert np.array_equal(back.positions, dep.positions)
    assert back.kind == dep.kind and back.seed == dep.seed
    assert back.region == dep.region


def test_subset_reindexes(km_region):
    dep = generate_deployment("uniform-iid", 20, km_region, seed=1)
    sub = dep.subset([5, 2, 9])
    assert sub.n == 3
    assert np.array_equal(sub.positions, dep.positions[[2, 5, 9]])


def test_grid_subset_keeps_kind():
    # kind records how the parent was drawn; a subset need not be square
    sub = generate_deployment("grid", 16, Region(), 0).subset([0, 1, 2])
    assert sub.kind == "grid" and sub.n == 3


def test_subset_rejects_duplicate_and_out_of_range_ids(km_region):
    dep = generate_deployment("uniform-iid", 20, km_region, seed=1)
    with pytest.raises(ValueError, match="subset id 5 given twice"):
        dep.subset([5, 2, 5])
    with pytest.raises(ValueError, match="subset ids out of range for n=20"):
        dep.subset([2, 20])


def test_subset_ids_must_be_integers(km_region):
    # Float ids were truncated (1.5 -> 1) and a boolean mask was read as
    # ids 1, 0, 1; both now raise, in every subset that shares subset_ids.
    dep = generate_deployment("uniform-iid", 6, km_region, seed=2)
    table = LinkWeightTable.from_counts(np.ones((6, 6), dtype=int) - np.eye(6, dtype=int), [10] * 6)
    graph = EdgeGraph(6, [(0, 1), (1, 2), (2, 5)])
    subsets = (dep.subset, table.subset, lambda ids: induced_subgraph(graph, ids))
    for bad in ([1.5, 2.9], np.array([1.0, 2.0]), [True, False, True], np.array([True] * 6)):
        for subset in subsets:
            with pytest.raises(ValueError, match="must be a 1-D sequence of integers"):
                subset(bad)
    # Integer ids of any container give the ids the old int() loop gave.
    for ids in (range(6), [4, 0, 2], (np.int32(3), np.int32(1)), np.array([5, 1], dtype=np.int64),
                np.array([2, 3], dtype=np.uint8), []):
        old = np.asarray(sorted(int(i) for i in ids), dtype=np.intp)
        got = subset_ids(ids, 6)
        assert got.dtype == np.intp and np.array_equal(got, old), ids
        if old.size >= 2:  # a deployment needs two nodes
            assert np.array_equal(dep.subset(ids).positions, dep.positions[old])
        assert table.subset(ids).n == induced_subgraph(graph, ids).n == old.size


def test_deployment_validation(unit_region):
    with pytest.raises(ValueError):
        Deployment(np.array([[0.5, 1.5], [0.2, 0.2]]), "uniform-iid", unit_region, 0)
    with pytest.raises(ValueError):
        Deployment(np.array([[0.5, 0.5]]), "uniform-iid", unit_region, 0)
    with pytest.raises(ValueError, match="perfect-square"):
        generate_deployment("grid", 5, unit_region, 0)


def test_deployment_rejects_non_finite_positions(unit_region):
    # NaN fails neither bound check; it used to reach the range protocol,
    # which raised InvariantViolation on a NaN threshold
    with pytest.raises(ValueError, match="finite"):
        Deployment(np.array([[0.0, 0.0], [np.nan, 0.5], [1.0, 1.0]]), "uniform-iid", unit_region, 0)
