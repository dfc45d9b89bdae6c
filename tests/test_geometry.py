import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pairwise_distance
from discrit.geometry import (
    Deployment, Region, deployment_to_json, distance_matrix, generate_deployment,
    interior_nodes, load_positions_csv, save_positions_csv,
)


def test_region_validation():
    with pytest.raises(ValueError):
        Region(0.0, 1.0)
    with pytest.raises(ValueError):
        Region(1.0, -2.0)


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


def test_distance_matrix_matches_scalar(km_region):
    dep = generate_deployment("uniform-iid", 40, km_region, seed=3)
    d = distance_matrix(dep)
    for i in range(0, 40, 7):
        for j in range(0, 40, 5):
            assert d[i, j] == pairwise_distance(dep, i, j)
    assert np.array_equal(d, d.T)


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
    back = load_positions_csv(path)
    assert np.array_equal(back, dep.positions)


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


def test_deployment_validation(unit_region):
    with pytest.raises(ValueError):
        Deployment(np.array([[0.5, 1.5], [0.2, 0.2]]), "uniform-iid", unit_region, 0)
    with pytest.raises(ValueError):
        Deployment(np.array([[0.5, 0.5]]), "uniform-iid", unit_region, 0)
    with pytest.raises(ValueError):
        Deployment(np.random.default_rng(0).random((5, 2)), "grid", unit_region, 0)
