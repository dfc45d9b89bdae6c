import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    apollonius_curve, edge_format_deployments, hello_seed0_weights, reference_estimate_position,
)
from discrit.geometry import Region, generate_deployment
from discrit.graphs import (
    EdgeGraph, critical_radius, giant_component, hop_distances, induced_subgraph,
)
from discrit import localize
from discrit.localize import (
    BeaconSet, _residuals, _solve, corner_beacons, error_pattern, save_error_pattern_csv,
)
from discrit.protocol import run_discrit


def square_beacons(side=1000.0):
    coords = np.array([(0.0, 0.0), (side, 0.0), (0.0, side), (side, side)])
    return BeaconSet((0, 1, 2, 3), coords)


def exact_ratios(beacons, point):
    d = np.sqrt(((beacons.coords - np.asarray(point)) ** 2).sum(axis=1))
    return {(i, j): d[i] / d[j] for i, j in beacons.pairs()}


def solve_one(beacons, ratios):
    """_solve on the one vector of ratios {(i, j): h_i / h_j}: (x, y, objective, converged)."""
    pairs = sorted(ratios)
    point, obj, ok = _solve(beacons, pairs, [[ratios[p] for p in pairs]])
    return float(point[0, 0]), float(point[0, 1]), float(obj[0]), bool(ok[0])


def test_beacon_set_validation():
    with pytest.raises(ValueError):
        BeaconSet((0, 1, 2), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        BeaconSet((0, 1, 2, 2), np.array([(0, 0), (1, 0), (0, 1), (1, 1)]))
    with pytest.raises(ValueError):
        BeaconSet((0, 1, 2, 3), np.array([(0, 0), (1, 0), (0, 1), (0, 1)]))


def test_beacon_ids_must_be_integers():
    # (0.5, 1.2, 2, 3) used to be stored as the ids (0, 1, 2, 3), and True as id 1.
    coords = square_beacons().coords
    for ids in ((0.5, 1.2, 2, 3), (0, True, 2, 3)):
        with pytest.raises(ValueError, match="beacon id must be an integer"):
            BeaconSet(ids, coords)
    ids = BeaconSet(tuple(np.arange(4)), coords).ids
    assert ids == (0, 1, 2, 3) and all(type(i) is int for i in ids)


def test_beacon_set_rejects_non_finite_coords():
    # NaN used to pass every check and reach the solver, where the SVD failed
    with pytest.raises(ValueError, match="finite"):
        BeaconSet((0, 1, 2, 3), np.array([(0, 0), (1, 0), (0, 1), (math.nan, 1)]))


def test_apollonius_bisector_line():
    curve = apollonius_curve((0.0, 0.0), (2.0, 0.0), 1.0)
    assert curve.is_line and curve.a == 0.0
    for y in (-3.0, 0.0, 5.0):
        assert curve.residual(1.0, y) == pytest.approx(0.0)
    assert curve.residual(1.5, 0.0) != 0.0


def test_apollonius_half_ratio_circle():
    curve = apollonius_curve((0.0, 0.0), (2.0, 0.0), 0.5)
    assert not curve.is_line
    # internal and external division points of the segment in ratio 1:2
    assert curve.residual(2.0 / 3.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert curve.residual(-2.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_apollonius_degenerate_iff_ratio_one():
    assert apollonius_curve((0, 0), (1, 1), 1.0).a == 0.0
    assert apollonius_curve((0, 0), (1, 1), 1.0 - 1e-12).a != 0.0
    with pytest.raises(ValueError):
        apollonius_curve((1, 1), (1, 1), 0.5)
    with pytest.raises(ValueError):
        apollonius_curve((0, 0), (1, 1), 0.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(50, 950), st.floats(50, 950))
def test_residual_zero_at_true_point(x, y):
    beacons = square_beacons()
    for (i, j), r in exact_ratios(beacons, (x, y)).items():
        curve = apollonius_curve(beacons.coords[i], beacons.coords[j], r)
        scale = max(abs(curve.a), abs(curve.bx), abs(curve.by), abs(curve.c))
        assert abs(curve.residual(x, y)) <= 1e-9 * scale


coord = st.floats(-1000, 1000)


@settings(max_examples=200, deadline=None)
@given(coord, coord, coord, coord, coord, coord,
       st.one_of(st.just(1.0), st.floats(0.05, 20)))
@example(0.0, 0.0, 2.0, 0.0, 1.0, 3.0, 1.0)
@example(0.0, 0.0, 2.0, 0.0, 0.3, -0.7, 0.5)
def test_residuals_match_expanded_curve(xi, yi, xj, yj, x, y, r):
    # the solver's factored residual, times its (1 + r^2) normalisation,
    # is the expanded Apollonius polynomial up to rounding
    assume((xi, yi) != (xj, yj))
    curve = apollonius_curve((xi, yi), (xj, yj), r)
    r2 = r * r
    got = _residuals(np.array([x, y]), np.array([[xi, yi]]), np.array([[xj, yj]]),
                     np.array([1.0 + r2]), np.array([r2]))[0] * (1.0 + r2)
    # scale bounds every monomial of both forms, so the tolerance is
    # relative; subnormal results round in absolute steps, hence the floor
    scale = (1.0 + r2) * (x * x + y * y + xi * xi + yi * yi + xj * xj + yj * yj)
    assert abs(got - curve.residual(x, y)) <= 1e-14 * scale + 1e-300


def test_estimate_exact_ratios_recovers_position():
    beacons = square_beacons(1000.0)
    for point in [(300.0, 420.0), (711.0, 137.0), (500.0, 500.0)]:
        x, y, obj, ok = solve_one(beacons, exact_ratios(beacons, point))
        assert ok
        assert math.hypot(x - point[0], y - point[1]) <= 1e-6 * 1000.0
        assert obj <= 1e-9


def test_estimate_all_ratios_one_gives_center():
    beacons = square_beacons(1000.0)
    ratios = {p: 1.0 for p in beacons.pairs()}
    x, y, _, ok = solve_one(beacons, ratios)
    assert ok and (x, y) == pytest.approx((500.0, 500.0), abs=1e-6)


def test_estimate_translation_equivariance():
    beacons = square_beacons(1000.0)
    point = (321.0, 654.0)
    ratios = exact_ratios(beacons, point)
    x0, y0, _, ok0 = solve_one(beacons, ratios)
    shift = np.array([173.25, -58.5])
    moved = BeaconSet(beacons.ids, beacons.coords + shift)
    x1, y1, _, ok1 = solve_one(moved, ratios)
    assert ok0 and ok1
    assert abs(x1 - (x0 + shift[0])) <= 1e-9 * 1000
    assert abs(y1 - (y0 + shift[1])) <= 1e-9 * 1000


def test_corner_beacons():
    dep = generate_deployment("uniform-iid", 400, Region(1000, 1000), 2)
    beacons = corner_beacons(dep)
    assert beacons.n_beacons == 4
    corners = np.array([(0, 0), (1000, 0), (0, 1000), (1000, 1000)], dtype=float)
    for k in range(4):
        d_all = np.sqrt(((dep.positions - corners[k]) ** 2).sum(axis=1))
        assert d_all[beacons.ids[k]] == d_all.min()


def test_error_pattern_structure(tmp_path):
    dep = generate_deployment("uniform-iid", 250, Region(1000, 1000), 6)
    _, cgg = critical_radius(dep)
    beacons = corner_beacons(dep)
    pattern = error_pattern(dep, beacons, cgg, margin=100.0)
    assert len(pattern.records) == dep.n - 4
    assert all(r.node not in beacons.ids for r in pattern.records)
    assert pattern.interior_mean_error <= pattern.mean_error
    path = tmp_path / "loc.csv"
    save_error_pattern_csv(pattern, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node,x_true,y_true,x_est,y_est,err_m"
    assert len(lines) == 1 + len(pattern.records)


def node_ratio_vectors(dep, beacons, g):
    """{node: its hop-ratio vector over beacons.pairs()}, one node at a time."""
    hops = hop_distances(g, beacons.ids)
    return {s: tuple(hops[i, s] / hops[j, s] for i, j in beacons.pairs())
            for s in range(dep.n) if s not in beacons.ids}


def test_error_pattern_solves_each_ratio_vector_once(monkeypatch):
    # One iteration stalls almost every solve. The distinct hop-ratio
    # vectors are solved in one batch, and every node sharing a stalled
    # vector still gets its best iterate and converged=False, as a solve
    # per node would.
    dep = generate_deployment("uniform-iid", 250, Region(1000, 1000), 6)
    _, cgg = critical_radius(dep)
    beacons = corner_beacons(dep)
    monkeypatch.setattr(localize, "MAX_SOLVER_ITERATIONS", 1)
    batches = []

    def spy(b, pairs, ratios):
        batches.append(np.array(ratios))
        return _solve(b, pairs, ratios)

    monkeypatch.setattr(localize, "_solve", spy)
    pattern = error_pattern(dep, beacons, cgg, margin=100.0)
    vectors = node_ratio_vectors(dep, beacons, cgg)
    assert len(batches) == 1
    rows = [tuple(row) for row in batches[0].tolist()]
    assert len(set(rows)) == len(rows) < len(pattern.records)
    assert set(rows) == set(vectors.values())

    shared_stalls = {}
    for r in pattern.records:
        x, y, _, ok = solve_one(beacons, dict(zip(beacons.pairs(), vectors[r.node])))
        if not ok:
            shared_stalls[vectors[r.node]] = shared_stalls.get(vectors[r.node], 0) + 1
        assert (r.x_est, r.y_est, r.converged) == (x, y, ok)
    assert max(shared_stalls.values()) >= 2


@functools.lru_cache(maxsize=None)
def solver_case(label):
    """(beacons, pairs, vectors): the distinct ratio vectors error_pattern
    solves on the critical graph of a uniform-iid n=1000 seed or of the
    32 x 32 grid, or on the protocol giant component of hello_seed0_weights."""
    if label == "protocol-giant":
        g, _ = run_discrit(hello_seed0_weights())
        giant = giant_component(g)
        dep, g = edge_format_deployments()[0][1].subset(giant), induced_subgraph(g, giant)
    elif label == "grid-32x32":
        dep = edge_format_deployments()[3][1]
        _, g = critical_radius(dep)
    else:
        dep = generate_deployment("uniform-iid", 1000, Region(1000, 1000), int(label[-1]))
        _, g = critical_radius(dep)
    beacons = corner_beacons(dep)
    vectors = np.unique(list(node_ratio_vectors(dep, beacons, g).values()), axis=0)
    return beacons, beacons.pairs(), vectors


def sample_rows(vectors, sample):
    """All row indices, or a fixed sample of that many."""
    if sample is None:
        return range(len(vectors))
    return np.random.default_rng(0).choice(len(vectors), sample, replace=False)


@pytest.mark.parametrize("label, sample, max_flag_changes", [
    ("uniform-seed0", None, 0), ("grid-32x32", 100, 5), ("protocol-giant", 100, 5)])
def test_solve_matches_reference_solver(label, sample, max_flag_changes):
    # The batched analytic-Jacobian solver against the per-vector
    # numeric-Jacobian one it replaced. Their steps round differently, so
    # points agree to 1e-4 m, and a lane that stalls on a flat objective
    # may end on the other side of the stop rule.
    beacons, pairs, vectors = solver_case(label)
    points, _, converged = _solve(beacons, pairs, vectors)
    flag_changes = 0
    for v in sample_rows(vectors, sample):
        *ref, _, ref_ok = reference_estimate_position(beacons, dict(zip(pairs, vectors[v].tolist())))
        assert math.hypot(*(points[v] - ref)) <= 1e-4
        flag_changes += bool(converged[v]) != ref_ok
    assert flag_changes <= max_flag_changes


@pytest.mark.parametrize("label, sample", [
    ("uniform-seed0", None), ("uniform-seed3", None), ("protocol-giant", 100)])
def test_solve_lanes_are_independent(label, sample):
    # A vector's fit must not depend on the vectors batched with it, or
    # the pipeline's bytes would depend on which nodes share a run. The
    # protocol sample holds 7 vectors whose lanes never converge.
    beacons, pairs, vectors = solver_case(label)
    points, objs, converged = _solve(beacons, pairs, vectors)
    for v in sample_rows(vectors, sample):
        point, obj, ok = _solve(beacons, pairs, vectors[v:v + 1])
        assert point[0].tobytes() == points[v].tobytes()
        assert obj[0].tobytes() == objs[v].tobytes()
        assert ok[0] == converged[v]


def test_error_pattern_rejects_node_count_mismatch():
    region = Region(1000, 1000)
    _, cgg = critical_radius(generate_deployment("uniform-iid", 200, region, 0))
    dep = generate_deployment("uniform-iid", 150, region, 0)
    with pytest.raises(ValueError, match="graph has 200 nodes, deployment has 150"):
        error_pattern(dep, corner_beacons(dep), cgg, margin=100.0)


def test_error_pattern_needs_connected_graph():
    dep = generate_deployment("uniform-iid", 30, Region(1000, 1000), 1)
    disconnected = EdgeGraph(30, frozenset([(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        error_pattern(dep, corner_beacons(dep), disconnected, margin=100.0)
