import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrit.geometry import Region, generate_deployment
from discrit.graphs import EdgeGraph, critical_radius, hop_distances
from discrit import localize
from discrit.localize import (
    BeaconSet, PositionSolverError, apollonius_curve, corner_beacons, error_pattern,
    estimate_position, hop_ratio, save_error_pattern_csv,
)


def square_beacons(side=1000.0):
    coords = np.array([(0.0, 0.0), (side, 0.0), (0.0, side), (side, side)])
    return BeaconSet((0, 1, 2, 3), coords)


def exact_ratios(beacons, point):
    d = np.sqrt(((beacons.coords - np.asarray(point)) ** 2).sum(axis=1))
    return {(i, j): d[i] / d[j] for i, j in beacons.pairs()}


def test_beacon_set_validation():
    with pytest.raises(ValueError):
        BeaconSet((0, 1, 2), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        BeaconSet((0, 1, 2, 2), np.array([(0, 0), (1, 0), (0, 1), (1, 1)]))
    with pytest.raises(ValueError):
        BeaconSet((0, 1, 2, 3), np.array([(0, 0), (1, 0), (0, 1), (0, 1)]))


def test_hop_ratio_examples():
    g = EdgeGraph(5, frozenset((i, i + 1) for i in range(4)))
    table = hop_distances(g, [0, 4])
    assert hop_ratio(table, 2, 0, 4) == 1.0
    assert hop_ratio(table, 2, 0, 4) == pytest.approx(hop_ratio(table, 2, 4, 0))
    assert hop_ratio(table, 1, 0, 4) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        hop_ratio(table, 0, 0, 4)  # zero numerator hop
    with pytest.raises(ValueError):
        hop_ratio(table, 4, 0, 4)  # zero denominator hop
    split = EdgeGraph(4, frozenset([(0, 1), (2, 3)]))
    t2 = hop_distances(split, [0])
    with pytest.raises(ValueError):
        hop_ratio(t2, 2, 0, 3)


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


def test_estimate_exact_ratios_recovers_position():
    beacons = square_beacons(1000.0)
    for point in [(300.0, 420.0), (711.0, 137.0), (500.0, 500.0)]:
        x, y, obj = estimate_position(beacons, exact_ratios(beacons, point))
        assert math.hypot(x - point[0], y - point[1]) <= 1e-6 * 1000.0
        assert obj <= 1e-9


def test_estimate_all_ratios_one_gives_center():
    beacons = square_beacons(1000.0)
    ratios = {p: 1.0 for p in beacons.pairs()}
    x, y, _ = estimate_position(beacons, ratios)
    assert (x, y) == pytest.approx((500.0, 500.0), abs=1e-6)


def test_estimate_translation_equivariance():
    beacons = square_beacons(1000.0)
    point = (321.0, 654.0)
    ratios = exact_ratios(beacons, point)
    x0, y0, _ = estimate_position(beacons, ratios)
    shift = np.array([173.25, -58.5])
    moved = BeaconSet(beacons.ids, beacons.coords + shift)
    x1, y1, _ = estimate_position(moved, ratios)
    assert abs(x1 - (x0 + shift[0])) <= 1e-9 * 1000
    assert abs(y1 - (y0 + shift[1])) <= 1e-9 * 1000


def test_estimate_input_validation():
    beacons = square_beacons()
    with pytest.raises(ValueError):
        estimate_position(beacons, {})
    with pytest.raises(ValueError):
        estimate_position(beacons, {(0, 5): 1.0})
    with pytest.raises(ValueError):
        estimate_position(beacons, {(0, 1): -2.0})


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
    pattern = error_pattern(dep, beacons, cgg)
    assert len(pattern.records) == dep.n - 4
    assert all(r.node not in beacons.ids for r in pattern.records)
    assert pattern.interior_mean_error <= pattern.mean_error
    path = tmp_path / "loc.csv"
    save_error_pattern_csv(pattern, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node,x_true,y_true,x_est,y_est,err_m"
    assert len(lines) == 1 + len(pattern.records)


def test_error_pattern_solves_each_ratio_vector_once(monkeypatch):
    # One iteration stalls almost every solve. Each distinct hop-ratio
    # vector is solved once, and every node sharing a stalled vector still
    # gets its best iterate and converged=False, as a solve per node would.
    dep = generate_deployment("uniform-iid", 250, Region(1000, 1000), 6)
    _, cgg = critical_radius(dep)
    beacons = corner_beacons(dep)
    monkeypatch.setattr(localize, "MAX_SOLVER_ITERATIONS", 1)
    solves = []

    def counted(b, ratios):
        solves.append(tuple(sorted(ratios.items())))
        return estimate_position(b, ratios)

    monkeypatch.setattr(localize, "estimate_position", counted)
    pattern = error_pattern(dep, beacons, cgg)
    assert len(set(solves)) == len(solves) < len(pattern.records)

    hops = hop_distances(cgg, beacons.ids)
    shared_stalls = {}
    for r in pattern.records:
        ratios = {(i, j): hop_ratio(hops, r.node, beacons.ids[i], beacons.ids[j])
                  for i, j in beacons.pairs()}
        try:
            expected = estimate_position(beacons, ratios)[:2], True
        except PositionSolverError as exc:
            expected = exc.best, False
            key = tuple(sorted(ratios.items()))
            shared_stalls[key] = shared_stalls.get(key, 0) + 1
        assert ((r.x_est, r.y_est), r.converged) == expected
    assert max(shared_stalls.values()) >= 2


def test_error_pattern_needs_connected_graph():
    dep = generate_deployment("uniform-iid", 30, Region(1000, 1000), 1)
    disconnected = EdgeGraph(30, frozenset([(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        error_pattern(dep, corner_beacons(dep), disconnected)
