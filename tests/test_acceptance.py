"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria are checked
at their stated tolerances; each prints CRITERION <k> ... PASS/FAIL
before asserting, so the verdict survives an assertion failure.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import dense, edge_set, enumerate_hello_p, reference_degree1_radius, weights_from_dense
from discrit.channel import ChannelParams, homogeneity_check, simulate_hello
from discrit.cli import run_pipeline
from discrit.discretize import rho_trend
from discrit.geometry import Deployment, Region, distance_matrix, generate_deployment, interior_nodes
from discrit.graphs import (
    critical_radius, degree1_radius, disparity, giant_component,
    graph_diameter, induced_subgraph, is_connected,
)
from discrit.localize import corner_beacons, error_pattern
from discrit.protocol import InvariantViolation, run_discrit, run_range_algorithm
from discrit.selforg import SelfOrgParams, find_h_opt
from test_graphs import brute_force_critical_radius

KM = Region(1000.0, 1000.0)
HELLO = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.10,
                      fading="deterministic", slots=5000)
SELFORG = SelfOrgParams(p_t=0.1, sigma2=2.33e-6, eta=2.0, q=0.001, slots=20000)


def report(k, name, ok, detail=""):
    print(f"CRITERION {k:2d} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def interior_discrit(dep, weights, margin):
    ids = interior_nodes(dep, margin)
    sub = dep.subset(ids)
    ghat, _ = run_discrit(weights.subset(ids))
    return sub, ghat


def test_criterion_01_small_instance_oracles():
    rng = np.random.default_rng(321)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 13))
        dep = generate_deployment("uniform-iid", n, Region(100, 100),
                                  int(rng.integers(0, 1 << 30)))
        if critical_radius(dep)[0] != brute_force_critical_radius(dep):
            ok = False
        # r1 and the edge set against the dense distance matrix
        r1, g1 = degree1_radius(dep)
        r_ref, g_ref = reference_degree1_radius(dep)
        if r1 != r_ref or edge_set(g1) != edge_set(g_ref):
            ok = False
    assert report(1, "small-instance oracle equivalence", ok, "200 deployments")


def test_criterion_02_range_algorithm_convergence():
    checked = exact = bounded = 0
    for seed in range(50):
        dep = generate_deployment("uniform-iid", 200, KM, seed)
        _, g1 = degree1_radius(dep)
        if not is_connected(g1):
            continue
        checked += 1
        g, trace = run_range_algorithm(dep)
        exact += edge_set(g) == edge_set(g1)
        bounded += trace.iterations <= graph_diameter(g1)
    ok = checked > 0 and exact == checked and bounded == checked
    assert report(2, "range algorithm reaches degree-1 graph within diameter", ok,
                  f"{exact}/{checked} exact, {bounded}/{checked} within bound")


def test_criterion_03_runtime_invariants():
    violations = 0
    runs = 0
    for seed in range(10):
        dep = generate_deployment("uniform-iid", 80, KM, seed)
        for termination in ("centralized", "distributed"):
            try:
                run_range_algorithm(dep, termination=termination)
            except InvariantViolation:
                violations += 1
            runs += 1
        d = distance_matrix(dep)
        with np.errstate(under="ignore"):
            p = np.exp(-d)
        np.fill_diagonal(p, 0.0)
        w = weights_from_dense(p)
        try:
            run_discrit(w)
        except InvariantViolation:
            violations += 1
        runs += 1
    small = generate_deployment("uniform-iid", 40, Region(400, 400), 3)
    try:
        run_discrit(simulate_hello(small, ChannelParams(0.05, 4.0, 1e-10, 4.0, 0.2, slots=800), 3))
    except InvariantViolation:
        violations += 1
    runs += 1
    assert report(3, "threshold invariants hold on every run", violations == 0,
                  f"{runs} runs, {violations} violations")


# Share of uniform-iid seeds in the 1 km square whose degree-1 graph is
# connected. Measured with the KD-tree oracle ``conftest.kdtree_degree1``,
# which shares no code with discrit.graphs, on seeds 1000-3999: disjoint
# from the seeds criterion 4 draws. Standard error <= 0.0091. Recompute:
#   cd tests && PYTHONPATH=../src python -c "from conftest import
#   degree1_connected_share as f; print([f(n, range(1000, 4000))
#   for n in (100, 300, 1000)])"
# r1 = r_c holds with probability -> 1 (Penrose, "The longest edge of the
# random minimal spanning tree", AAP 1997), but slowly: the oracle gives
# 0.615 at n=10^4 on the square, and 0.608 at n=1000 on the torus, which
# has no boundary. A fixed high level such as 0.8 is out of reach at
# these n for a correct program.
DEGREE1_CONNECTED_SHARE = {100: 0.3830, 300: 0.4597, 1000: 0.5377}


def test_criterion_04_degree1_equals_critical_fraction():
    seeds = 50
    fractions, outside, violations = [], [], []
    for n, ref in DEGREE1_CONNECTED_SHARE.items():
        equal = 0
        for seed in range(seeds):
            dep = generate_deployment("uniform-iid", n, KM, seed)
            r1, g1 = degree1_radius(dep)
            rc, gc = critical_radius(dep)
            connected = is_connected(g1)
            if not (r1 <= rc and connected == (r1 == rc)
                    and (not connected or edge_set(g1) == edge_set(gc))):
                violations.append((n, seed))
            equal += connected and edge_set(g1) == edge_set(gc)
        fractions.append(equal / seeds)
        # The fraction is binomial(seeds, ref)/seeds: it must lie within
        # 3 standard errors of the oracle's reference share.
        if abs(fractions[-1] - ref) > 3 * math.sqrt(ref * (1 - ref) / seeds):
            outside.append(n)
    inversions = sum(a > b for a, b in zip(fractions, fractions[1:]))
    ok_trend = inversions <= 1
    report(4, "degree-1 graph equals critical graph at the reference share",
           not violations and not outside and ok_trend,
           f"fractions {fractions}, reference {list(DEGREE1_CONNECTED_SHARE.values())}, "
           f"inversions {inversions}, identity violations {len(violations)}")
    assert not violations, (f"r1 <= r_c, connected <=> r1 == r_c or equal edges fail on "
                            f"{len(violations)} deployments, first (n, seed) {violations[:5]}")
    assert not outside, f"fractions {fractions} leave the 3-s.e. band around the reference at n={outside}"
    assert ok_trend


def test_criterion_05_monotone_weight_equivalence():
    agree = 0
    for seed in range(20):
        dep = generate_deployment("uniform-iid", 300, KM, seed)
        g_dist, _ = run_range_algorithm(dep)
        d = distance_matrix(dep)
        with np.errstate(under="ignore"):
            p = np.exp(-d)
        np.fill_diagonal(p, 0.0)
        w = weights_from_dense(p)
        g_w, _ = run_discrit(w)
        agree += edge_set(g_dist) == edge_set(g_w)
    assert report(5, "weight protocol equals range protocol on exp(-d)",
                  agree == 20, f"{agree}/20 seeds")


def test_criterion_06_hello_counts_match_enumeration():
    pos = np.array([[400.0, 500.0], [460.0, 500.0], [550.0, 500.0]])
    dep = Deployment(pos, "uniform-iid", KM, 0)
    params = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0,
                           alpha=0.10, slots=100000)
    exact = enumerate_hello_p(pos, params)
    bad = 0
    for seed in range(10):
        table = simulate_hello(dep, params, seed)
        p_hat = dense(table)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                p = exact[i, j]
                se = math.sqrt(p * (1 - p) / table.b[i])
                if abs(p_hat[i, j] - p) > 3 * se + 1e-12:
                    bad += 1
    assert report(6, "hello ratios within 3 s.e. of exact enumeration",
                  bad == 0, f"{bad}/60 directed checks out of band")


def test_criterion_07_weight_distance_monotonicity():
    dep = generate_deployment("uniform-iid", 1000, KM, 0)
    table = simulate_hello(dep, HELLO, 0)
    d = distance_matrix(dep)
    interior = np.zeros(dep.n, dtype=bool)
    interior[interior_nodes(dep, 100.0)] = True
    ii, jj = table.pairs.T
    keep = interior[jj]
    corr = spearmanr(d[ii[keep], jj[keep]], table.p_hat[keep]).statistic
    assert report(7, "weights decrease with distance (Spearman <= -0.9)",
                  corr <= -0.9, f"spearman {corr:.4f} on {int(keep.sum())} pairs")


def test_criterion_08_discrit_disparity_gate():
    d_ab, d_ba = [], []
    for seed in range(10):
        dep = generate_deployment("uniform-iid", 1000, KM, seed)
        weights = simulate_hello(dep, HELLO, seed)
        sub, ghat = interior_discrit(dep, weights, 100.0)
        _, cgg = critical_radius(sub)
        d_ab.append(disparity(ghat, cgg))
        d_ba.append(disparity(cgg, ghat))
    med_ab, med_ba = float(np.median(d_ab)), float(np.median(d_ba))
    ok = med_ab <= 0.30 and med_ba <= 0.30
    assert report(8, "interior disparity medians within 0.30", ok,
                  f"median D(ghat,cgg) {med_ab:.4f}, D(cgg,ghat) {med_ba:.4f}")


def test_criterion_09_interior_density_homogeneity():
    passes = 0
    for seed in range(10):
        dep = generate_deployment("uniform-iid", 5000, KM, seed)
        ok, _ = homogeneity_check(dep, 100.0, 0.3, grid_step=50.0)
        passes += ok
    assert report(9, "interior density within 30% of network density",
                  passes >= 9, f"{passes}/10 seeds")


def test_criterion_10_rho_spread_shrinks_with_n():
    rows = rho_trend(KM, [100, 300, 1000, 3000], seeds_per_n=5)
    variances = [r.var_rho for r in rows]
    cvs = [r.cv_rho for r in rows]
    inv_var = sum(a < b for a, b in zip(variances, variances[1:]))
    inv_cv = sum(a < b for a, b in zip(cvs, cvs[1:]))
    ok = inv_var <= 1 and inv_cv <= 1
    assert report(10, "rho variance and CV decrease with n", ok,
                  f"var {['%.2f' % v for v in variances]} cv {['%.4f' % v for v in cvs]}")


def test_criterion_11_transport_capacity_theory_match():
    dep = generate_deployment("uniform-iid", 1000, KM, 0)
    _, cgg = critical_radius(dep)
    h_opt, rows = find_h_opt(dep, cgg, replace(SELFORG, h_max=8), seed=0)
    dense = [r for r in rows if r.n_edges >= 100]
    worst = max(abs(r.psi_sim - r.psi_theory) / r.psi_theory for r in dense)
    theory_argmax = max(dense, key=lambda r: r.psi_theory).h
    ok = worst <= 0.15 and h_opt == theory_argmax
    assert report(11, "simulated capacity tracks theory and argmax agrees", ok,
                  f"worst rel dev {worst:.3f}, h_opt sim {h_opt} theory {theory_argmax}")


def test_criterion_12_localization_error_gates():
    # Per-seed checks: exact-graph mean error within 2*r_crit and the
    # noisy-graph error at least the exact-graph error; the criterion
    # passes when at least 8 of 10 seeds satisfy both.
    within = 0
    ordered = 0
    both = 0
    for seed in range(10):
        dep = generate_deployment("uniform-iid", 1000, KM, seed)
        rc, cgg = critical_radius(dep)
        exact_pat = error_pattern(dep, corner_beacons(dep), cgg, margin=100.0)
        weights = simulate_hello(dep, HELLO, seed)
        ghat, _ = run_discrit(weights)
        giant = giant_component(ghat)
        sub = dep.subset(giant)
        ghat_giant = induced_subgraph(ghat, giant)
        discrit_pat = error_pattern(sub, corner_beacons(sub), ghat_giant, margin=100.0)
        seed_within = exact_pat.mean_error <= 2 * rc
        seed_ordered = discrit_pat.mean_error >= exact_pat.mean_error
        within += seed_within
        ordered += seed_ordered
        both += seed_within and seed_ordered
    ok = both >= 8
    assert report(12, "hop-ratio localization error gates", ok,
                  f"{within}/10 within 2*r_crit, discrit >= exact on {ordered}/10, "
                  f"both on {both}/10")


def test_criterion_13_pipeline_byte_determinism(tmp_path):
    doc = {
        "output_dir": str(tmp_path / "out"),
        "seeds": [2, 5],
        "deployment": {"kind": "uniform-iid", "n": 150,
                       "region": {"width": 500, "height": 500}},
        "channel": {"alpha": 0.1, "slots": 500},
        "protocol": {"mode": "discrit"},
        "discretize": {},
        "selforg": {"h_max": 3, "slots": 2000},
        "localize": {},
    }
    run_pipeline(doc)
    out = Path(doc["output_dir"])
    first = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    run_pipeline(doc)
    second = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    ok = first.keys() == second.keys() and all(first[k] == second[k] for k in first)
    assert report(13, "pipeline reruns are byte-identical", ok,
                  f"{len(first)} artifacts compared")
