"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from discrit import cli, geometry, graphs  # noqa: E402

import refcheck  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def tiny_config(out, seed=3) -> dict:
    """Every stage on 200 nodes; runs in about a second."""
    return {
        "output_dir": str(out), "seeds": [seed],
        "deployment": {"kind": "uniform-iid", "n": 200, "region": {"width": 300, "height": 300}},
        "channel": {"slots": 500}, "protocol": {"mode": "discrit"}, "interior_margin": 0.1,
        "discretize": {}, "selforg": {"h_max": 3, "slots": 2000}, "localize": {},
    }


def _rewrite(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _nudge_x(rows):
    rows[6][1] = repr(math.nextafter(float(rows[6][1]), math.inf))


def _drop_last_edge(rows):
    rows.pop()


def _raise_psi(rows):
    rows[2][2] = repr(float(rows[2][2]) * (1 + 1e-12))


def _raise_errors(rows):
    for row in rows[1:]:
        row[5] = repr(float(row[5]) * 1.06)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    cli.run_pipeline(tiny_config(out))
    return out


@pytest.mark.parametrize("file, edit, item", [
    ("seed-3/deployment.csv", _nudge_x, "positions"),
    ("seed-3/protocol.edges.csv", _drop_last_edge, "protocol.edges"),
    ("seed-3/psi.csv", _raise_psi, "psi"),
    ("seed-3/localization.csv", _raise_errors, "loc_err_m"),
])
def test_check_catches_perturbed_output(tiny_run, tmp_path, file, edit, item):
    expected = refcheck.extract(tiny_run, 3)
    assert refcheck.compare(expected, expected) == []
    out = tmp_path / "out"
    shutil.copytree(tiny_run, out)
    _rewrite(out / file, edit)
    bad = refcheck.compare(expected, refcheck.extract(out, 3))
    assert [b.split(":")[0] for b in bad] == [item]


def test_check_reports_missing_stage_output(tiny_run, tmp_path):
    expected = refcheck.extract(tiny_run, 3)
    out = tmp_path / "out"
    shutil.copytree(tiny_run, out)
    (out / "seed-3" / "rho.csv").unlink()
    assert refcheck.compare(expected, refcheck.extract(out, 3)) == ["rho: missing"]


def test_loc_err_may_improve(tiny_run):
    expected = refcheck.extract(tiny_run, 3)
    got = dict(expected, loc_err_m=expected["loc_err_m"] * 0.5)
    assert refcheck.compare(expected, got) == []


def test_mismatch_fails_the_seed(tmp_path):
    doc = tiny_config(tmp_path / "out")
    rec = worker.run_seed(doc, {"critical.radius": 1.0})
    assert rec["error"].startswith("output check failed: critical.radius")
    assert not (tmp_path / "out").exists()


def test_stage_failure_counts_seed_and_loop_goes_on(tmp_path):
    # Known crash: the protocol graph at n=1000, seed 0 has three
    # components, so localizing on it raises.
    crash = workloads.config_for("pipeline-n1000", 0, tmp_path / "crash")
    crash["localize"] = {"graph": "protocol"}
    jobs = [(crash, None), (tiny_config(tmp_path / "tiny"), None)]
    records, _ = worker.run_seeds(jobs, seconds=math.inf)
    assert len(records) == 2
    assert "stage 'localize' failed for seed 0" in records[0]["error"]
    assert records[1]["error"] is None


def test_closed_loop_runs_one_seed_when_time_is_up(tmp_path):
    jobs = ((tiny_config(tmp_path / str(k)), None) for k in range(3))
    records, _ = worker.run_seeds(jobs, seconds=0)
    assert len(records) == 1


def test_tracer_patches_every_namespace_and_restores(tmp_path):
    original = geometry.distance_matrix
    doc = tiny_config(tmp_path / "out")
    (rec,), (traced,) = worker.run_seeds([(doc, None)], seconds=0, trace=True)
    assert rec["error"] is None
    seed_spans = traced["spans"]
    names = [s[0] for s in seed_spans]
    # critical_radius reaches distance_matrix through graphs' own globals.
    assert any(s[0] == "geometry.distance_matrix" and names[s[3]] == "graphs.critical_radius"
               for s in seed_spans)
    assert geometry.distance_matrix is original and graphs.distance_matrix is original
    assert cli.simulate_hello.__module__ == "discrit.channel"
    assert not hasattr(cli.simulate_hello, "__wrapped__")
    layers = rec["layers"]
    assert layers["trace.coverage"] >= 0.9
    assert layers["localize.nodes"] == 196
    assert layers["channel.slots"] == 500
    assert layers["protocol.rounds"] > 0 and layers["discretize.pairs_used"] > 0
    assert layers["io.bytes"] > 0
    assert layers["graphs.hop_matrix.calls"] >= 1


def test_self_times_partition_the_root():
    tracer = spans.Tracer()
    tracer.spans = [["seed", 0.0, 10.0, -1], ["graphs.f", 1.0, 5.0, 0],
                    ["geometry.g", 2.0, 4.0, 1], ["io.save_x", 6.0, 9.0, 0]]
    m = tracer.layer_metrics()
    assert m["graphs.self_s"] == 2.0 and m["geometry.self_s"] == 2.0 and m["io.self_s"] == 3.0
    assert m["trace.coverage"] == 0.7


def test_reference_covers_every_workload_and_pool_seed():
    doc = json.loads(refcheck.REFERENCE_PATH.read_text())
    assert sorted(doc) == sorted(workloads.WORKLOADS)
    for name, seeds in doc.items():
        assert sorted(map(int, seeds)) == list(range(workloads.SEED_POOL))
    pipeline_items = set(doc["pipeline-n1000"]["0"])
    assert pipeline_items == {"positions", "hello", "protocol.edges", "critical.edges",
                              "critical.radius", "degree1.edges", "degree1.radius", "disparity",
                              "rho", "psi", "localization.nodes", "loc_err_m"}


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline-n1000", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
