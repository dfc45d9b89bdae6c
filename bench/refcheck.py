"""Correctness check of one seed's pipeline outputs against recorded values.

Values are read from the artifacts by column name, so a later change may
add columns or files without failing the check. Every item must match
exactly except the mean localization error, which may not exceed the
reference by more than LOC_ERR_TOLERANCE. trace.csv is not checked: its
format is expected to change.

Record the reference (every workload, seeds 0..SEED_POOL-1):

    PYTHONPATH=src python3 bench/refcheck.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Pipeline outputs go here, inside the checkout.
OUT_ROOT = Path(__file__).resolve().parent.parent / ".bench_out"

# Mean localization error may rise by at most this share of the reference.
LOC_ERR_TOLERANCE = 0.05


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> str:
    """Canonical text of a number as written by repr(float)."""
    return repr(float(text))


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


def _graph(prefix: Path) -> tuple:
    """(edge digest, radius) of a graph written by graphs.save_graph."""
    edges = sorted((int(r["i"]), int(r["j"])) for r in _rows(prefix.with_name(prefix.name + ".edges.csv")))
    header = json.loads(prefix.with_name(prefix.name + ".graph.json").read_text())
    return _digest(edges), header["radius"]


def extract(out_dir: Path, seed: int) -> dict:
    """Checked values of one seed's outputs; items of stages that did not run are absent."""
    seed_dir = out_dir / f"seed-{seed}"
    got = {}
    if (seed_dir / "deployment.csv").exists():
        got["positions"] = _digest(sorted(
            (int(r["id"]), _num(r["x"]), _num(r["y"])) for r in _rows(seed_dir / "deployment.csv")))
    if (seed_dir / "hello.weights.csv").exists():
        counts = sorted((int(r["i"]), int(r["j"]), int(r["C"]))
                        for r in _rows(seed_dir / "hello.weights.csv"))
        b = json.loads((seed_dir / "hello.weights.json").read_text())["b"]
        got["hello"] = _digest([counts, b])
    for name in ("protocol", "critical", "degree1"):
        if (seed_dir / f"{name}.edges.csv").exists():
            got[f"{name}.edges"], radius = _graph(seed_dir / name)
            if name != "protocol":
                got[f"{name}.radius"] = radius
    if (out_dir / "disparity.csv").exists():
        got["disparity"] = [[r["scope"], r["g_a"], r["g_b"], _num(r["d_ab"]), _num(r["d_ba"])]
                            for r in _rows(out_dir / "disparity.csv") if int(r["seed"]) == seed]
    if (seed_dir / "rho.csv").exists():
        (row,) = _rows(seed_dir / "rho.csv")
        got["rho"] = [int(row["n"]), int(row["pairs"])] + [
            _num(row[k]) for k in ("mean_rho", "var_rho", "cv_rho")]
    if (seed_dir / "psi.csv").exists():
        got["psi"] = [[int(r["h"])] + [_num(r[k]) for k in ("mean_hop_len_m", "psi_sim", "psi_theory")]
                      for r in _rows(seed_dir / "psi.csv")]
    if (seed_dir / "localization.csv").exists():
        rows = _rows(seed_dir / "localization.csv")
        got["localization.nodes"] = _digest(sorted(int(r["node"]) for r in rows))
        got["loc_err_m"] = sum(float(r["err_m"]) for r in rows) / len(rows)
    return got


def compare(expected: dict, got: dict) -> list:
    """Descriptions of the items in expected that got fails; empty when all pass."""
    bad = []
    for item, want in expected.items():
        if item not in got:
            bad.append(f"{item}: missing")
        elif item == "loc_err_m":
            if not got[item] <= want * (1 + LOC_ERR_TOLERANCE):
                bad.append(f"{item}: {got[item]!r} exceeds reference {want!r} by more than "
                           f"{LOC_ERR_TOLERANCE:.0%}")
        elif got[item] != want:
            bad.append(f"{item}: differs from reference")
    return bad


def load_reference(workload: str) -> dict:
    """Recorded values per program seed for one workload."""
    doc = json.loads(REFERENCE_PATH.read_text())
    return {int(seed): items for seed, items in doc[workload].items()}


def record(names) -> None:
    """Run each workload's pool seeds and write their checked values to reference.json."""
    from discrit import cli

    doc = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    OUT_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="refcheck-", dir=OUT_ROOT))
    try:
        for name in names:
            doc[name] = {}
            for seed in range(workloads.SEED_POOL):
                out = tmp / f"{name}-{seed}"
                cli.run_pipeline(workloads.config_for(name, seed, out))
                doc[name][str(seed)] = extract(out, seed)
                print(f"recorded {name} seed {seed}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp)
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Record reference.json from the current program.")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="only this workload (repeatable; default all)")
    args = parser.parse_args()
    record(args.workload or sorted(workloads.WORKLOADS))
