#!/usr/bin/env python3
"""Alternated parent/change runs of bench/run.py, written as one BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent 78353c0 --change HEAD \\
        --pairs pipeline-n1000=10 --pairs range-n3000=5 --pairs rayleigh-grid-n1024=5 \\
        --claim pipeline-n1000:seed_s --note "what the change does" --out BENCH_14.json

Each side runs from a `git archive` of its commit in --workdir, so
neither side sees the working tree. The tier-1 tests run once per side.
Every run gets the run_seconds budget of BENCHMARK.json. Pair k of a
workload runs program seed FIRST_SEED + k on both sides; even pairs run
the parent first, odd pairs the change first. Then one traced pair per
workload runs (--trace 1, seed TRACE_SEED), the parent first for the
first, third, ... workload of the plan and the change first for the
others. Last, each side runs TRACE_SEED alone three times per workload
(--seconds 0, so one seed in a fresh worker process), the sides
alternating which goes first, starting in the traced pairs' order; its
peak_rss_mb is that process's ru_maxrss, the single-seed memory figure
that heap growth across seeds does not move. One run per side is not
enough: with the same code it reads either of two levels about 35 MB
apart on range-n3000, so the record keeps every run and their median.
The output holds every run's last-line result and host
line, and per workload each end-to-end metric's median and quartiles
per side, every run's value, and how many pairs the change won (ties
count for neither). It is rewritten after every run, so a stopped
session leaves the runs so far. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
FIRST_SEED = 80  # program seed of the first untraced pair of a workload
TRACE_SEED = 90  # program seed of the traced pairs


def checkout(rev: str, dest: Path) -> str:
    """Extract a `git archive` of rev into dest; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}  # Python >= 3.10.12
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **safe)
    return commit


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py process; its return code, wall time, result and host line."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return {"returncode": proc.returncode, "wall_s": wall,
            "result": lines[-1] if lines else None,
            "host_line": lines[-2] if len(lines) > 1 else None,
            "stderr_tail": proc.stderr[-2000:] if proc.returncode else ""}


def tier1(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (passed|failed|error)", tail)}
    return {"tests": sum(counts.values()), "passed": counts.get("passed", 0),
            "wall_s": round(time.perf_counter() - start, 1), "last_line": tail}


def quartiles(values: list) -> dict:
    if len(values) < 2:
        value = values[0] if values else None
        return {"median": value, "q1": value, "q3": value}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def metric_value(run: dict, name: str):
    result = run["result"] or {}
    return result.get("metrics", {}).get(name, {}).get("value")


def summarize(runs: list, directions: dict) -> dict:
    """Per workload: each end-to-end metric's medians, quartiles, runs and wins."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if not r["trace"]):
        pairs = {}
        for r in runs:
            if r["workload"] == workload and not r["trace"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        done = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        entry = {"pairs": len(done)}
        for name, better in directions.items():
            values = {side: [metric_value(p[side], name) for p in done] for side in SIDES}
            if any(v is None for side in SIDES for v in values[side]):
                continue
            sign = -1 if better == "lower" else 1
            diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
            entry[name] = {"parent": quartiles(values["parent"]),
                           "change": quartiles(values["change"]),
                           "parent_runs": values["parent"], "change_runs": values["change"],
                           "change_wins": sum(d > 0 for d in diffs),
                           "ties": sum(d == 0 for d in diffs)}
        entry["failed_seeds"] = {side: sum((p[side]["result"] or {}).get("failed", 0)
                                           for p in done) for side in SIDES}
        summary[workload] = entry
    return summary


def traced(runs: list) -> dict:
    """Every per-layer metric of the traced pair, per workload and side."""
    out = {}
    for r in runs:
        if r["trace"] and r["result"]:
            layers = out.setdefault(r["workload"], {})
            for name, metric in r["result"]["metrics"].items():
                layers.setdefault(name, {})[r["side"]] = metric["value"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent commit")
    ap.add_argument("--change", default="HEAD", help="changed commit")
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                    help="alternated untraced pairs of a workload (repeatable)")
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                    help="the metric whose gain the change claims")
    ap.add_argument("--note", default="", help="one line on what the change does")
    ap.add_argument("--workdir", type=Path, default=ROOT / ".bench_pairs",
                    help="where the two checkouts go (emptied first)")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    plan = [(w, int(k)) for w, k in (spec.split("=") for spec in args.pairs)]
    trees = {side: args.workdir / side for side in SIDES}
    commits = {side: checkout(rev, trees[side])
               for side, rev in zip(SIDES, (args.parent, args.change))}
    runs, record, single = [], {}, {}

    def write():
        counts = ", ".join(f"{w} {k} pairs (seeds {FIRST_SEED}-{FIRST_SEED + k - 1})"
                           for w, k in plan)
        record.update({
            "_doc": (f"Alternated parent/change runs of `python3 bench/run.py --workload W "
                     f"--seed S --seconds {seconds:g} --trace T` on a {os.cpu_count()}-CPU "
                     f"{platform.system()} host (Python {platform.python_version()}), each side "
                     f"run from a `git archive` of its commit by scripts/bench_pairs.py. "
                     f"`runs` holds, per run, the side, the pair index, the order the sides "
                     f"ran in (even pairs ran the parent first, odd pairs the change first), "
                     f"the host line and the last-line result JSON of bench/run.py. {counts}. "
                     f"`summary` gives each end-to-end metric's median and quartiles per side, "
                     f"every run's value, and how many pairs the change won (ties count for "
                     f"neither). The traced pair per workload (--trace 1, seed {TRACE_SEED}; "
                     f"the parent first for the 1st, 3rd, ... workload listed, the change first "
                     f"for the others) is in `traced`, with every per-layer metric per side. "
                     f"`single_seed` holds, per workload and side, three fresh-process runs "
                     f"of seed {TRACE_SEED} alone (--seconds 0; the sides alternate which goes "
                     f"first, starting in the traced pairs' order): every run's ru_maxrss in "
                     f"MB and seed_s under `runs`, and the median ru_maxrss as `ru_maxrss_mb`. "
                     f"`tier1` holds each side's tier-1 test counts."),
            "change": args.note, "parent_commit": commits["parent"],
            "change_commit": commits["change"],
            "summary": summarize(runs, directions), "traced": traced(runs),
            "single_seed": single, "runs": runs})
        if args.claim:
            workload, metric = args.claim.split(":")
            record["claimed_gain"] = {
                "workload": workload, "metric": metric,
                "rule": "change wins at least 9 of 10 alternated pairs and the medians differ "
                        "by more than the parent's interquartile distance"}
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    record["tier1"] = {side: tier1(trees[side]) for side in SIDES}
    record["tier1"]["command"] = "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:])
    # (workload, pair, seed, trace, which side runs first: 0 the parent, 1 the change)
    jobs = [(w, k, FIRST_SEED + k, 0, k % 2) for w, n in plan for k in range(n)]
    jobs += [(w, 0, TRACE_SEED, 1, pos % 2) for pos, (w, _) in enumerate(plan)]
    for workload, pair, seed, trace, flip in jobs:
        order = SIDES[::-1] if flip else SIDES
        for side in order:
            run = bench_run(trees[side], workload, seed, seconds, trace)
            runs.append({"workload": workload, "seed": seed, "trace": trace, "side": side,
                         "pair": pair, "order": list(order), **run})
            print(f"{workload} seed {seed} trace {trace} {side}: rc {run['returncode']}, "
                  f"seed_s {metric_value(run, 'seed_s')}", flush=True)
            write()
    for pos, (workload, _) in enumerate(plan):
        for rep in range(3):
            for side in SIDES[::-1] if (pos + rep) % 2 else SIDES:
                run = bench_run(trees[side], workload, TRACE_SEED, 0, 0)
                entry = single.setdefault(workload, {}).setdefault(side, {"runs": []})
                entry["runs"].append({
                    "ru_maxrss_mb": metric_value(run, "peak_rss_mb"),
                    "seed_s": metric_value(run, "seed_s"), "returncode": run["returncode"],
                    "host_line": run["host_line"], "stderr_tail": run["stderr_tail"]})
                values = [r["ru_maxrss_mb"] for r in entry["runs"] if r["ru_maxrss_mb"] is not None]
                entry["ru_maxrss_mb"] = statistics.median(values) if values else None
                print(f"{workload} seed {TRACE_SEED} alone {side}: ru_maxrss "
                      f"{entry['runs'][-1]['ru_maxrss_mb']} MB", flush=True)
                write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
