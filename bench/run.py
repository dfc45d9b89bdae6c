"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload pipeline-n1000 --seed 0 --seconds 38 --trace 0

The workload runs in a fresh worker process (worker.py) that imports
discrit from this checkout's src/. With --trace 0 the run reports the
end-to-end metrics; with --trace 1 an untraced and a traced process
run the same seeds and the run reports the per-layer metrics. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The run exits non-zero, printing no result, when the program
cannot be started. README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# Extra set-up-only processes per untraced run; setup_s is the median
# over them and the workload process.
SETUP_PROBES = 2
# A run must end within this many seconds.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"seed_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "artifact_mb": "MB", "ok_frac": "share"}
PER_LAYER_UNITS = {
    "geometry.self_s": "s", "geometry.distance_matrix.calls": "count",
    "graphs.self_s": "s", "graphs.critical_radius.s": "s",
    "graphs.hop_matrix.s": "s", "graphs.hop_matrix.calls": "count",
    "channel.self_s": "s", "channel.slot_ms": "ms",
    "channel.decodes": "count", "channel.links": "count",
    "protocol.self_s": "s", "protocol.rounds": "count",
    "protocol.messages": "count", "protocol.round_ms": "ms",
    "discretize.self_s": "s", "discretize.pairs_used": "count",
    "discretize.pairs_excluded": "count",
    "selforg.self_s": "s", "selforg.mac_slots": "count",
    "localize.self_s": "s", "localize.nodes": "count",
    "localize.unconverged": "count", "localize.err_m": "m",
    "io.self_s": "s", "io.bytes": "B",
    "trace.seed_s": "s", "trace.overhead_s": "s", "trace.coverage": "share",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    """Environment of the worker: this checkout's src/, threads capped at nproc."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("DISCRIT_OUTPUT_DIR", None)  # would redirect the pipeline's output
    nproc = str(len(os.sched_getaffinity(0)))
    env.update((var, nproc) for var in THREAD_VARS)
    return env


def run_worker(args: list, deadline: float) -> tuple:
    """Start worker.py, time it until it prints "ready", wait for it to end.

    Returns the set-up seconds and the worker's last output line. The
    worker is killed at the deadline.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")] + args, cwd=ROOT,
                            env=worker_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, lines[-1] if lines else ""


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(records: list, peak_rss_mb: float, setups: list) -> dict:
    """End-to-end metric values and the sample count of each."""
    passed = [r for r in records if not r["error"]] or records
    return {
        "seed_s": (median([r["seconds"] for r in passed]), len(passed)),
        "setup_s": (median(setups), len(setups)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "artifact_mb": (median([r.get("artifact_bytes", 0) / 1e6 for r in passed]), len(passed)),
        "ok_frac": (sum(not r["error"] for r in records) / len(records), len(records)),
    }


def per_layer(records: list, untraced_seed_s: float) -> dict:
    """Per-layer metric values (medians over seeds) and the sample count.

    The tracing overhead is the traced minus the untraced median seed
    time, from two workload processes running the same seeds.
    """
    rows = []
    for r in records:
        m = r["layers"]
        row = {name: m.get(name, 0.0) for name in PER_LAYER_UNITS}
        slots, rounds = m.get("channel.slots", 0), m.get("protocol.rounds", 0)
        row["channel.slot_ms"] = 1e3 * row["channel.self_s"] / slots if slots else 0.0
        row["protocol.round_ms"] = 1e3 * row["protocol.self_s"] / rounds if rounds else 0.0
        row["localize.err_m"] = r.get("loc_err_m") or 0.0
        row["trace.seed_s"] = r["seconds"]
        rows.append(row)
    values = {name: (median([row[name] for row in rows]), len(rows)) for name in PER_LAYER_UNITS}
    values["trace.overhead_s"] = (values["trace.seed_s"][0] - untraced_seed_s, len(rows))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one discrit benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "discrit" / "cli.py").is_file():
        print(f"run.py: no discrit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    host = {"nproc": len(os.sched_getaffinity(0)), "loadavg_1m": os.getloadavg()[0]}
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out)]
    try:
        if args.trace:
            # Untraced and traced workload processes, half the time each,
            # in an order that alternates with the seed.
            loop = common + ["--seconds", str(args.seconds / 2)]
            runs = {}
            for traced in ((True, False) if args.seed % 2 else (False, True)):
                runs[traced] = json.loads(run_worker(loop + ["--trace"] * traced, deadline)[1])
            result = runs[True]
        else:
            setups = [run_worker(common + ["--seconds", "0", "--setup-only"], deadline)[0]
                      for _ in range(SETUP_PROBES)]
            setup, line = run_worker(common + ["--seconds", str(args.seconds)], deadline)
            setups.append(setup)
            result = json.loads(line)
    except (BenchError, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    records = result["records"]
    if args.trace:
        untraced = [r["seconds"] for r in runs[False]["records"] if not r["error"]]
        values, units = per_layer(records, median(untraced)), PER_LAYER_UNITS
        records = records + runs[False]["records"]
    else:
        values, units = end_to_end(records, result["peak_rss_mb"], setups), END_TO_END_UNITS
    for name, (value, count) in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]} ({count} samples)")
    loc = [r["loc_err_m"] for r in records if r.get("loc_err_m") is not None]
    if loc and not args.trace:
        print(f"{args.workload} loc_err_m = {median(loc):.6g} m ({len(loc)} samples)")
    print(json.dumps({"host": dict(host, **result["versions"]),
                      "seed_seconds": [[r["seed"], r["seconds"]] for r in records]}))
    failed = sum(1 for r in records if r["error"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
