"""Workload process: set up, then run program seeds in a closed loop.

run.py starts this script with PYTHONPATH set to the checkout's src/. It
prints "ready" once discrit.cli is imported and the workload config is
validated; that is the end of set-up. Unless --setup-only is given it
then runs one seed after another through discrit.cli.run_pipeline,
checks each seed's outputs against reference.json, and prints one JSON
line with a record per seed.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy
import scipy

import discrit
from discrit import cli

import refcheck
import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def run_seed(doc: dict, expected, tracer=None) -> dict:
    """Run one config (one seed) and check its outputs.

    A stage that raises or an output that differs from expected fails
    the seed; expected None skips the comparison. The output directory
    is removed afterwards.
    """
    (seed,) = doc["seeds"]
    out = Path(doc["output_dir"])
    rec = {"seed": seed, "error": None}
    root = tracer.begin(spans.ROOT) if tracer else None
    start = time.perf_counter()
    try:
        cli.run_pipeline(doc)
    except Exception as exc:  # a failed seed is counted, and the loop goes on
        rec["error"] = f"{type(exc).__name__}: {exc}"
    rec["seconds"] = time.perf_counter() - start
    if tracer:
        tracer.end(root)
    if rec["error"] is None:
        rec["artifact_bytes"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        got = refcheck.extract(out, seed)
        rec["loc_err_m"] = got.get("loc_err_m")
        bad = refcheck.compare(expected, got) if expected is not None else []
        if bad:
            rec["error"] = "output check failed: " + "; ".join(bad)
    shutil.rmtree(out, ignore_errors=True)
    if rec["error"]:
        print(f"seed {seed} failed: {rec['error']}", file=sys.stderr, flush=True)
    return rec


def run_seeds(jobs, seconds: float, trace: bool = False) -> tuple:
    """Closed loop over (config, expected) jobs, one seed at a time.

    The next seed starts when the previous one has ended and been
    checked, unless the mean time per seed so far says it would end
    after `seconds`; at least one seed runs. A traced loop adds each
    seed's layer metrics to its record. Returns the records and, for a
    traced loop, the spans of each seed.
    """
    records, traces = [], []
    start = time.perf_counter()
    for k, (doc, expected) in enumerate(jobs):
        if trace:
            with spans.Tracer() as tracer:
                rec = run_seed(doc, expected, tracer)
            rec["layers"] = tracer.layer_metrics()
            traces.append({"seed": rec["seed"], "spans": tracer.spans})
        else:
            rec = run_seed(doc, expected)
        records.append(rec)
        elapsed = time.perf_counter() - start
        if elapsed * (k + 2) / (k + 1) > seconds:
            break
    return records, traces


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload in this process.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(discrit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"discrit imported from {discrit.__file__}, not from {SRC}")
    cli.config_mod.validate_config(workloads.config_for(args.workload, 0, args.out))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    reference = refcheck.load_reference(args.workload)
    jobs = ((workloads.config_for(args.workload, seed, args.out / f"{k}-seed{seed}"), reference[seed])
            for k, seed in enumerate(workloads.program_seeds(args.seed)))
    records, traces = run_seeds(jobs, args.seconds, args.trace)
    if traces:
        path = args.out.parent / "spans" / f"{args.workload}-seed{args.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": args.workload, "run_seed": args.seed,
                                    "seeds": traces}) + "\n")
    print(json.dumps({
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "discrit": discrit.__version__},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
