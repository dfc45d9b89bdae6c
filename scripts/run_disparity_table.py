#!/usr/bin/env python3
"""Disparity of the weight-protocol graph against the exact critical and
degree-1 graphs, for all three deployment kinds, on all nodes and on the
interior. Runs the discrit pipeline once per kind (under <outdir>/<kind>,
or <DISCRIT_OUTPUT_DIR>/<kind> when that is set) and writes one CSV row
per (kind, scope, reference) to <outdir>/disparity_table.csv."""

import argparse
import csv
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from discrit.cli import run_pipeline
from discrit.config import OUTPUT_DIR_ENV
from discrit.geometry import save_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--side", type=float, default=1000.0, help="region side (m)")
    ap.add_argument("--margin", type=float, default=0.1, help="interior margin fraction")
    ap.add_argument("--outdir", default="disparity_table")
    args = ap.parse_args()

    # DISCRIT_OUTPUT_DIR moves the runs, each kind to its own <kind>/ under it, not the table.
    runs = Path(os.environ.pop(OUTPUT_DIR_ENV, args.outdir))
    rows = []
    for kind in ("uniform-iid", "randomised-lattice", "grid"):
        n = int(args.n ** 0.5) ** 2 if kind == "grid" else args.n  # grid: nearest square below
        doc = {"output_dir": str(runs / kind), "seeds": [args.seed],
               "deployment": {"kind": kind, "n": n, "region": {"width": args.side, "height": args.side}},
               "channel": {}, "protocol": {"mode": "discrit"}, "interior_margin": args.margin}
        run_pipeline(doc)
        with open(runs / kind / "disparity.csv", newline="") as fh:
            rows += [[kind, r["scope"], r["g_b"], r["d_ab"], r["d_ba"]] for r in csv.DictReader(fh)]
        print(f"{kind}: done (n={n})")
    path = Path(args.outdir) / "disparity_table.csv"
    path.parent.mkdir(parents=True, exist_ok=True)  # no run wrote there under DISCRIT_OUTPUT_DIR
    save_csv(path, ["kind", "scope", "reference", "d_protocol_ref", "d_ref_protocol"], *zip(*rows))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
