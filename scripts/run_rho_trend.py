#!/usr/bin/env python3
"""Distance-per-hop spread against node count on the exact critical
graph: trend CSV plus one normalised-histogram CSV per n."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from discrit.discretize import rho_trend, save_rho_histogram_csv, save_trend_csv
from discrit.geometry import Region


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[100, 300, 600, 1000, 1700, 3000, 4000, 5000])
    ap.add_argument("--seeds-per-n", type=int, default=5)
    ap.add_argument("--base-seed", type=int, default=0)
    ap.add_argument("--outdir", default="rho_trend")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    region = Region(1000.0, 1000.0)

    rows = rho_trend(region, args.sizes, args.seeds_per_n, base_seed=args.base_seed)
    save_trend_csv(rows, outdir / "trend.csv")
    for row in rows:
        print(f"n={row.n}: var={row.var_rho:.3f} cv={row.cv_rho:.4f}")
        save_rho_histogram_csv(row.base_stats, outdir / f"rho_hist_n{row.n}.csv")
    print(f"wrote {outdir}/trend.csv and per-n histograms")


if __name__ == "__main__":
    main()
