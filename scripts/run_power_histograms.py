#!/usr/bin/env python3
"""Total-received-power histograms per square annulus, for two node
densities and a sweep of path-loss exponents. One CSV per (n, eta)."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from discrit.channel import ChannelParams, received_power_histogram, save_power_histograms
from discrit.geometry import Region, generate_deployment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[1000, 5000])
    ap.add_argument("--etas", type=float, nargs="+", default=[2.0, 3.0, 4.0])
    ap.add_argument("--slots", type=int, default=300)
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--annuli", type=int, default=5)
    ap.add_argument("--outdir", default="power_histograms")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    region = Region(1000.0, 1000.0)
    for n in args.sizes:
        dep = generate_deployment("uniform-iid", n, region, args.seed)
        for eta in args.etas:
            params = ChannelParams(eta=eta, alpha=args.alpha, slots=args.slots)
            hist = received_power_histogram(dep, params, args.seed, args.annuli)
            path = outdir / f"power_n{n}_eta{eta:g}.csv"
            save_power_histograms(hist, path)
            print(f"wrote {path} (samples per annulus: {hist.counts})")


if __name__ == "__main__":
    main()
