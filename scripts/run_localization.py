#!/usr/bin/env python3
"""Hop-ratio localization error patterns with corner beacons, on the
exact critical graph and on the weight-protocol approximation."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from discrit.channel import ChannelParams, simulate_hello
from discrit.geometry import Region, generate_deployment
from discrit.graphs import critical_radius, giant_component, induced_subgraph
from discrit.localize import corner_beacons, error_pattern, save_error_pattern_csv
from discrit.protocol import run_discrit


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--side", type=float, default=1000.0, help="region side (m)")
    ap.add_argument("--outdir", default="localization")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    region = Region(args.side, args.side)
    dep = generate_deployment("uniform-iid", args.n, region, args.seed)
    margin = 0.1 * min(region.width, region.height)

    rc, cgg = critical_radius(dep)
    exact = error_pattern(dep, corner_beacons(dep), cgg, margin)
    save_error_pattern_csv(exact, outdir / "errors_critical.csv")
    print(f"critical graph: mean error {exact.mean_error:.1f} m "
          f"(interior {exact.interior_mean_error:.1f} m, r_crit {rc:.1f} m)")

    weights = simulate_hello(dep, ChannelParams(), args.seed)
    ghat, _ = run_discrit(weights)
    giant = giant_component(ghat)
    sub = dep.subset(giant)
    approx = error_pattern(sub, corner_beacons(sub), induced_subgraph(ghat, giant), margin)
    save_error_pattern_csv(approx, outdir / "errors_protocol.csv")
    print(f"protocol graph: mean error {approx.mean_error:.1f} m "
          f"(interior {approx.interior_mean_error:.1f} m, giant {giant.size} nodes)")
    print(f"wrote {outdir}/")


if __name__ == "__main__":
    main()
