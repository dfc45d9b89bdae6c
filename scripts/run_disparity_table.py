#!/usr/bin/env python3
"""Disparity of the weight-protocol graph against the exact critical and
degree-1 graphs, for all three deployment kinds, on all nodes and on the
interior. Writes one CSV row per (kind, scope, reference)."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from discrit.channel import ChannelParams, simulate_hello
from discrit.geometry import Region, generate_deployment, interior_nodes, save_csv
from discrit.graphs import critical_radius, degree1_radius, disparity
from discrit.protocol import run_discrit


def rows_for_kind(kind, n, region, seed, margin_frac):
    dep = generate_deployment(kind, n, region, seed)
    weights = simulate_hello(dep, ChannelParams(), seed)
    margin = margin_frac * min(region.width, region.height)
    out = []
    for scope, ids in (("all", range(dep.n)), ("interior", interior_nodes(dep, margin))):
        sub = dep.subset(ids)
        ghat, _ = run_discrit(weights.subset(ids))
        for name, ref in (("critical", critical_radius(sub)[1]),
                          ("degree1", degree1_radius(sub)[1])):
            out.append([kind, scope, name, disparity(ghat, ref), disparity(ref, ghat)])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--side", type=float, default=1000.0, help="region side (m)")
    ap.add_argument("--margin", type=float, default=0.1, help="interior margin fraction")
    ap.add_argument("--out", default="disparity_table.csv")
    args = ap.parse_args()

    region = Region(args.side, args.side)
    rows = []
    for kind in ("uniform-iid", "randomised-lattice", "grid"):
        n = args.n
        if kind == "grid":
            n = int(args.n ** 0.5) ** 2  # nearest square below
        rows += rows_for_kind(kind, n, region, args.seed, args.margin)
        print(f"{kind}: done (n={n})")
    save_csv(args.out, ["kind", "scope", "reference", "d_protocol_ref", "d_ref_protocol"], *zip(*rows))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
