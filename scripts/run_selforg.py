#!/usr/bin/env python3
"""Transport capacity against hop distance on the critical graph and
optionally on the weight-protocol approximation of it."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from discrit.channel import ChannelParams, simulate_hello
from discrit.geometry import Region, generate_deployment
from discrit.graphs import critical_radius, giant_component, induced_subgraph
from discrit.protocol import run_discrit
from discrit.selforg import SelfOrgParams, find_h_opt, save_psi_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--h-max", type=int, default=8)
    ap.add_argument("--protocol-graph", action="store_true",
                    help="also run on the distributed approximation")
    ap.add_argument("--outdir", default="selforg")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    region = Region(1000.0, 1000.0)
    dep = generate_deployment("uniform-iid", args.n, region, args.seed)
    _, cgg = critical_radius(dep)
    params = SelfOrgParams(h_max=args.h_max)
    h_opt, rows = find_h_opt(dep, cgg, params, args.seed)
    save_psi_csv(rows, outdir / "psi_critical.csv")
    print(f"critical graph: h_opt = {h_opt}")

    if args.protocol_graph:
        weights = simulate_hello(dep, ChannelParams(), args.seed)
        ghat, _ = run_discrit(weights)
        giant = giant_component(ghat)
        sub = dep.subset(giant)
        h_opt2, rows2 = find_h_opt(sub, induced_subgraph(ghat, giant), params, args.seed)
        save_psi_csv(rows2, outdir / "psi_protocol.csv")
        print(f"protocol graph (giant component, {giant.size} nodes): h_opt = {h_opt2}")
    print(f"wrote {outdir}/")


if __name__ == "__main__":
    main()
