"""Experiment driver.

Subcommands: deploy, hello, discrit, eval, discretize, selforg,
localize, pipeline, compare. Every subcommand takes an optional JSON
config (checked by config.validate_config) plus override flags; all
randomness comes from the seeds, so re-running a config rewrites every
artifact byte for byte.

Each command runs its stage for every seed. A stage computes the
deployment, Hello table and graphs it reads, once per seed, on first
use, and writes their artifacts then. A failure is reported under the
stage that was running: `discrit eval` reports `stage 'eval' failed`
also when the protocol run it pulled in fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cached_property
from pathlib import Path

from . import config as config_mod
from .channel import ChannelParams, save_link_weights, simulate_hello
from .discretize import rho_stats, save_rho_histogram_csv
from .geometry import (
    DEPLOYMENT_KINDS, Region, generate_deployment, interior_nodes, save_csv,
    save_deployment_json, save_positions_csv,
)
from .graphs import (
    critical_radius, degree1_radius, disparity, load_graph, save_graph,
)
from .localize import corner_beacons, error_pattern, save_error_pattern_csv
from .protocol import run_discrit, run_range_algorithm, trace_to_csv
from .selforg import SelfOrgParams, find_h_opt, save_psi_csv

# Stages in run order, each with the config block that puts it in a pipeline run.
STAGE_ORDER = {"deploy": "deployment", "hello": "channel", "protocol": "protocol", "eval": "protocol",
               "discretize": "discretize", "selforg": "selforg", "localize": "localize"}


def pipeline_stages(doc: dict) -> tuple:
    """Stages implied by the blocks a config carries."""
    return tuple(stage for stage, block in STAGE_ORDER.items() if block in doc)


class _SeedRun:
    """The stages for one seed; each product is computed once, on first use."""

    def __init__(self, doc, seed, seed_dir):
        self.doc = doc
        self.seed = seed
        self.dir = seed_dir
        self.artifacts = []

    def _save(self, save, obj, name):
        path = self.dir / name
        save(obj, path)
        self.artifacts.append(path)

    @cached_property
    def dep(self):
        spec = self.doc["deployment"]
        dep = generate_deployment(spec["kind"], spec["n"], Region(**spec.get("region", {})), self.seed)
        self._save(save_positions_csv, dep, "deployment.csv")
        self._save(save_deployment_json, dep, "deployment.json")
        return dep

    @cached_property
    def weights(self):
        weights = simulate_hello(self.dep, ChannelParams(**self.doc.get("channel", {})), self.seed)
        self.artifacts += save_link_weights(weights, self.dir / "hello")
        return weights

    @cached_property
    def protocol_graph(self):
        graph, trace = self._protocol()
        self.artifacts += save_graph(graph, self.dir / "protocol")
        self._save(trace_to_csv, trace, "trace.csv")
        return graph

    @cached_property
    def cgg(self):
        return critical_radius(self.dep)[1]

    def _protocol(self, ids=None):
        """The configured protocol on all nodes, or on the given ids alone.

        Weight mode filters after weight computation: the ids keep the
        full-deployment Hello weights, restricted to their pairs.
        """
        options = dict(self.doc.get("protocol", {}))
        if options.pop("mode", "discrit") == "discrit":
            return run_discrit(self.weights if ids is None else self.weights.subset(ids), **options)
        return run_range_algorithm(self.dep if ids is None else self.dep.subset(ids), **options)

    def margin(self) -> float:
        """interior_margin in meters: one definition of "interior" for every stage."""
        return self.doc.get("interior_margin", 0.1) * min(self.dep.region.width,
                                                          self.dep.region.height)

    def deploy(self):
        return self.dep

    def hello(self):
        return self.weights

    def protocol(self):
        return self.protocol_graph

    def eval(self):
        kind = self.doc["deployment"]["kind"]
        _, g1 = degree1_radius(self.dep)
        self.artifacts += save_graph(self.cgg, self.dir / "critical")
        self.artifacts += save_graph(g1, self.dir / "degree1")
        scopes = [("all", self.protocol_graph, self.cgg, g1)]
        ids = interior_nodes(self.dep, self.margin())
        if ids.size >= 2:
            sub = self.dep.subset(ids)
            scopes.append(("interior", self._protocol(ids)[0],
                           critical_radius(sub)[1], degree1_radius(sub)[1]))
        return [[self.seed, kind, scope, "protocol", name, disparity(graph, ref), disparity(ref, graph)]
                for scope, graph, *refs in scopes for name, ref in zip(("critical", "degree1"), refs)]

    def discretize(self):
        st = rho_stats(self.dep, self.cgg)
        self._save(save_rho_histogram_csv, st, "rho_hist.csv")
        summary_path = self.dir / "rho.csv"
        save_csv(summary_path, ["n", "pairs", "pairs_excluded", "mean_rho", "var_rho", "cv_rho"],
                 [self.dep.n], [st.pairs_used], [st.pairs_excluded], [st.mean], [st.variance], [st.cv])
        self.artifacts.append(summary_path)

    def selforg(self):
        _, rows = find_h_opt(self.dep, self.cgg, SelfOrgParams(**self.doc.get("selforg", {})), self.seed)
        self._save(save_psi_csv, rows, "psi.csv")

    def localize(self):
        on_protocol = self.doc.get("localize", {}).get("graph", "critical") == "protocol"
        graph = self.protocol_graph if on_protocol else self.cgg
        pattern = error_pattern(self.dep, corner_beacons(self.dep), graph, margin=self.margin())
        self._save(save_error_pattern_csv, pattern, "localization.csv")


def run_pipeline(doc: dict, stages=None) -> int:
    """Run the given stages (by default the config's) for every seed; returns the exit status."""
    doc = config_mod.validate_config(doc)
    stages = pipeline_stages(doc) if stages is None else tuple(stages)
    if not set(stages) <= STAGE_ORDER.keys():
        raise ValueError(f"unknown stage in {list(stages)}; stages are {list(STAGE_ORDER)}")
    out = config_mod.output_dir(doc)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    disparity_rows = []
    for seed in doc["seeds"]:
        seed_dir = out / f"seed-{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        run = _SeedRun(doc, seed, seed_dir)
        for stage in stages:
            try:
                result = getattr(run, stage)()
            except Exception as exc:
                raise RuntimeError(f"stage {stage!r} failed for seed {seed}: {exc}") from exc
            if stage == "eval":
                disparity_rows += result
        artifacts += run.artifacts
    if disparity_rows:
        path = out / "disparity.csv"
        save_csv(path, ["seed", "kind", "scope", "g_a", "g_b", "d_ab", "d_ba"], *zip(*disparity_rows))
        artifacts.append(path)
    config_mod.write_manifest(doc, out, artifacts)
    return 0


def compare_graphs(file_a, file_b) -> tuple:
    """Disparity in both directions between two serialised graphs.

    Arguments are <prefix>.edges.csv paths (or bare prefixes); a
    direction whose reference edge set is empty is reported as None.
    """
    ga, gb = (load_graph(str(p).removesuffix(".edges.csv")) for p in (file_a, file_b))
    if ga.n != gb.n:
        raise ValueError(f"node counts differ: {ga.n} vs {gb.n}")
    d_ab = disparity(ga, gb) if ga.num_edges else None
    d_ba = disparity(gb, ga) if gb.num_edges else None
    return d_ab, d_ba


def _build_config(args) -> dict:
    doc = {
        "output_dir": "out",
        "seeds": [0],
        "deployment": {"kind": "uniform-iid", "n": 100},
    }
    if args.config:
        doc = json.loads(Path(args.config).read_text())
    if getattr(args, "out", None):
        doc["output_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        doc["seeds"] = [args.seed]
    if getattr(args, "n", None) is not None:
        doc.setdefault("deployment", {})["n"] = args.n
    if getattr(args, "kind", None) is not None:
        doc.setdefault("deployment", {})["kind"] = args.kind
    if getattr(args, "margin", None) is not None:
        doc["interior_margin"] = args.margin
    return config_mod.validate_config(doc)


# Each command's stage; it computes the products it reads.
COMMAND_STAGES = {
    "deploy": "deploy",
    "hello": "hello",
    "discrit": "protocol",
    "eval": "eval",
    "discretize": "discretize",
    "selforg": "selforg",
    "localize": "localize",
    "pipeline": None,  # derived from the config blocks
}


def _add_common(sub):
    sub.add_argument("--config", help="JSON experiment config")
    sub.add_argument("--out", help="output directory (overrides config)")
    sub.add_argument("--seed", type=int, help="single seed (overrides config seeds)")
    sub.add_argument("--n", type=int, help="node count override")
    sub.add_argument("--kind", choices=DEPLOYMENT_KINDS, help="deployment kind override")
    sub.add_argument("--margin", type=float, help="interior margin fraction override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discrit", description="near-critical geometric graph experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in COMMAND_STAGES:
        _add_common(subs.add_parser(name, help=f"run the {name} stage and its dependencies"))
    cmp_parser = subs.add_parser("compare", help="disparity between two graph files")
    cmp_parser.add_argument("file_a")
    cmp_parser.add_argument("file_b")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            d_ab, d_ba = compare_graphs(args.file_a, args.file_b)
            print(f"D(a,b) = {'undefined' if d_ab is None else d_ab}")
            print(f"D(b,a) = {'undefined' if d_ba is None else d_ba}")
            return 0
        doc = _build_config(args)
        if args.command == "discrit":
            doc.setdefault("protocol", {})["mode"] = "discrit"
        target = COMMAND_STAGES[args.command]
        return run_pipeline(doc, stages=None if target is None else [target])
    except Exception as exc:
        print(f"discrit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
