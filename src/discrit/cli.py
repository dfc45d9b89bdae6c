"""Experiment driver.

Subcommands: deploy, hello, discrit, eval, discretize, selforg,
localize, pipeline, compare. Every subcommand takes an optional JSON
config (checked by config.validate_config) plus override flags; all
randomness comes from the seeds, so re-running a config rewrites every
artifact byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
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

STAGE_ORDER = ("deploy", "hello", "protocol", "eval", "discretize", "selforg", "localize")


def _protocol_mode(doc) -> str:
    return doc.get("protocol", {}).get("mode", "discrit")


def _localize_graph(doc) -> str:
    return doc.get("localize", {}).get("graph", "critical")


def resolve_stages(doc: dict, requested) -> tuple:
    """Close the requested stage set under hard dependencies."""
    want = set(requested)
    if "eval" in want:
        want.add("protocol")
    if "localize" in want and _localize_graph(doc) == "protocol":
        want.add("protocol")
    if "protocol" in want and _protocol_mode(doc) == "discrit":
        want.add("hello")
    want.add("deploy")
    return tuple(s for s in STAGE_ORDER if s in want)


def pipeline_stages(doc: dict) -> tuple:
    """Stages implied by the blocks a config carries."""
    want = ["deploy"]
    if "channel" in doc:
        want.append("hello")
    if "protocol" in doc:
        want += ["protocol", "eval"]
    for block in ("discretize", "selforg", "localize"):
        if block in doc:
            want.append(block)
    return resolve_stages(doc, want)


class _SeedRun:
    """All stages for one seed, memoising intermediate results."""

    def __init__(self, doc, seed, seed_dir):
        self.doc = doc
        self.seed = seed
        self.dir = seed_dir
        self.artifacts = []
        self.dep = None
        self.weights = None
        self.protocol_graph = None
        self._cgg = None

    def cgg(self):
        if self._cgg is None:
            self._cgg = critical_radius(self.dep)[1]
        return self._cgg

    def margin(self) -> float:
        """interior_margin in meters: one definition of "interior" for every stage."""
        return self.doc.get("interior_margin", 0.1) * min(self.dep.region.width,
                                                          self.dep.region.height)

    def deploy(self):
        self.dep = generate_deployment(
            self.doc["deployment"]["kind"], self.doc["deployment"]["n"],
            Region(**self.doc["deployment"].get("region", {})), self.seed)
        csv_path = self.dir / "deployment.csv"
        json_path = self.dir / "deployment.json"
        save_positions_csv(self.dep, csv_path)
        save_deployment_json(self.dep, json_path)
        self.artifacts += [csv_path, json_path]

    def hello(self):
        params = ChannelParams(**self.doc.get("channel", {}))
        self.weights = simulate_hello(self.dep, params, self.seed)
        self.artifacts += save_link_weights(self.weights, self.dir / "hello")

    def protocol(self):
        kwargs = {k: v for k, v in self.doc.get("protocol", {}).items() if k != "mode"}
        if _protocol_mode(self.doc) == "discrit":
            graph, trace = run_discrit(self.weights, **kwargs)
        else:
            graph, trace = run_range_algorithm(self.dep, **kwargs)
        self.protocol_graph = graph
        self.artifacts += save_graph(graph, self.dir / "protocol")
        trace_path = self.dir / "trace.csv"
        trace_to_csv(trace, trace_path)
        self.artifacts.append(trace_path)

    def _interior_protocol(self, ids, sub):
        # Filter after weight computation: interior nodes keep the
        # full-deployment Hello weights, restricted to interior pairs.
        if _protocol_mode(self.doc) == "discrit":
            graph, _ = run_discrit(self.weights.subset(ids))
        else:
            graph, _ = run_range_algorithm(sub)
        return graph

    def eval(self):
        kind = self.doc["deployment"]["kind"]
        cgg = self.cgg()
        _, g1 = degree1_radius(self.dep)
        self.artifacts += save_graph(cgg, self.dir / "critical")
        self.artifacts += save_graph(g1, self.dir / "degree1")
        rows = []
        for name, ref in (("critical", cgg), ("degree1", g1)):
            rows.append([self.seed, kind, "all", "protocol", name,
                         disparity(self.protocol_graph, ref),
                         disparity(ref, self.protocol_graph)])
        ids = interior_nodes(self.dep, self.margin())
        if ids.size >= 2:
            sub = self.dep.subset(ids)
            proto_i = self._interior_protocol(ids, sub)
            for name, ref in (("critical", critical_radius(sub)[1]),
                              ("degree1", degree1_radius(sub)[1])):
                rows.append([self.seed, kind, "interior", "protocol", name,
                             disparity(proto_i, ref), disparity(ref, proto_i)])
        return rows

    def discretize(self):
        st = rho_stats(self.dep, self.cgg(), seed=self.seed, **self.doc.get("discretize", {}))
        hist_path = self.dir / "rho_hist.csv"
        save_rho_histogram_csv(st, hist_path)
        summary_path = self.dir / "rho.csv"
        save_csv(summary_path, ["n", "pairs", "pairs_excluded", "mean_rho", "var_rho", "cv_rho"],
                 [self.dep.n], [st.pairs_used], [st.pairs_excluded], [st.mean], [st.variance], [st.cv])
        self.artifacts += [hist_path, summary_path]

    def selforg(self):
        params = SelfOrgParams(**self.doc.get("selforg", {}))
        _, rows = find_h_opt(self.dep, self.cgg(), params, self.seed)
        path = self.dir / "psi.csv"
        save_psi_csv(rows, path)
        self.artifacts.append(path)

    def localize(self):
        graph = self.protocol_graph if _localize_graph(self.doc) == "protocol" else self.cgg()
        pattern = error_pattern(self.dep, corner_beacons(self.dep), graph, margin=self.margin())
        path = self.dir / "localization.csv"
        save_error_pattern_csv(pattern, path)
        self.artifacts.append(path)


def run_pipeline(doc: dict, stages=None) -> int:
    """Run the config's stages for every seed; returns the exit status."""
    doc = config_mod.validate_config(doc)
    stages = pipeline_stages(doc) if stages is None else resolve_stages(doc, stages)
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
    def _load(p):
        p = str(p)
        if p.endswith(".edges.csv"):
            p = p[: -len(".edges.csv")]
        return load_graph(p)

    ga, gb = _load(file_a), _load(file_b)
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


# Each command's target stage; resolve_stages adds its dependencies.
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
