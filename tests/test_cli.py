import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import discrit
from discrit.channel import ChannelParams
from discrit import cli
from discrit.cli import compare_graphs, main, run_pipeline
from discrit.config import CONFIG_KEYS, ConfigError, config_hash, validate_config
from discrit.geometry import Region
from discrit.graphs import EdgeGraph, load_graph, save_graph
from discrit.selforg import SelfOrgParams


def minimal_config(tmp_path, **extra):
    doc = {
        "output_dir": str(tmp_path / "out"),
        "seeds": [0],
        "deployment": {"kind": "grid", "n": 4, "region": {"width": 1000, "height": 1000}},
    }
    doc.update(extra)
    return doc


def small_full_config(tmp_path):
    return {
        "output_dir": str(tmp_path / "out"),
        "seeds": [1],
        "deployment": {"kind": "uniform-iid", "n": 120,
                       "region": {"width": 500, "height": 500}},
        "channel": {"alpha": 0.1, "slots": 400},
        "protocol": {"mode": "discrit"},
        "interior_margin": 0.1,
    }


def test_minimal_deploy_only(tmp_path):
    doc = minimal_config(tmp_path)
    assert run_pipeline(doc) == 0
    out = tmp_path / "out"
    assert (out / "seed-0" / "deployment.csv").exists()
    assert (out / "manifest.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == config_hash(doc)
    assert manifest["seeds"] == [0]
    assert {e["file"] for e in manifest["artifacts"]} >= {
        "seed-0/deployment.csv", "seed-0/deployment.json"}


def test_pipeline_reruns_byte_identical(tmp_path):
    doc = small_full_config(tmp_path)
    run_pipeline(doc)
    out = Path(doc["output_dir"])
    first = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    run_pipeline(doc)
    second = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert first.keys() == second.keys()
    assert all(first[p] == second[p] for p in first)


def test_full_pipeline_writes_disparity_table(tmp_path):
    doc = small_full_config(tmp_path)
    run_pipeline(doc)
    out = Path(doc["output_dir"])
    lines = (out / "disparity.csv").read_text().strip().splitlines()
    assert lines[0] == "seed,kind,scope,g_a,g_b,d_ab,d_ba"
    scopes = {line.split(",")[2] for line in lines[1:]}
    assert scopes == {"all", "interior"}
    assert (out / "seed-1" / "protocol.edges.csv").exists()
    assert (out / "seed-1" / "trace.csv").exists()
    assert (out / "seed-1" / "hello.weights.csv").exists()


DEPLOY_FILES = ["seed-1/deployment.csv", "seed-1/deployment.json"]
HELLO_FILES = ["seed-1/hello.weights.csv", "seed-1/hello.weights.json"]
PROTOCOL_FILES = ["seed-1/protocol.edges.csv", "seed-1/protocol.graph.json", "seed-1/trace.csv"]


@pytest.mark.parametrize("command, files", [
    ("deploy", DEPLOY_FILES),
    ("hello", DEPLOY_FILES + HELLO_FILES),
    ("discrit", DEPLOY_FILES + HELLO_FILES + PROTOCOL_FILES),
    ("eval", DEPLOY_FILES + HELLO_FILES + PROTOCOL_FILES + [
        "disparity.csv", "seed-1/critical.edges.csv", "seed-1/critical.graph.json",
        "seed-1/degree1.edges.csv", "seed-1/degree1.graph.json"]),
    ("discretize", DEPLOY_FILES + ["seed-1/rho.csv", "seed-1/rho_hist.csv"]),
    ("selforg", DEPLOY_FILES + ["seed-1/psi.csv"]),
    ("localize", DEPLOY_FILES + ["seed-1/localization.csv"]),
])
def test_command_writes_its_stage_and_what_it_reads(tmp_path, command, files):
    # Each command writes the products its stage reads, and nothing of the
    # stages it does not run, although the config carries every block.
    doc = dict(small_full_config(tmp_path), discretize={}, selforg={"h_max": 3, "slots": 2000},
               localize={})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg)]) == 0
    out = Path(doc["output_dir"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert [e["file"] for e in manifest["artifacts"]] == sorted(files)
    written = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert written == set(files) | {"manifest.json"}


@pytest.mark.parametrize("mode", ["discrit", "distance"])
def test_interior_protocol_gets_the_configured_options(tmp_path, monkeypatch, mode):
    # The interior run takes the configured termination options, as the full run does.
    calls = []

    def spy(run):
        def wrapped(arg, **options):
            calls.append((arg.n, options))
            return run(arg, **options)
        return wrapped

    monkeypatch.setattr(cli, "run_discrit", spy(cli.run_discrit))
    monkeypatch.setattr(cli, "run_range_algorithm", spy(cli.run_range_algorithm))
    options = {"termination": "distributed", "timeout_rounds": 2}
    doc = dict(small_full_config(tmp_path), protocol=dict(options, mode=mode))
    assert run_pipeline(doc, stages=["eval"]) == 0
    assert [o for _, o in calls] == [options, options]
    assert calls[0][0] == 120 > calls[1][0]


def test_unknown_stage_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown stage"):
        run_pipeline(minimal_config(tmp_path), stages=["deploy", "margin"])
    assert not (tmp_path / "out").exists()


def test_failure_is_reported_under_the_running_stage(tmp_path):
    # A product a stage pulls in fails under that stage's name.
    doc = dict(small_full_config(tmp_path), channel={"slots": 1})
    with pytest.raises(RuntimeError, match="stage 'eval' failed for seed 1"):
        run_pipeline(doc, stages=["eval"])
    with pytest.raises(RuntimeError, match="stage 'protocol' failed for seed 1"):
        run_pipeline(doc)


def test_rho_summary_counts_every_pair(tmp_path):
    doc = minimal_config(tmp_path, discretize={})
    doc["deployment"]["n"] = 49
    assert run_pipeline(doc) == 0
    header, row = (tmp_path / "out" / "seed-0" / "rho.csv").read_text().splitlines()
    assert header == "n,pairs,pairs_excluded,mean_rho,var_rho,cv_rho"
    n, used, excluded = (int(x) for x in row.split(",")[:3])
    assert (n, used + excluded) == (49, 49 * 48 // 2)


def test_grid_interior_eval_runs(tmp_path):
    # The interior scope holds 288 of the 400 grid nodes; its subset keeps
    # kind "grid", which used to demand a perfect-square count.
    doc = minimal_config(tmp_path, protocol={"mode": "distance"}, interior_margin=0.1)
    doc["deployment"] = {"kind": "grid", "n": 400, "region": {"width": 1000, "height": 600}}
    assert run_pipeline(doc) == 0
    lines = (tmp_path / "out" / "disparity.csv").read_text().splitlines()
    assert {line.split(",")[2] for line in lines[1:]} == {"all", "interior"}


def test_infinite_region_side_rejected(tmp_path):
    doc = json.loads('{"deployment": {"kind": "grid", "n": 4, "region": {"width": Infinity}}}')
    with pytest.raises(ConfigError, match="deployment/region: .*finite"):
        run_pipeline(dict(doc, output_dir=str(tmp_path / "out"), seeds=[0]))


def test_invalid_config_rejected(tmp_path):
    with pytest.raises(ConfigError, match="seeds"):
        validate_config({"output_dir": "x", "seeds": [], "deployment": {"kind": "grid", "n": 4}})
    with pytest.raises(ConfigError):
        validate_config(minimal_config(tmp_path, unknown_block={}))


def test_selforg_q_bound_matches_params(tmp_path):
    # SelfOrgParams accepts q = 1 (every slot collides), so the schema does too.
    doc = validate_config(minimal_config(tmp_path, selforg={"q": 1}))
    params = SelfOrgParams(**doc["selforg"])
    assert params.q == 1 and params.h_max == 8
    with pytest.raises(ConfigError, match="selforg: q must be"):
        validate_config(minimal_config(tmp_path, selforg={"q": 1.01}))
    with pytest.raises(ValueError, match="q must be"):  # the params still validate
        SelfOrgParams(q=0)


@pytest.mark.parametrize("extra", [
    {"seeds": [1.0]},
    {"deployment": {"kind": "uniform-iid", "n": 100.0}},
    {"channel": {"slots": 300.0}},
    {"selforg": {"h_max": 2.0}},
    {"channel": {"alpha": 0}},
    {"deployment": {"kind": "grid", "n": 4, "region": {"width": math.inf}}},
    {"selforg": {"a": -1}},
    {"channel": {"slots": True}},
    {"deployment": {"kind": "grid", "n": 5}},
    {"channel": {"p_t": math.nan}},
    {"channel": {"eta": math.nan}},
    {"selforg": {"a": math.nan}},
    {"interior_margin": math.nan},
    {"protocol": {"mode": "distance", "termination": "distributed", "suppress": False}},
    {"seeds": [0, 0]},
    {"channel": {"p_t": math.inf}},
    {"channel": {"eta": math.inf}},
    {"selforg": {"sigma2": math.inf}},
    {"selforg": {"p_t": math.inf}},
], ids=["seed-float", "n-float", "slots-float", "h_max-float", "alpha-zero", "width-inf",
        "a-negative", "slots-bool", "grid-n5", "p_t-nan", "eta-nan", "a-nan", "margin-nan",
        "suppress-unknown-key", "seeds-dup", "p_t-inf", "eta-inf", "selforg-sigma2-inf",
        "selforg-p_t-inf"])
def test_config_rejected_before_any_stage(tmp_path, extra):
    # All but slots-bool once passed validation and then failed in a stage,
    # ran on a nonsense value, or (seeds-dup) ran a seed twice, after a seed
    # directory had been written. slots-bool checks that an integer key
    # takes no bool.
    doc = minimal_config(tmp_path, **extra)
    with pytest.raises(ConfigError):
        validate_config(doc)
    with pytest.raises(ConfigError):
        run_pipeline(doc)
    assert not list(tmp_path.glob("out/seed-*"))


@pytest.mark.parametrize("extra", [
    {"selforg": {"a": 1.0}}, {"discretize": {"pair_sample": 100}}, {"channel": {"fading_mean": 1.0}},
    {"selforg": {"alpha0": 1.0}}, {"selforg": {"w": 1e6}},
], ids=["selforg-a", "discretize-pair_sample", "channel-fading_mean", "selforg-alpha0", "selforg-w"])
def test_removed_options_are_unknown_keys(tmp_path, extra):
    # psi's contention constant is always calibrated, and rho always takes
    # every pair. A Rayleigh mean and alpha0 only scale p_t, and the
    # bandwidth scales psi_sim and psi_theory alike.
    with pytest.raises(ConfigError, match="unknown key"):
        run_pipeline(minimal_config(tmp_path, **extra))
    assert not (tmp_path / "out").exists()


def test_config_blocks_are_param_fields(tmp_path):
    # A block is the keyword set of its constructor, so a key the config
    # accepts always reaches the params, and no field lacks a key; every
    # field's default has the JSON type its key takes.
    for block, cls in (("channel", ChannelParams), ("selforg", SelfOrgParams)):
        keys = set(CONFIG_KEYS[block])
        assert keys == {f.name for f in dataclasses.fields(cls)}, block
        validate_config(minimal_config(tmp_path, **{block: dataclasses.asdict(cls())}))
        with pytest.raises(ConfigError, match=f"{block}: unknown key 'extra'"):
            validate_config(minimal_config(tmp_path, **{block: {"extra": 1}}))
    assert set(CONFIG_KEYS["deployment"]["region"]) == {f.name for f in dataclasses.fields(Region)}


def test_config_has_24_settable_values():
    # The leaves of CONFIG_KEYS; an option added or removed changes this count on purpose.
    leaves = lambda keys: sum(leaves(v) if isinstance(v, dict) else 1 for v in keys.values())
    assert leaves(CONFIG_KEYS) == 24


def test_param_defaults_match_readme():
    # The values README.md lists under "Defaults"; the field defaults are
    # the only copy of them in the code.
    assert ChannelParams() == ChannelParams(
        p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.1,
        fading="deterministic", slots=5000)
    assert SelfOrgParams() == SelfOrgParams(
        p_t=0.1, sigma2=2.33e-6, eta=2.0, q=0.001, slots=20000, h_max=8)
    with pytest.raises(ValueError, match="h_max must be"):
        SelfOrgParams(h_max=0)


def test_localize_margin_key_rejected(tmp_path):
    # interior_margin alone defines the interior for every stage.
    with pytest.raises(ConfigError, match="localize"):
        validate_config(minimal_config(tmp_path, localize={"margin": 0.1}))


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(discrit.__file__).resolve().parent.parent)
    code = ("import sys, discrit.cli; "
            "print(*(m in sys.modules for m in ('scipy.stats', 'jsonschema', 'scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False False False"


def test_package_root_imports_no_submodule():
    # The root holds the docstring and __version__; every name lives in its module.
    src = str(Path(discrit.__file__).resolve().parent.parent)
    code = "import sys, discrit; print(sorted(m for m in sys.modules if m.startswith('discrit.')))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_pipeline_leaves_scipy_spatial_sparse_special_unloaded(tmp_path):
    # Their imports took most of a CLI run's set-up; a pipeline stage that
    # pulled one in would move that cost into the first seed.
    src = str(Path(discrit.__file__).resolve().parent.parent)
    doc = {"output_dir": str(tmp_path / "out"), "seeds": [0],
           "deployment": {"kind": "uniform-iid", "n": 100, "region": {"width": 400, "height": 400}},
           "channel": {"slots": 300}, "protocol": {}, "discretize": {},
           "selforg": {"h_max": 2, "slots": 500}, "localize": {}}
    code = ("import json, sys, discrit.cli\n"
            "loaded = lambda: print(*(m in sys.modules for m in ('scipy.spatial', 'scipy.sparse', 'scipy.special')))\n"
            "loaded()\n"
            "discrit.cli.run_pipeline(json.loads(sys.argv[1]))\n"
            "loaded()")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(doc)], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["False False False"] * 2
    files = {e["file"] for e in json.loads((tmp_path / "out" / "manifest.json").read_text())["artifacts"]}
    assert {"disparity.csv", "seed-0/hello.weights.csv", "seed-0/protocol.edges.csv", "seed-0/rho.csv",
            "seed-0/psi.csv", "seed-0/localization.csv"} <= files  # every stage ran


def test_cli_main_deploy_and_flags(tmp_path, capsys):
    out = tmp_path / "cli-out"
    rc = main(["deploy", "--out", str(out), "--n", "9", "--kind", "grid", "--seed", "3"])
    assert rc == 0
    rows = (out / "seed-3" / "deployment.csv").read_text().strip().splitlines()
    assert len(rows) == 10  # header + 9 nodes


def test_cli_main_error_exit(tmp_path):
    rc = main(["deploy", "--config", str(tmp_path / "missing.json")])
    assert rc == 1


def test_compare_graphs(tmp_path, capsys):
    g = EdgeGraph(4, frozenset([(0, 1), (1, 2)]))
    empty = EdgeGraph(4, frozenset())
    save_graph(g, tmp_path / "a")
    save_graph(g, tmp_path / "b")
    save_graph(empty, tmp_path / "e")
    assert compare_graphs(tmp_path / "a.edges.csv", tmp_path / "b.edges.csv") == (0.0, 0.0)
    d_ab, d_ba = compare_graphs(tmp_path / "a.edges.csv", tmp_path / "e.edges.csv")
    assert d_ab == 1.0 and d_ba is None
    rc = main(["compare", str(tmp_path / "a.edges.csv"), str(tmp_path / "e.edges.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "D(a,b) = 1.0" in out and "undefined" in out
    mismatched = EdgeGraph(5, frozenset([(0, 1)]))
    save_graph(mismatched, tmp_path / "m")
    with pytest.raises(ValueError):
        compare_graphs(tmp_path / "a.edges.csv", tmp_path / "m.edges.csv")


@pytest.mark.parametrize("header", [
    '{"n": 2.5, "radius": "far"}', '{"n": 4, "radius": NaN}', '{"n": 4, "radius": -4}',
    '{"n": true, "radius": null}', '{"n": -1, "radius": null}',
], ids=["n-float-radius-str", "radius-nan", "radius-negative", "n-bool", "n-negative"])
def test_compare_rejects_bad_graph_headers(tmp_path, capsys, header):
    # A .graph.json header is outside input. Two such files used to compare
    # with exit status 0 and a disparity.
    for name, rows in (("a", "0,1\n"), ("b", "")):
        (tmp_path / f"{name}.graph.json").write_text(header + "\n")
        (tmp_path / f"{name}.edges.csv").write_text("i,j\n" + rows)
    with pytest.raises(ValueError, match="n must be|radius must be"):
        load_graph(tmp_path / "a")
    assert main(["compare", str(tmp_path / "a.edges.csv"), str(tmp_path / "b.edges.csv")]) == 1
    assert "discrit: error:" in capsys.readouterr().err


def test_compare_pinned_seed_goldens(tmp_path):
    # Frozen from the first verified run of this fixture; any drift in
    # the deployment, channel, or protocol stream shows up here.
    from discrit.channel import ChannelParams, simulate_hello
    from discrit.geometry import Region, generate_deployment
    from discrit.graphs import critical_radius
    from discrit.protocol import run_discrit

    dep = generate_deployment("uniform-iid", 150, Region(500, 500), 1)
    params = ChannelParams(p_t=0.05, eta=4.0, sigma2=1e-10, beta=4.0, alpha=0.1, slots=400)
    ghat, _ = run_discrit(simulate_hello(dep, params, 1))
    _, cgg = critical_radius(dep)
    save_graph(ghat, tmp_path / "ghat")
    save_graph(cgg, tmp_path / "cgg")
    d_ab, d_ba = compare_graphs(tmp_path / "ghat.edges.csv", tmp_path / "cgg.edges.csv")
    assert d_ab == 0.13394919168591224
    assert d_ba == 0.07635467980295567


def test_output_dir_env_override(tmp_path, monkeypatch):
    doc = minimal_config(tmp_path)
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("DISCRIT_OUTPUT_DIR", str(override))
    run_pipeline(doc)
    assert (override / "seed-0" / "deployment.csv").exists()
    assert not (tmp_path / "out").exists()
