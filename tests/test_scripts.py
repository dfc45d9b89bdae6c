"""Smoke test: every experiment script runs at a small size, exits 0 and
writes its CSV files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

CASES = {
    "run_disparity_table.py": (["--n", "200", "--side", "400"],
                               {"disparity_table/disparity_table.csv": 13}),
    "run_localization.py": (["--n", "200", "--side", "500"],
                            {"localization/errors_critical.csv": None,
                             "localization/errors_protocol.csv": None}),
    "run_selforg.py": (["--n", "150", "--h-max", "3"], {"selforg/psi_critical.csv": 4}),
    "run_rho_trend.py": (["--sizes", "50", "100", "--seeds-per-n", "2"],
                         {"rho_trend/trend.csv": 3, "rho_trend/rho_hist_n50.csv": None,
                          "rho_trend/rho_hist_n100.csv": None}),
    "run_power_histograms.py": (["--sizes", "100", "--etas", "4", "--slots", "20"],
                                {"power_histograms/power_n100_eta4.csv": None}),
}


def test_every_script_is_covered():
    assert sorted(CASES) == sorted(p.name for p in SCRIPTS.glob("run_*.py"))


@pytest.mark.parametrize("script", sorted(CASES))
def test_script_runs_and_writes_its_files(tmp_path, script):
    args, files = CASES[script]
    env = {k: v for k, v in os.environ.items() if k != "DISCRIT_OUTPUT_DIR"}
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name, lines in files.items():
        rows = (tmp_path / name).read_text().splitlines()
        # a header and at least one row; the exact count where it is fixed
        assert len(rows) >= 2 and lines in (None, len(rows)), (name, len(rows))


def test_disparity_table_runs_each_kind_under_the_output_dir_variable(tmp_path):
    # DISCRIT_OUTPUT_DIR names the run directory: each kind keeps its own
    # <kind>/ there, and the table stays under --outdir.
    runs = tmp_path / "runs"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "run_disparity_table.py"),
                           *CASES["run_disparity_table.py"][0]], cwd=tmp_path,
                          env=dict(os.environ, DISCRIT_OUTPUT_DIR=str(runs)),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in runs.iterdir()) == ["grid", "randomised-lattice", "uniform-iid"]
    for kind in runs.iterdir():
        assert (kind / "disparity.csv").is_file() and (kind / "manifest.json").is_file()
    assert len((tmp_path / "disparity_table/disparity_table.csv").read_text().splitlines()) == 13
