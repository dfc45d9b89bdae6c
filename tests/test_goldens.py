"""Seed-contract goldens: the SHA-256 of every artifact of three small
pipeline runs, against the table in ``goldens.json``.

The configs cover both Hello kernels (deterministic block kernel, and
the rayleigh-power slot loop), both protocol modes, both kinds of
termination, the threaded selforg MAC and the batched localization
solver. The digests are taken from each run's ``manifest.json``
``artifacts`` list, not from the manifest itself, whose ``versions``
block names the interpreter and libraries.

The solver's ``pinv`` bits come from LAPACK, so a digest may move on
another numpy/scipy build; that is a fact to report, not to re-record.
A change that alters an artifact on purpose regenerates the table with
``PYTHONPATH=src python tests/test_goldens.py`` and says so.
"""

import json
import sys
from pathlib import Path

import pytest

from discrit.cli import run_pipeline

GOLDENS = Path(__file__).with_name("goldens.json")

CONFIGS = {
    # criterion 13's config: weight mode, deterministic Hello, every stage
    "weight-uniform-n150": {
        "seeds": [2, 5],
        "deployment": {"kind": "uniform-iid", "n": 150, "region": {"width": 500, "height": 500}},
        "channel": {"alpha": 0.1, "slots": 500},
        "protocol": {"mode": "discrit"},
        "discretize": {},
        "selforg": {"h_max": 3, "slots": 2000},
        "localize": {},
    },
    "rayleigh-grid-n144": {
        "seeds": [3],
        "deployment": {"kind": "grid", "n": 144, "region": {"width": 400, "height": 400}},
        "channel": {"alpha": 0.1, "slots": 300, "fading": "rayleigh-power"},
        "protocol": {"mode": "discrit", "termination": "distributed", "timeout_rounds": 2},
    },
    "distance-lattice-n300": {
        "seeds": [7],
        "deployment": {"kind": "randomised-lattice", "n": 300},
        "protocol": {"mode": "distance"},
        "discretize": {},
        "selforg": {"h_max": 4, "slots": 2000},
        "localize": {},
    },
}


def artifact_digests(name: str, out: Path) -> dict:
    """Run config ``name`` into ``out``; return {artifact path: sha256}."""
    run_pipeline({"output_dir": str(out), **CONFIGS[name]})
    manifest = json.loads((out / "manifest.json").read_text())
    return {e["file"]: e["sha256"] for e in manifest["artifacts"]}


@pytest.mark.parametrize("name", CONFIGS)
def test_artifacts_match_goldens(name, tmp_path):
    expected = json.loads(GOLDENS.read_text())[name]
    got = artifact_digests(name, tmp_path / name)
    assert got.keys() == expected.keys()
    changed = sorted(f for f in got if got[f] != expected[f])
    assert not changed, f"artifacts differ from the goldens: {changed}"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: artifact_digests(name, Path(tmp) / name) for name in CONFIGS}
    GOLDENS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}", file=sys.stderr)
