"""Benchmark workloads: one discrit config per workload, and the seeds a run uses.

Each workload is a config for ``discrit.cli.run_pipeline``, the path the
``discrit pipeline`` command takes. README.md in this directory says why
each workload is here and which layers it stresses.
"""

from __future__ import annotations

import itertools

# Program seeds 0..SEED_POOL-1 have recorded reference outputs
# (reference.json); a run draws its seeds from this pool.
SEED_POOL = 10

_REGION = {"width": 1000, "height": 1000}

WORKLOADS = {
    # The README config: the paper's headline run.
    "pipeline-n1000": {
        "deployment": {"kind": "uniform-iid", "n": 1000, "region": _REGION},
        "channel": {"alpha": 0.1, "slots": 5000},
        "protocol": {"mode": "discrit"},
        "interior_margin": 0.1,
        "discretize": {},
        "selforg": {"h_max": 8},
        "localize": {},
    },
    # Dense n x n oracles and the distance-mode engine; no channel, no localize.
    "range-n3000": {
        "deployment": {"kind": "uniform-iid", "n": 3000, "region": _REGION},
        "protocol": {"mode": "distance"},
        "interior_margin": 0.1,
        "discretize": {},
        "selforg": {"h_max": 8},
    },
    # Per-pair Rayleigh draws, exact distance ties and quiet-timeout
    # termination. 1000 slots rather than 5000 so that a run holds about
    # ten seeds: its time is mostly Hello slots, which swing with host load.
    "rayleigh-grid-n1024": {
        "deployment": {"kind": "grid", "n": 1024, "region": _REGION},
        "channel": {"alpha": 0.1, "slots": 1000, "fading": "rayleigh-power"},
        "protocol": {"mode": "discrit", "termination": "distributed", "timeout_rounds": 2},
        "interior_margin": 0.1,
    },
}


def config_for(workload: str, seed: int, output_dir) -> dict:
    """The workload's config for one program seed, writing under output_dir."""
    return dict(WORKLOADS[workload], output_dir=str(output_dir), seeds=[seed])


def program_seeds(run_seed: int):
    """Endless sequence of program seeds for a run: the same run seed gives
    the same sequence, starting at run_seed modulo the pool."""
    return ((run_seed + k) % SEED_POOL for k in itertools.count())
