"""Experiment configuration: JSON schema, validation, manifests.

A config is a single JSON document; every stage block is optional
except the deployment. All randomness flows from the explicit seeds
list, so re-running a config reproduces every artifact byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import scipy

from . import __version__
from .channel import DEFAULT_CHANNEL, ChannelParams
from .geometry import Region
from .selforg import DEFAULT_SELFORG, SelfOrgParams

OUTPUT_DIR_ENV = "DISCRIT_OUTPUT_DIR"

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["output_dir", "seeds", "deployment"],
    "additionalProperties": False,
    "properties": {
        "output_dir": {"type": "string"},
        "seeds": {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 0}},
        "deployment": {
            "type": "object",
            "required": ["kind", "n"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["uniform-iid", "randomised-lattice", "grid"]},
                "n": {"type": "integer", "minimum": 2},
                "region": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "width": {"type": "number", "exclusiveMinimum": 0},
                        "height": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
            },
        },
        "channel": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "p_t": {"type": "number", "exclusiveMinimum": 0},
                "eta": {"type": "number", "minimum": 2},
                "sigma2": {"type": "number", "exclusiveMinimum": 0},
                "beta": {"type": "number", "exclusiveMinimum": 0},
                "alpha": {"type": "number", "minimum": 0, "maximum": 1},
                "fading": {"enum": ["deterministic", "rayleigh-power"]},
                "fading_mean": {"type": "number", "exclusiveMinimum": 0},
                "slots": {"type": "integer", "minimum": 1},
            },
        },
        "protocol": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["distance", "discrit"]},
                "termination": {"enum": ["centralized", "distributed"]},
                "timeout_rounds": {"type": "integer", "minimum": 1},
                "suppress": {"type": "boolean"},
            },
        },
        "interior_margin": {"type": "number", "minimum": 0, "exclusiveMaximum": 0.5},
        "discretize": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "pair_sample": {
                    "anyOf": [{"enum": ["all"]}, {"type": "integer", "minimum": 1}],
                },
            },
        },
        "selforg": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "alpha0": {"type": "number", "exclusiveMinimum": 0},
                "p_t": {"type": "number", "exclusiveMinimum": 0},
                "sigma2": {"type": "number", "exclusiveMinimum": 0},
                "eta": {"type": "number", "exclusiveMinimum": 0},
                "w": {"type": "number", "exclusiveMinimum": 0},
                "q": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "slots": {"type": "integer", "minimum": 1},
                "a": {"type": ["number", "null"]},
                "h_max": {"type": "integer", "minimum": 1},
            },
        },
        "localize": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                # fraction of the smaller region side, like interior_margin
                "margin": {"type": "number", "minimum": 0, "exclusiveMaximum": 0.5},
                "graph": {"enum": ["critical", "protocol"]},
            },
        },
    },
}


class ConfigError(ValueError):
    pass


def validate_config(doc: dict) -> dict:
    try:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from None
    return doc


def region_from_config(doc: dict) -> Region:
    reg = doc["deployment"].get("region", {})
    return Region(reg.get("width", 1000.0), reg.get("height", 1000.0))


def channel_from_config(doc: dict) -> ChannelParams:
    return replace(DEFAULT_CHANNEL, **doc.get("channel", {}))


def selforg_from_config(doc: dict) -> tuple[SelfOrgParams, int]:
    block = dict(doc.get("selforg", {}))
    h_max = block.pop("h_max", 8)
    return replace(DEFAULT_SELFORG, **block), h_max


def config_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def output_dir(doc: dict) -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, doc["output_dir"]))


def atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_manifest(doc: dict, out: Path, artifacts) -> Path:
    """Record the config hash, seeds, versions, and artifact digests."""
    entries = []
    for p in sorted(Path(a) for a in artifacts):
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        entries.append({"file": str(p.relative_to(out)), "sha256": digest})
    manifest = {
        "config_sha256": config_hash(doc),
        "seeds": doc["seeds"],
        "versions": {
            "discrit": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "artifacts": entries,
    }
    path = out / "manifest.json"
    atomic_write_text(path, json.dumps(manifest, indent=1) + "\n")
    return path
