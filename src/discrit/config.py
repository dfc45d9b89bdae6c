"""Experiment configuration: JSON schema, validation, manifests.

A config is a single JSON document; every stage block is optional
except the deployment. All randomness flows from the explicit seeds
list, so re-running a config reproduces every artifact byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import typing
from pathlib import Path

import jsonschema
import numpy as np
import scipy

from . import __version__
from .channel import ChannelParams
from .geometry import DEPLOYMENT_KINDS, Region
from .selforg import SelfOrgParams

OUTPUT_DIR_ENV = "DISCRIT_OUTPUT_DIR"

_JSON_TYPES = {float: "number", int: "integer", str: "string", float | None: ["number", "null"]}


def _param_block(cls) -> dict:
    """The config block of a parameter class: one key per field, typed from
    its annotation. The values are checked by cls itself (validate_config)."""
    hints = typing.get_type_hints(cls)
    return {
        "type": "object",
        "additionalProperties": False,
        "properties": {f.name: {"type": _JSON_TYPES[hints[f.name]]} for f in dataclasses.fields(cls)},
    }


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
                "kind": {"enum": list(DEPLOYMENT_KINDS)},
                "n": {"type": "integer", "minimum": 2},
                "region": _param_block(Region),
            },
        },
        "channel": _param_block(ChannelParams),
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
        "selforg": _param_block(SelfOrgParams),
        "localize": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "graph": {"enum": ["critical", "protocol"]},
            },
        },
    },
}

# JSON integers only: jsonschema's own "integer" also takes floats such as 300.0.
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: type(x) is int))


class ConfigError(ValueError):
    pass


def validate_config(doc: dict) -> dict:
    """Check doc against CONFIG_SCHEMA, then the parameter blocks against
    their classes, so that every error is raised before a stage runs."""
    try:
        jsonschema.validate(doc, CONFIG_SCHEMA, cls=_Validator)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from None
    for path, cls, block in (("deployment/region", Region, doc["deployment"].get("region", {})),
                             ("channel", ChannelParams, doc.get("channel", {})),
                             ("selforg", SelfOrgParams, doc.get("selforg", {}))):
        try:
            cls(**block)
        except ValueError as exc:
            raise ConfigError(f"config invalid at {path}: {exc}") from None
    return doc


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
