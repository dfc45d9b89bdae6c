"""Experiment configuration: validation, hashing, manifests.

A config is a single JSON document; every stage block is optional
except the deployment. All randomness flows from the explicit seeds
list, so re-running a config reproduces every artifact byte for byte.

validate_config checks keys and JSON types (CONFIG_KEYS), then asks each
value rule of its owner (the parameter classes, geometry.check_deployment,
protocol.check_termination); _RULES holds the rules no module owns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import typing
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .channel import ChannelParams
from .geometry import Region, check_deployment
from .protocol import check_termination
from .selforg import SelfOrgParams

OUTPUT_DIR_ENV = "DISCRIT_OUTPUT_DIR"


def _fields(cls) -> dict:
    """A parameter class's block: one key per field, typed by its annotation."""
    return {f.name: typing.get_type_hints(cls)[f.name] for f in dataclasses.fields(cls)}


# Keys and JSON types; a dict is a block. int is a JSON integer (not
# 300.0, not true), float any number but a bool.
CONFIG_KEYS = {
    "output_dir": str,
    "seeds": list[int],
    "deployment": {"kind": str, "n": int, "region": _fields(Region)},
    "channel": _fields(ChannelParams),
    "protocol": {"mode": str, "termination": str, "timeout_rounds": int},
    "interior_margin": float,
    "discretize": {},
    "selforg": _fields(SelfOrgParams),
    "localize": {"graph": str},
}
_REQUIRED = {"": ("output_dir", "seeds", "deployment"), "deployment": ("kind", "n")}

# Value rules that no module owns, by key path. Each is written so that NaN fails it.
_RULES = {
    "seeds": (lambda s: s and min(s) >= 0 and len(set(s)) == len(s), "distinct seeds >= 0"),
    "interior_margin": (lambda m: 0 <= m < 0.5, "0 <= interior_margin < 0.5"),
    "protocol/mode": (lambda v: v in ("distance", "discrit"), "'distance' or 'discrit'"),
    "localize/graph": (lambda v: v in ("critical", "protocol"), "'critical' or 'protocol'"),
}


class ConfigError(ValueError):
    pass


def _invalid(path: str, msg) -> ConfigError:
    return ConfigError(f"config invalid at {path or '<root>'}: {msg}")


def _is(value, typ) -> bool:
    """Whether a JSON value has a CONFIG_KEYS type."""
    if typing.get_origin(typ) is list:
        return type(value) is list and all(_is(v, typing.get_args(typ)[0]) for v in value)
    return type(value) is typ or (typ is float and type(value) is int)


def _walk(block, keys: dict, path: str) -> None:
    if type(block) is not dict:
        raise _invalid(path, f"expected an object, got {block!r}")
    for key in _REQUIRED.get(path, ()):
        if key not in block:
            raise _invalid(path, f"missing required key {key!r}")
    for key, value in block.items():
        at = f"{path}/{key}" if path else key
        if key not in keys:
            raise _invalid(path, f"unknown key {key!r}")
        typ = keys[key]
        if isinstance(typ, dict):
            _walk(value, typ, at)
        elif not _is(value, typ):
            raise _invalid(at, f"expected {typ.__name__ if isinstance(typ, type) else typ}, got {value!r}")
        elif at in _RULES and not _RULES[at][0](value):
            raise _invalid(at, f"need {_RULES[at][1]}, got {value!r}")


def validate_config(doc: dict) -> dict:
    """Raise ConfigError on the first rule doc breaks (module docstring); return doc."""
    _walk(doc, CONFIG_KEYS, "")
    dep = doc["deployment"]
    termination = {k: v for k, v in doc.get("protocol", {}).items() if k != "mode"}
    for path, owner, kwargs in (("deployment", check_deployment, {"kind": dep["kind"], "n": dep["n"]}),
                                ("deployment/region", Region, dep.get("region", {})),
                                ("channel", ChannelParams, doc.get("channel", {})),
                                ("protocol", check_termination, termination),
                                ("selforg", SelfOrgParams, doc.get("selforg", {}))):
        try:
            owner(**kwargs)
        except ValueError as exc:
            raise _invalid(path, exc) from None
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
