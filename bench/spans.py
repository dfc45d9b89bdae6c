"""Layer spans for the traced run, recorded from outside the program.

Tracer.install wraps every public function of the discrit modules and
puts the wrapper into every discrit module namespace that holds the
function. Modules call each other through their own globals (graphs
calls distance_matrix and build_gg as globals of graphs), so patching
only the defining module would miss those calls.

A span is (name, start, end, parent index). A span's layer is the module
that defines the function, except that functions writing or reading
artifacts belong to the "io" layer. A layer's self time is the duration
of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

# Modules whose public functions are wrapped. cli is not: run_pipeline
# is the root span that the harness opens itself.
LAYER_MODULES = ("geometry", "graphs", "channel", "protocol", "discretize",
                 "selforg", "localize", "config")
# Namespaces searched for references to the wrapped functions.
NAMESPACES = ("discrit",) + tuple(f"discrit.{m}" for m in LAYER_MODULES + ("cli",))

IO_FUNCTIONS = ("trace_to_csv", "write_manifest", "atomic_write_text")

ROOT = "seed"


def layer_of(module: str, name: str) -> str:
    if name.startswith(("save_", "load_")) or name in IO_FUNCTIONS:
        return "io"
    return module


def _hello_counts(bound, table):
    return {"channel.slots": bound["params"].slots,
            "channel.decodes": int(table.c.sum()),
            "channel.links": int((table.c > 0).sum())}


def _protocol_counts(bound, result):
    trace = result[1]
    return {"protocol.rounds": trace.rounds, "protocol.messages": trace.messages}


def _rho_counts(bound, st):
    return {"discretize.pairs_used": st.pairs_used, "discretize.pairs_excluded": st.pairs_excluded}


def _selforg_counts(bound, result):
    rows = result[1]
    return {"selforg.mac_slots": bound["p"].slots * sum(1 for r in rows if r.n_active > 0)}


def _localize_counts(bound, pattern):
    return {"localize.nodes": len(pattern.records),
            "localize.unconverged": sum(1 for r in pattern.records if not r.converged)}


# Work counts read from a layer's arguments and results.
COUNTS = {
    "channel.simulate_hello": _hello_counts,
    "protocol.run_discrit": _protocol_counts,
    "protocol.run_range_algorithm": _protocol_counts,
    "discretize.rho_stats": _rho_counts,
    "selforg.find_h_opt": _selforg_counts,
    "localize.error_pattern": _localize_counts,
}


def _written_files(bound, result) -> list:
    """Files an io function wrote: the paths it returns, else its path argument."""
    found = result if isinstance(result, (tuple, list)) else [result]
    paths = [p for p in found if isinstance(p, (str, os.PathLike))]
    if not paths and "path" in bound:
        paths = [bound["path"]]
    return [p for p in paths if os.path.isfile(p)]


class Tracer:
    """Spans and work counts of one traced pipeline run, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []
        self._patches = []

    def install(self) -> None:
        namespaces = [importlib.import_module(m) for m in NAMESPACES]
        for short in LAYER_MODULES:
            module = importlib.import_module(f"discrit.{short}")
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer_of(short, name)}.{name}", fn)
                for ns in namespaces:
                    for attr, obj in list(vars(ns).items()):
                        if obj is fn:
                            self._patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patches):
            setattr(ns, attr, fn)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        count = COUNTS.get(name)
        is_io = name.startswith("io.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count or is_io:
                bound = signature.bind(*args, **kwargs).arguments
                if count:
                    self.counts.update(count(bound, result))
                parent = self.spans[index][3]
                if is_io and not (parent >= 0 and self.spans[parent][0].startswith("io.")):
                    self.counts["io.bytes"] += sum(os.path.getsize(p) for p in _written_files(bound, result))
            return result

        return wrapper

    def layer_metrics(self) -> dict:
        """Per-layer self time, per-function time and calls, work counts and
        the share of the root span covered by its direct children."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = Counter(self.counts)
        root = None
        for index, (name, start, end, parent) in enumerate(self.spans):
            if name == ROOT:
                root = index
                continue
            out[f"{name.split('.')[0]}.self_s"] += end - start - child_time[index]
            out[f"{name}.s"] += end - start
            out[f"{name}.calls"] += 1
        if root is not None:
            name, start, end, parent = self.spans[root]
            out["trace.coverage"] = child_time[root] / (end - start)
        return dict(out)
