"""Spans around the calls into each lexiconn layer, recorded from outside.

The benchmark replaces each traced public function with a wrapper that
records one span per call: name, start, end and the span that was open
when the call began. A name is patched in every lexiconn module that
holds it, because intra-module calls go through the defining module's
globals and cross-module calls through the copies made by
``from .x import name``. Nothing under ``src/`` is changed.

Spans stay in memory in flat arrays while the traced pass runs and are
written out when the run ends. A span's self time is its duration minus
the time covered by its child spans; calls on one thread nest, so the
children of a span never overlap and their durations simply add up.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# module -> public functions that get a span per call
LAYER_FUNCTIONS = {
    "cuts": (
        "scan_cuts",
        "vertex_connectivity_oracle",
        "find_non_isolating_min_cut",
        "select_optimal_min_cut",
        "least_isolating_cut",
        "is_super_connected",
        "cut_certificate",
        "is_k1_vertex_cut",
    ),
    "graphs": ("vertex_connectivity", "is_connected"),
    "lexprod": (
        "lex_product",
        "k1_product_formula",
        "lex_connectivity",
        "lex_k1_connectivity",
        "lex_super_connected",
        "lift_k1_cut",
    ),
    "io": ("serialize_graph6", "parse_graph6", "load_graph"),
    "harness": ("verify_theorem",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns)

# Answers that came from brute force instead of a closed-form rule.
FALLBACK_TESTS = {
    "lexprod.lex_k1_connectivity": lambda result: result.branch == "oracle_fallback",
    "lexprod.lex_super_connected": lambda result: result[1] == "oracle_fallback",
}


class Tracer:
    """In-memory span store for one traced pass on one thread."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.name_idx = array("i")
        self.parent = array("i")
        self.fallbacks = {name: 0 for name in FALLBACK_TESTS}
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        idx = self.names.index(name)
        start_ns, end_ns, name_idx, parent = self.start_ns, self.end_ns, self.name_idx, self.parent
        open_spans = self._open
        clock = time.perf_counter_ns
        is_fallback = FALLBACK_TESTS.get(name)
        fallbacks = self.fallbacks

        def traced(*args, **kwargs):
            slot = len(start_ns)
            name_idx.append(idx)
            parent.append(open_spans[-1] if open_spans else -1)
            end_ns.append(0)
            open_spans.append(slot)
            start_ns.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_ns[slot] = clock()
                open_spans.pop()
            if is_fallback is not None and is_fallback(result):
                fallbacks[name] += 1
            return result

        return traced

    def install(self):
        """Patch every traced name in every loaded lexiconn module; returns
        a function that puts the originals back. Names missing from the
        library are skipped and report zero calls."""
        modules = [m for key, m in sys.modules.items() if key == "lexiconn" or key.startswith("lexiconn.")]
        undo = []
        for mod_name, functions in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"lexiconn.{mod_name}")
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            undo.append((module, attr, original))

        def uninstall():
            for module, attr, original in undo:
                setattr(module, attr, original)

        return uninstall

    def layer_table(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) for every traced name."""
        n = len(self.start_ns)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end_ns[i] - self.start_ns[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = self.name_idx[i]
            calls[k] += 1
            self_ns[k] += self.end_ns[i] - self.start_ns[i] - child_ns[i]
        return {name: (calls[k], self_ns[k] / 1e9) for k, name in enumerate(self.names)}

    def write(self, path: str, header: dict) -> None:
        """Gzipped text: one JSON header line, then one span per line as
        ``name_index start_ns end_ns parent`` (start relative to the first
        span, parent -1 for a root span)."""
        base = self.start_ns[0] if len(self.start_ns) else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(dict(header, names=self.names), sort_keys=True) + "\n")
            for i in range(len(self.start_ns)):
                fh.write(f"{self.name_idx[i]} {self.start_ns[i] - base} {self.end_ns[i] - base} {self.parent[i]}\n")
