"""Span recorders around the calls into each signedgrids module.

The traced run replaces public functions at the module attributes their
callers look up (``signedgrids.cli.color_tri``, ``signedgrids.hom.find_ec_hom``
and so on) with wrappers that record one span per call: name, start, end,
parent span and request id.  Spans stay in memory and are written out at the
end.  The recorders are installed for each traced request and removed
after it, so untraced requests run the plain library.  A span is named
``<layer>.<function>`` after the module that defines the function, whoever
calls it; JSON load and dump count as ``graphio``.
Spans inside the program (the passes of the colorers) are not recorded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("bench", "cli", "graphio", "grids", "core", "colorers", "hom", "props")

# calling module -> attributes wrapped there
BOUNDARIES = {
    "signedgrids.cli": (
        "color_hex", "color_tri", "graph_from_dict", "graph_to_dict", "hom_from_dict",
        "hom_to_dict", "make_grid", "random_signature", "unbalanced_c6", "unbalanced_wheel7",
        "switch", "verify_ec", "ec_to_signed", "find_signed_hom", "canonical_complete_targets",
        "check_pkn", "check_pstar21", "check_transitivity", "check_antiautomorphic",
    ),
    "signedgrids.colorers": (
        "make_grid", "switch", "pstar21_excluded_pairs", "normalize_hex", "color_hex", "color_tri",
    ),
    "signedgrids.hom": (
        "antitwin_double", "switch", "verify_ec", "verify_signed", "ec_to_signed",
        "find_ec_hom", "find_signed_hom", "signed_chromatic_number", "canonical_complete_targets",
    ),
    "signedgrids.graphio": ("graph_from_dict", "graph_to_dict", "hom_from_dict", "hom_to_dict"),
    "signedgrids.grids": ("make_grid",),
    "signedgrids.core": ("antitwin_double",),
}
RENAMED = {"hom.canonical_complete_targets": "hom.canonical_targets"}
CLI_COMMANDS = ("gen", "color", "verify", "lowerbounds", "props")
SPANS = (
    ("bench.request", "props.automorphisms", "graphio.json_load", "graphio.json_dump")
    + tuple(f"cli.{c}" for c in CLI_COMMANDS)
)
COUNTS = (
    ("graphio.bytes_read", "bytes"),
    ("graphio.bytes_written", "bytes"),
    ("colorers.vertices", "count"),
    ("colorers.switch_set_size", "count"),
    ("colorers.tri_min_candidates", "count"),
    ("core.antitwin_double_calls", "count"),
    ("hom.find_ec_hom_calls", "count"),
    ("hom.found_ratio", "ratio"),
    ("hom.nodes", "count"),
    ("hom.nodes_per_s", "1/s"),
    *((f"hom.targets_tried.order{k}", "count") for k in range(1, 7)),
    ("props.automorphism_count", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def span_name(fn) -> str:
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    return RENAMED.get(name, name)


def _observe(name: str, counts: Counter, args, result) -> None:
    """Counts taken at the boundary, from the arguments and the result."""
    if name == "colorers.normalize_hex":
        counts["colorers.switch_set_size"] += len(result[1])
    elif name in ("colorers.color_hex", "colorers.color_tri"):
        g = args[0]
        if g.grid.mask is None:  # a masked grid is colored through its bounding grid
            counts["colorers.vertices"] += g.n
        if name == "colorers.color_tri":
            low = result[1].min_size()
            prev = counts.get("colorers.tri_min_candidates")
            counts["colorers.tri_min_candidates"] = low if prev is None else min(prev, low)
    elif name == "hom.find_ec_hom":
        counts["hom.find_ec_hom_calls"] += 1
        counts["hom.found"] += result is not None
    elif name == "hom.find_signed_hom":
        counts[f"hom.targets_tried.order{args[1].n}"] += 1
    elif name == "core.antitwin_double":
        counts["core.antitwin_double_calls"] += 1
    elif name == "props.automorphisms":
        counts["props.automorphism_count"] += len(result)
    elif name == "graphio.json_load":
        counts["graphio.bytes_read"] += os.fstat(args[0].fileno()).st_size
    elif name == "graphio.json_dump":
        counts["graphio.bytes_written"] += len(result)


class _TracedJson:
    """Stand-in for the ``json`` module with ``load`` and ``dumps`` recorded."""

    def __init__(self, tracer: "Tracer"):
        self.load = tracer.wrap(json.load, "graphio.json_load")
        self.dumps = tracer.wrap(json.dumps, "graphio.json_dump")

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Records the spans of one pass between ``begin`` and ``end``.

    The recorders are in place only inside ``installed``; everywhere else
    every module holds its plain functions.  ``runner_module`` is the
    benchmark's own caller module, whose ``json`` is recorded too.
    """

    def __init__(self, runner_module):
        self.runner_module = runner_module
        self.request = None
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.budgets: list = []
        self._saved: list = []

    def wrap(self, fn, name: str | None = None):
        name = name or span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.request)
            _observe(name, self.counts, args, result)
            return result

        return traced

    def begin(self) -> None:
        """Start a fresh pass."""
        self.spans, self.stack, self.counts, self.budgets = [], [], Counter(), []

    @contextlib.contextmanager
    def installed(self):
        """The recorders in place of the plain functions, for the ``with`` body only."""
        for module_name, attrs in BOUNDARIES.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                self._patch(module, attr, self.wrap(getattr(module, attr)))
        cli = importlib.import_module("signedgrids.cli")
        hom = importlib.import_module("signedgrids.hom")
        materialized = lambda fn: functools.wraps(fn)(lambda *a, **k: tuple(fn(*a, **k)))
        self._patch(cli, "automorphisms",
                    self.wrap(materialized(cli.automorphisms), "props.automorphisms"))
        self._patch(cli, "main", self._wrap_main(cli.main))
        traced_json = _TracedJson(self)
        for module in (cli, self.runner_module):
            self._patch(module, "json", traced_json)
        for module in (cli, hom):
            self._patch(module, "SearchBudget", self._budget_factory(hom.SearchBudget))
        try:
            yield
        finally:
            for module, attr, value in reversed(self._saved):
                setattr(module, attr, value)
            self._saved.clear()

    def end(self) -> dict:
        """This pass's spans and counts."""
        nodes = sum(limit - b.remaining for b, limit in self.budgets)
        return {"spans": self.spans, "counts": dict(self.counts, **{"hom.nodes": nodes})}

    def _patch(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _wrap_main(self, main):
        traced = {c: self.wrap(main, f"cli.{c}") for c in CLI_COMMANDS}
        return lambda argv: traced[argv[0]](argv)

    def _budget_factory(self, cls):
        def make(limit):
            budget = cls(limit)
            self.budgets.append((budget, limit))
            return budget
        return make


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = set(SPANS)
    for module_name, attrs in BOUNDARIES.items():
        module = importlib.import_module(module_name)
        names.update(span_name(getattr(module, a)) for a in attrs)
    spans = sorted(names, key=lambda n: (LAYERS.index(n.split(".")[0]), n))
    return (
        [(f"{layer}.self_s", "s") for layer in LAYERS]
        + [(f"{n}_s", "s") for n in spans]
        + list(COUNTS)
    )


def pass_metrics(recorded: dict) -> dict[str, float]:
    """Self time per span name and per layer, plus the counts, for one traced pass."""
    spans, counts = recorded["spans"], recorded["counts"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), child in zip(spans, covered):
        own[name] += (end - start) - child
    out: dict[str, float] = {f"{n}_s": t for n, t in own.items()}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for n, t in own.items() if n.split(".")[0] == layer)
    out.update({k: v for k, v in counts.items() if k != "hom.found"})
    calls = counts.get("hom.find_ec_hom_calls", 0)
    out["hom.found_ratio"] = counts.get("hom.found", 0) / calls if calls else 0.0
    search_s = own.get("hom.find_ec_hom", 0.0)
    out["hom.nodes_per_s"] = counts["hom.nodes"] / search_s if search_s else 0.0
    out["trace.spans"] = len(spans)
    return out


def write_spans(path: str, passes: list[dict]) -> None:
    """Write the spans of every traced pass: [name, start, end, parent, request]."""
    with open(path, "w") as fh:
        json.dump({"passes": [[list(s) for s in p["spans"]] for p in passes]}, fh)
