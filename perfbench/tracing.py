"""Span tracing for the benchmark's traced runs, kept in memory.

`Tracer.install` wraps the public entry points of each layer of the package
(the module of the same name) and `Tree.__init__`, which is tree validation.
It rebinds every module attribute that refers to a wrapped function, so the
copies that `from .x import f` made are traced too, and calls nested inside a
traced call become its child spans. A span is the list

    [name, layer, op, start, end, parent, maxrss_kb at start, at end, info]

where `parent` indexes the enclosing span (-1 for none) and `info` holds the
counts taken at that boundary. A layer's self time is its spans' durations
minus the time their direct children cover.

Run as a script, this module is the traced stand-in for `python -m dominion`:

    python3 perfbench/tracing.py SPANS_OUT compute --json binary:h=3

It runs the CLI with the wrappers installed and writes its spans to SPANS_OUT.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
from collections import defaultdict
from math import comb
from time import perf_counter

TARGETS = {
    "cli": ("main",),
    "families": (
        "build_tree", "make_path", "make_uniform_pendant", "make_interior_pendant",
        "make_alternating", "make_star", "make_complete_binary", "delete_leaves", "random_tree",
    ),
    "tree": ("parse_edge_list", "to_edge_list", "root_at"),
    "dp": ("dp_count",),
    "closed_form": ("summary_for",),
    "oracle": ("oracle_count", "enumerate_min_sets"),
    "perturbation": ("analyze_deletion",),
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _subsets(tree, result) -> dict:
    # The oracle tests every subset of each size up to gamma.
    n = tree.vertex_count
    return {"subsets": sum(comb(n, k) for k in range(1, result.gamma + 1))}


def _ancestors(h, deleted) -> dict:
    # Vertices whose DP state a deletion can change: the ancestors of X.
    seen = set()
    for label in deleted:
        k = int(label[1:]) >> 1
        while k and k not in seen:
            seen.add(k)
            k >>= 1
    return {"useful": len(seen)}


INFO = {
    "Tree": lambda args, _: {"vertices": len(args[0].labels)},
    "parse_edge_list": lambda args, _: {"bytes": len(args[0])},
    "to_edge_list": lambda _, text: {"bytes": len(text)},
    "dp_count": lambda args, res: {
        "vertices": getattr(args[0], "base", args[0]).vertex_count,
        "zeta_bits": res.zeta.bit_length(),
    },
    "oracle_count": lambda args, res: _subsets(args[0], res),
    "enumerate_min_sets": lambda args, res: _subsets(args[0], res),
    "analyze_deletion": lambda args, _: _ancestors(*args),
}


def _family_info(_, tree) -> dict:
    return {"vertices": tree.vertex_count}


class Tracer:
    """Span recorder; `op` is the id stamped on spans as they open."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        info = INFO.get(name, _family_info if layer == "families" else None)

        def traced(*args, **kwargs):
            span = [name, layer, self.op, 0.0, 0.0, stack[-1] if stack else -1, _maxrss_kb(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                span[7] = _maxrss_kb()
                stack.pop()
            if info is not None:
                span[8] = info(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"dominion.{layer}") for layer in TARGETS}
        package = [m for key, m in list(sys.modules.items()) if key == "dominion" or key.startswith("dominion.")]
        for layer, names in TARGETS.items():
            for name in names:
                original = getattr(modules[layer], name)
                wrapped = self._wrap(layer, name, original)
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._undo.append((module, attr, original))
        tree_class = modules["tree"].Tree
        self._undo.append((tree_class, "__init__", tree_class.__init__))
        tree_class.__init__ = self._wrap("tree", "Tree", tree_class.__init__)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def add_child(self, path, launched: float, reaped: float) -> None:
        """Merge the spans a traced CLI child wrote, plus its start-up (launch
        to entering the CLI) and teardown (leaving the CLI to being reaped)."""
        with open(path, encoding="utf-8") as handle:
            child = json.load(handle)
        base = len(self.spans)
        self.spans.append(["startup", "cli", self.op, launched, child["main_start"], -1, 0, 0, None])
        for span in child["spans"]:
            span[2] = self.op
            if span[5] >= 0:
                span[5] += base + 1
            self.spans.append(span)
        self.spans.append(["teardown", "cli", self.op, child["end"], reaped, -1, 0, 0, None])


def _self_times(spans: list[list]) -> tuple[list[float], list[int]]:
    """Per-span self time and self growth of the peak RSS (KB)."""
    self_t = [s[4] - s[3] for s in spans]
    self_rss = [s[7] - s[6] for s in spans]
    for s in spans:
        if s[5] >= 0:
            self_t[s[5]] -= s[4] - s[3]
            self_rss[s[5]] -= s[7] - s[6]
    return self_t, self_rss


def _has_ancestor(spans: list[list], i: int, name: str) -> bool:
    i = spans[i][5]
    while i >= 0:
        if spans[i][0] == name:
            return True
        i = spans[i][5]
    return False


def layer_metrics(spans: list[list], passes: int, ops: int, overhead_s: float) -> dict:
    """Per-layer metrics of a traced run. Times and counts are per pass, so
    that the layers' self times add up to a pass's wall time."""
    self_t, self_rss = _self_times(spans)
    inclusive = defaultdict(float)
    own = defaultdict(float)
    layer_t = defaultdict(float)
    counts = defaultdict(float)
    rss_by_op = defaultdict(float)
    for i, s in enumerate(spans):
        name, layer, op = s[0], s[1], s[2]
        inclusive[name] += s[4] - s[3]
        own[name] += self_t[i]
        layer_t[layer] += self_t[i]
        rss_by_op[layer, op] += self_rss[i]
        counts["n_" + name] += 1
        for key, value in (s[8] or {}).items():
            counts[f"{name}.{key}"] += value
        if name == "Tree":
            if _has_ancestor(spans, i, "summary_for"):
                counts["rebuilt_closed_form"] += s[8]["vertices"]
            if _has_ancestor(spans, i, "analyze_deletion"):
                counts["rebuilt_perturbation"] += s[8]["vertices"]
        if layer == "families" and (s[5] < 0 or spans[s[5]][1] != "families"):
            counts["families_vertices"] += s[8]["vertices"] if s[8] else 0

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    def peak_mb(layer):
        return max((v for (lay, _), v in rss_by_op.items() if lay == layer), default=0) / 1024

    oracle_s = inclusive["oracle_count"] + inclusive["enumerate_min_sets"]
    subsets = counts["oracle_count.subsets"] + counts["enumerate_min_sets.subsets"]
    per_pass = {
        "families.build_s": layer_t["families"],
        "tree.validate_s": inclusive["Tree"],
        "tree.root_at_s": inclusive["root_at"],
        "tree.parse_s": own["parse_edge_list"],
        "tree.serialize_s": inclusive["to_edge_list"],
        "dp.fold_s": own["dp_count"],
        "dp.zeta_bits": counts["dp_count.zeta_bits"],
        "closed_form.check_s": inclusive["summary_for"],
        "closed_form.vertices_rebuilt": counts["rebuilt_closed_form"],
        "cli.startup_s": inclusive["startup"],
        "cli.self_s": own["main"],
        "cli.teardown_s": inclusive["teardown"],
        "perturbation.self_s": own["analyze_deletion"],
        "perturbation.vertices_rebuilt": counts["rebuilt_perturbation"],
        "oracle.count_s": inclusive["oracle_count"],
        "oracle.subsets_tested": subsets,
        "oracle.enumerate_s": inclusive["enumerate_min_sets"],
    }
    metrics = {key: value / passes for key, value in per_pass.items()}
    metrics.update({
        "families.vertices_per_s": rate(counts["families_vertices"], layer_t["families"]),
        "families.rss_delta_mb": peak_mb("families"),
        "tree.validations_per_op": counts["n_Tree"] / ops,
        "tree.parse_mb_per_s": rate(counts["parse_edge_list.bytes"] / 1e6, own["parse_edge_list"]),
        "tree.rss_delta_mb": peak_mb("tree"),
        "dp.vertices_per_s": rate(counts["dp_count.vertices"], own["dp_count"]),
        "perturbation.useful_ratio": rate(counts["analyze_deletion.useful"], counts["rebuilt_perturbation"]),
        "oracle.subsets_per_s": rate(subsets, oracle_s),
        "trace.overhead_s": overhead_s,
    })
    return metrics


def by_op_kind(spans: list[list], kinds: list[str]) -> dict:
    """Mean self seconds per span name for each op kind (`kinds[op]`)."""
    self_t, _ = _self_times(spans)
    totals = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        totals[kinds[s[2]]][s[0]] += self_t[i]
    ops_of = defaultdict(set)
    for s in spans:
        ops_of[kinds[s[2]]].add(s[2])
    return {
        kind: {name: round(t / len(ops_of[kind]), 6) for name, t in sorted(names.items())}
        for kind, names in totals.items()
    }


def _main(argv: list[str]) -> int:
    out_path, *cli_args = argv
    from dominion import cli  # importing the package is part of the CLI's start-up

    tracer = Tracer()
    main_start = perf_counter()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        end = perf_counter()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"main_start": main_start, "end": end, "spans": tracer.spans}, handle)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
