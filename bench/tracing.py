"""Spans around freeword's public functions, recorded from outside.

Each traced function is replaced at every module attribute that holds
it, because callers look functions up there: ``oracle`` calls the
``transform_to`` it imported by name, the package re-exports everything,
and so on.  A call records a span (name, parent, start, end) in compact
arrays kept in memory; self time, the span's duration minus the time
its child spans cover, is summed as spans close.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# The functions that carry the per-layer metrics, plus the entry points
# that would otherwise hide their callees' cost in a parent's self time.
# Tiny helpers (invert, is_redex_at) are left bare: a wrapper on them
# would cost more than they do.
TRACED = {
    "core": ("parse_word", "render_word", "find_redexes"),
    "group": ("normal_form", "mul", "inv", "eq", "abelianize"),
    "reduction": ("apply_step", "validate_sequence", "word_before_step", "step_of_index",
                  "run_sequence"),
    "moves": ("swap", "overlap_switch", "apply_move", "apply_chain", "applicable_moves"),
    "transform": ("front_reduction", "transform_to", "drop_redex", "extend_reduction"),
    "oracle": ("enumerate_sequences", "build_move_graph", "check_connected", "check_corpus",
               "check_transform_chain"),
    "cli": ("main",),
}

GROUP_OPS = ("group.mul", "group.inv", "group.eq", "group.abelianize")


def package_modules(package) -> list:
    prefix = package.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(prefix))]


def rebind(package, original, replacement) -> int:
    """Point every module attribute of the package that holds original
    at replacement instead; returns how many were changed."""
    changed = 0
    for module in package_modules(package):
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


class Tracer:
    def __init__(self, package):
        self.package = package
        self.error_type = package.errors.FreewordError
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counters: Counter = Counter()
        self._open = [-1]     # indices of the open spans, innermost last
        self._child_ns = [0]  # time covered by the children of each open span
        self.missing: list[str] = []

    def install(self) -> None:
        hooks = {
            "transform.transform_to": self._count_chain,
            "oracle.build_move_graph": self._count_edges,
            "oracle.check_corpus": self._count_corpus,
        }
        for layer, names in TRACED.items():
            module = getattr(self.package, layer)
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                label = f"{layer}.{name}"
                rebind(self.package, original, self._wrap(label, original, hooks.get(label)))

    def _wrap(self, label, fn, after):
        nid = len(self.names)
        self.names.append(label)
        self.calls.append(0)
        self.self_ns.append(0)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        open_spans, child_ns = self._open, self._child_ns
        calls, self_ns, clock = self.calls, self.self_ns, time.perf_counter_ns
        error_type, counters = self.error_type, self.counters

        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(open_spans[-1])
            open_spans.append(idx)
            child_ns.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type as err:
                if not getattr(err, "_bench_counted", False):
                    err._bench_counted = True
                    counters["errors.raised"] += 1
                raise
            finally:
                t1 = clock()
                open_spans.pop()
                inner = child_ns.pop()
                child_ns[-1] += t1 - t0
                self_ns[nid] += t1 - t0 - inner
                calls[nid] += 1
                span_start.append(t0)
                span_end.append(t1)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_chain(self, args, chain) -> None:
        self.counters["transform.chain_moves"] += len(chain)
        if args[0].steps == args[1].steps:
            self.counters["transform.identity_moves"] += len(chain)

    def _count_edges(self, args, graph) -> None:
        self.counters["oracle.graph_edges"] += sum(map(len, graph.adjacency.values())) // 2

    def _count_corpus(self, args, report) -> None:
        self.counters["oracle.words"] += report.words_checked
        self.counters["oracle.sequences"] += report.sequences_enumerated
        self.counters["oracle.pairs"] += report.pairs_verified

    def totals(self) -> dict[str, float]:
        """Calls and self seconds of every traced function, plus the
        counters, named as in the per_layer list of BENCHMARK.json."""
        out: dict[str, float] = dict(self.counters)
        for nid, label in enumerate(self.names):
            out[f"{label}.calls"] = self.calls[nid]
            out[f"{label}.self_s"] = self.self_ns[nid] / 1e9
        out["group.ops.self_s"] = sum(out.get(f"{op}.self_s", 0.0) for op in GROUP_OPS)
        return out

    def write_spans(self, stem: Path) -> None:
        """Write the spans as four raw arrays (name id, parent index,
        start ns, end ns, in that order) to stem.spans, described by
        stem.spans.json."""
        with open(stem.with_suffix(".spans"), "wb") as f:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(f)
        meta = {
            "spans": len(self.span_start),
            "names": self.names,
            "arrays": [["name", "uint16"], ["parent", "int64"],
                       ["start_ns", "int64"], ["end_ns", "int64"]],
            "byteorder": sys.byteorder,
        }
        stem.with_suffix(".spans.json").write_text(json.dumps(meta) + "\n")
