"""In-memory spans and counts around degbal's public functions.

For a traced run only, ``install`` rebinds each function listed in TRACED,
in its own module and in every degbal module that imported it by name, to a
wrapper that records a span (name, start, end, parent).  Nothing under
``src/`` changes.  The benchmark opens a root span around each set-up and
each operation, so the spans of one operation share that root.  Spans stay
in memory until ``write`` saves them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter_ns

TRACED = {
    "formats": ("parse_graph6", "encode_graph6", "render_result"),
    "graphs": ("connected_components", "classify_small", "shortest_cycle", "induced_on", "profile_of"),
    "connected": (
        "decompose_connected_traced",
        "stage1_grow_v3",
        "stage2_fill_v2",
        "stage3_fill_v1",
        "fallback_search",
        "special_14_construction",
    ),
    "general": ("detect_exception", "decompose_traced", "decompose_two_regular"),
    "oracle": ("achievable_profiles", "find_witness"),
    "gen": ("random_cubic",),
    "cli": ("main",),
}


def _count_input(tracer, record, args, result):
    tracer.counts["formats.input_bytes"] += len(args[0])


def _count_rules(tracer, record, args, result):
    for rule, count in result[1].rule_counts.items():
        tracer.counts[f"connected.rules.{rule}"] += count


def _count_branch_trace(tracer, record, args, result):
    if record[4]:
        tracer.counts["general.branch_trace_bytes"] += sum(len(step) for step in result[1])


def _count_exhaustive(tracer, record, args, result):
    # A full report, or a query that finds no witness, scans all 2^m subsets.
    if record[0] == "oracle.achievable_profiles" or result is None:
        tracer.counts["oracle.exhaustive_subsets"] += 1 << args[0].m
        tracer.counts["oracle.exhaustive_ns"] += record[2] - record[1]


OBSERVERS = {
    "formats.parse_graph6": _count_input,
    "connected.decompose_connected_traced": _count_rules,
    "general.decompose_traced": _count_branch_trace,
    "oracle.achievable_profiles": _count_exhaustive,
    "oracle.find_witness": _count_exhaustive,
}


class Tracer:
    """Spans as [name, start_ns, end_ns, parent, outermost, root]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()

    def _open(self, name: str) -> list:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else index
        record = [name, 0, 0, parent, self._depth[name] == 0, root]
        self._depth[name] += 1
        self._stack.append(index)
        self.spans.append(record)
        record[1] = perf_counter_ns()
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter_ns()
        self._stack.pop()
        self._depth[record[0]] -= 1

    def root(self, name: str):
        """Context manager for a root span opened by the benchmark itself."""
        return _Root(self, name)

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if observe is not None:
                observe(self, record, args, result)
            return result

        return traced

    def totals(self, root_name: str) -> dict[str, dict[str, float]]:
        """Per span name under roots of root_name: calls, s and self_s.

        s sums outermost spans only, so recursion is not counted twice;
        self_s is each span minus the time its children cover.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, outer, root) in enumerate(self.spans):
            if self.spans[root][0] != root_name:
                continue
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if outer:
                row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[i]) / 1e9
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for record in self.spans:
                fh.write(json.dumps(record[:4], separators=(",", ":")) + "\n")


class _Root:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.record = self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close(self.record)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind every TRACED function; returns what ``uninstall`` restores."""
    modules = [m for name, m in sys.modules.items() if name == "degbal" or name.startswith("degbal.")]
    saved = []
    for modname, names in TRACED.items():
        module = importlib.import_module(f"degbal.{modname}")
        for fname in names:
            original = getattr(module, fname)
            wrapper = tracer.wrap(f"{modname}.{fname}", original)
            for m in modules:
                for attr in [a for a, value in vars(m).items() if value is original]:
                    saved.append((m, attr, original))
                    setattr(m, attr, wrapper)
    return saved


def uninstall(saved) -> None:
    for module, attr, original in saved:
        setattr(module, attr, original)
