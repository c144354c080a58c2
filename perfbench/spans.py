"""Spans around the calls into each fdsc layer, and the per-layer metrics
derived from them.

The tracer wraps public functions at the names their callers look up: a
function imported into several modules (``fdsc.oracle.vertex_connectivity``,
``fdsc.graph.vertex_connectivity`` and ``fdsc.vertex_connectivity`` are one
object) is replaced in every ``fdsc`` module that binds it, and methods are
replaced on their class.  Nothing inside the package is edited.

Spans are kept in memory as parallel arrays (name, parent, start, end, in
integer nanoseconds) and written out when the traced run ends.  A span's
self time is its duration minus the part of its interval covered by its
direct children.  Every span-based ``<layer>.s`` metric is a sum of self
times, so no interval is counted in two layers; ``checks.<name>.s`` is read
from the reports instead.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# (span name, module, attribute path).  Two targets may share a span name.
TARGETS = (
    ("graph.kappa", "fdsc.graph", "vertex_connectivity"),
    ("graph.build", "fdsc.graph", "build_graph"),
    ("graph.census", "fdsc.graph", "components_after_removal"),
    ("labels.neighbor_set", "fdsc.labels", "neighbor_set"),
    ("cuts.apply_cut", "fdsc.cuts", "apply_cut"),
    ("oracle.enumerate", "fdsc.oracle", "enumerate_candidates"),
    ("oracle.sweep", "fdsc.oracle", "exact_structure_connectivity"),
    ("oracle.sweep", "fdsc.oracle", "check_vertex_edge_removals"),
    ("modcheck.build", "fdsc.modcheck", "ModularChecker.__init__"),
    ("modcheck.query", "fdsc.modcheck", "ModularChecker.connected"),
    ("modcheck.query", "fdsc.modcheck", "ModularChecker.connected_grouped"),
)

# ``connected`` delegates to ``connected_grouped``: only the outermost
# query span counts as a query.
QUERY = "modcheck.query"

CHECK_NAMES = (
    "label-involutions",
    "label-degree-symmetry",
    "label-top-swap-identity",
    "cross-edge-targets",
    "cross-edge-pair-rule",
    "apex-no-common-neighbor",
    "regularity-and-counts",
    "module-decomposition",
    "girth",
    "complete-quotient",
    "neighbor-common-bound",
    "neighbor-triangle-independent-rest",
)

# Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    ("graph.kappa.calls", "count"),
    ("graph.kappa.s", "s"),
    ("graph.build.calls", "count"),
    ("graph.build.s", "s"),
    ("graph.census.calls", "count"),
    ("graph.census.s", "s"),
    ("labels.neighbor_set.calls", "count"),
    ("labels.neighbor_set.s", "s"),
    ("cuts.apply_cut.calls", "count"),
    ("cuts.apply_cut.s", "s"),
    ("oracle.enumerate.s", "s"),
    ("oracle.candidates", "count"),
    ("oracle.sweep.s", "s"),
    ("oracle.examined", "count"),
    ("oracle.pruned", "count"),
    ("oracle.checks", "count"),
    ("oracle.prune_ratio", "ratio"),
    ("modcheck.build.calls", "count"),
    ("modcheck.build.s", "s"),
    ("modcheck.query.calls", "count"),
    ("modcheck.query.s", "s"),
    ("modcheck.decided_ratio", "ratio"),
    *((f"checks.{name}.s", "s") for name in CHECK_NAMES),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_col = array("H")
        self.parent_col = array("l")
        self.start_col = array("q")
        self.end_col = array("q")
        self.stack: list[int] = []
        self.active = False
        self.decided = 0
        self.unmeasured: dict[str, str] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        query = nid if name == QUERY else None
        names, parents = self.name_col, self.parent_col
        starts, ends, stack = self.start_col, self.end_col, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            i = len(names)
            names.append(nid)
            parents.append(parent)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if query is not None and result is not None and (
                parent < 0 or names[parent] != query
            ):
                self.decided += 1
            return result

        return traced

    def install(self) -> None:
        """Replace every target at each name that binds it in ``fdsc``."""
        modules = [
            m for key, m in sys.modules.items() if key == "fdsc" or key.startswith("fdsc.")
        ]
        for name, module_name, path in TARGETS:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.unmeasured[name] = f"{module_name}.{path} not found"
                continue
            traced = self.wrap(original, name)
            if outer:
                self._replace(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, traced)

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and inclusive seconds.

        Calls and inclusive time count only spans whose parent has another
        name, so a query that delegates to another query is one query.
        """
        selfs = self_times(self.parent_col, self.start_col, self.end_col)
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        incl_ns = [0] * len(self.names)
        names, parents = self.name_col, self.parent_col
        starts, ends = self.start_col, self.end_col
        for i in range(len(names)):
            nid = names[i]
            self_ns[nid] += selfs[i]
            p = parents[i]
            if p < 0 or names[p] != nid:
                calls[nid] += 1
                incl_ns[nid] += ends[i] - starts[i]
        return {
            name: {"calls": calls[k], "self_s": self_ns[k] / 1e9, "incl_s": incl_ns[k] / 1e9}
            for k, name in enumerate(self.names)
        }

    def roots(self, name: str) -> list[float]:
        """Durations in seconds of the top-level spans of ``name``."""
        nid = self.names.index(name) if name in self.names else -1
        return [
            (self.end_col[i] - self.start_col[i]) / 1e9
            for i in range(len(self.name_col))
            if self.name_col[i] == nid and self.parent_col[i] < 0
        ]

    def write(self, path) -> None:
        """Write every span as CSV (gzip): name, parent index, start, end."""
        names, parents = self.name_col, self.parent_col
        starts, ends = self.start_col, self.end_col
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name,parent,start_ns,end_ns\n")
            for i in range(len(names)):
                f.write(f"{self.names[names[i]]},{parents[i]},{starts[i]},{ends[i]}\n")


def self_times(parents, starts, ends) -> array:
    """Self time of every span: its duration minus the union of the parts
    of its direct children's intervals that lie inside it.

    Spans may come in any order; children of one parent may nest, touch
    or overlap.  Grandchildren are never subtracted twice, because only a
    span's direct children are counted against it.
    """
    count = len(parents)
    out = array("q", (ends[i] - starts[i] for i in range(count)))
    covered_until = {}
    order = range(count)
    if any(starts[i] < starts[i - 1] for i in range(1, count)):
        order = sorted(order, key=lambda i: starts[i])
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], covered_until.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            out[p] -= hi - lo
            covered_until[p] = hi
    return out


def layer_metrics(
    summary: dict, decided: int, results: dict, overhead_s: float
) -> dict[str, float]:
    """Per-layer metric values from a span summary (``Tracer.summary``),
    the count of non-None outermost modcheck verdicts, and the counts read
    from returned reports: ``candidates``, ``examined``, ``pruned``,
    ``checks`` and ``check_s`` (check name -> seconds, from
    ``CheckResult.elapsed_ms``).
    """

    def row(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0})

    out = {}
    for layer in ("graph.kappa", "graph.build", "graph.census", "labels.neighbor_set",
                  "cuts.apply_cut", "modcheck.build", "modcheck.query"):
        out[f"{layer}.calls"] = row(layer)["calls"]
        out[f"{layer}.s"] = row(layer)["self_s"]
    out["oracle.enumerate.s"] = row("oracle.enumerate")["self_s"]
    out["oracle.sweep.s"] = row("oracle.sweep")["self_s"]
    for key in ("candidates", "examined", "pruned", "checks"):
        out[f"oracle.{key}"] = results.get(key, 0)
    examined = results.get("examined", 0)
    out["oracle.prune_ratio"] = results.get("pruned", 0) / examined if examined else 0.0
    queries = row(QUERY)["calls"]
    out["modcheck.decided_ratio"] = decided / queries if queries else 0.0
    check_s = results.get("check_s", {})
    for name in CHECK_NAMES:
        out[f"checks.{name}.s"] = check_s.get(name, 0.0)
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name, _ in PER_LAYER}
