"""One-command verification harness for the structural facts the cut
constructions and the oracle rely on.

Every check is independently re-runnable, side-effect free, and reports
pass/fail/skipped with a human-readable detail string (counterexamples are
named, never diagnosed).  Graph-backed checks run at the materialization
cap (n <= 16) and are marked skipped beyond it; label-level checks run for
every supported width, exhaustively up to n = 16 and on a fixed
deterministic sample above that.

``run_all`` computes each label's ``neighbor_set`` once, into one positional
table that the label checks and the module-decomposition proof read; its
rows are then sorted in place into the graph the other graph checks use.
Up to n = 16 the table's rows share one ``int`` object per label.

The shared label pass, the module proof and the two neighborhood scans
run through ``shard.scan_ranges``: at n = 16 they split into vertex chunks
that the usable cores claim in turn, each chunk reports its first hit, and
the lowest chunk's hit wins, so every report equals the serial scan's.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import time
from dataclasses import dataclass, field

from .errors import ParameterError
from .graph import (
    MAX_BUILD_BITS,
    Graph,
    cross_edges,
    girth,
    quotient_census,
)
from .labels import (
    FDSC,
    Dim,
    _swap,
    apex_pair,
    complement_address,
    format_label,
    make_dim,
    neighbor_set,
)
from .shard import scan_ranges

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

_SAMPLE_SEED = 0
_SAMPLE_COUNT = 256


def _never(result) -> bool:
    """A ``scan_ranges`` hit rule for a scan that never stops early."""
    return False


def _failed_at(result) -> bool:
    """The hit rule for a (flag, first failing vertex or None) result."""
    return result[1] is not None


@dataclass
class CheckResult:
    name: str
    status: str
    detail: str
    elapsed_ms: int = 0


@dataclass
class CheckReport:
    dim: Dim
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def to_json(self) -> dict:
        return {
            "n": self.dim.n,
            "d": self.dim.d,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
            "overall": self.overall,
        }


def _sample_values(limit: int, exhaustive_cap: int) -> tuple[list[int], bool]:
    """All values below ``limit`` when small, else a fixed deterministic
    sample (a low prefix plus seeded draws)."""
    if limit <= exhaustive_cap:
        return list(range(limit)), True
    rng = random.Random(_SAMPLE_SEED)
    picked = set(range(_SAMPLE_COUNT // 2))
    while len(picked) < _SAMPLE_COUNT:
        picked.add(rng.randrange(limit))
    return sorted(picked), False


def _labels_to_scan(dim: Dim) -> tuple[list[int], str]:
    values, full = _sample_values(1 << dim.n, 1 << min(dim.n, MAX_BUILD_BITS))
    scope = "exhaustive" if full else f"sampled {len(values)} labels, seed {_SAMPLE_SEED}"
    return values, scope


def _modules_to_scan(dim: Dim) -> tuple[list[int], str]:
    values, full = _sample_values(1 << dim.half, 1 << min(dim.half, 8))
    scope = "exhaustive" if full else f"sampled {len(values)} modules, seed {_SAMPLE_SEED}"
    return values, scope


def _neighbor_table(dim: Dim) -> list[list[int]] | dict[int, list[int]]:
    """``neighbor_set(u)`` of every scanned label, each computed once: a list
    over all labels up to n = 16, else a dict over the sample and the
    neighbors of its labels.

    The full list's rows are exact-size and name each neighbor by the one
    ``int`` that ``labels`` holds for it, so 2^n objects serve all
    (d+2) 2^n entries (65,536 instead of 393,216 at n = 16).
    """
    labels, _ = _labels_to_scan(dim)
    if dim.n <= MAX_BUILD_BITS:
        at = labels.__getitem__
        # labels[v] is v; a tuple has a length, so the list is allocated exactly
        return [list(tuple(map(at, neighbor_set(u, dim)))) for u in labels]
    table = {u: neighbor_set(u, dim) for u in labels}
    for v in {v for row in table.values() for v in row} - table.keys():
        table[v] = neighbor_set(v, dim)
    return table


def _timed(name: str, fn) -> CheckResult:
    start = time.perf_counter()
    status, detail = fn()
    return CheckResult(
        name=name,
        status=status,
        detail=detail,
        elapsed_ms=int((time.perf_counter() - start) * 1000),
    )


def check_label_invariants(dim: Dim, table=None) -> list[CheckResult]:
    """Neighbor maps are fixed-point-free involutions, neighbor lists have
    the right degree with pairwise-distinct members, adjacency is symmetric
    with matching kinds (v at position i of N(u) exactly when u is at
    position i of N(v)), and the top-level swap complements exactly s_1 s_2
    (so e1 after it equals the folded map).  Each map is read at its
    position in ``table`` (``_neighbor_table(dim)`` by default).  The first
    two checks both rest on ``table[table[u][i]][i] == u``, so one pass over
    the labels serves both; each still names the failure its own scan order
    meets first (maps in turn for the involutions, labels in turn for
    symmetry)."""
    labels, scope = _labels_to_scan(dim)
    table = table if table is not None else _neighbor_table(dim)
    expected_degree = dim.d + 2
    # neighbor_set positions: swap level k >= 2 at k-1, level 1 (cross) at d
    swap_at = {k: k - 1 if k > 1 else dim.d for k in range(1, dim.d + 1)}

    def scan_faults(lo, hi):
        at_position: dict[int, int] = {}
        row_fault = None
        for u in labels[lo:hi]:
            nbrs = table[u]
            first = None
            for i, v in zip(range(expected_degree), nbrs):
                if v == u or table[v][i] != u:
                    at_position.setdefault(i, u)
                    if first is None:
                        first = i
            if row_fault is None and (
                first is not None or len(nbrs) != expected_degree or len(set(nbrs)) != len(nbrs)
            ):
                row_fault = (u, first)
        return at_position, row_fault

    @functools.cache
    def faults():
        """One pass over the scanned labels for both checks below: per
        position i, the first label whose map i fixes it or is not undone at
        i (``table[table[u][i]][i] != u``), and the first label (with the
        failing position, if any) whose row has the wrong degree, holds the
        label itself, or is undone wrongly somewhere.  The pass never stops
        early, so every chunk is scanned and the lowest chunk's finds win."""
        at_position: dict[int, int] = {}
        row_fault = None
        for part, part_fault in scan_ranges(scan_faults, len(labels), hit=_never):
            for i, u in part.items():
                at_position.setdefault(i, u)
            row_fault = row_fault or part_fault
        return at_position, row_fault

    def involutions():
        maps = [("e1", 0), ("ef", dim.d + 1)]
        maps += [(f"swap{k}", i) for k, i in swap_at.items()]
        at_position, _ = faults()
        for name, i in maps:
            if i in at_position:
                u = at_position[i]
                if table[u][i] == u:
                    return FAIL, f"{name} fixes {format_label(u, dim)}"
                return FAIL, f"{name} is not an involution at {format_label(u, dim)}"
        return PASS, f"{scope}; {len(labels)} labels, d+1 swap levels"

    def degree_and_symmetry():
        _, row_fault = faults()
        if row_fault is None:
            return PASS, f"{scope}; degree {expected_degree} everywhere"
        u, i = row_fault
        nbrs = table[u]
        seen_labels = set(nbrs)
        if len(nbrs) != expected_degree or len(seen_labels) != expected_degree:
            return FAIL, (
                f"{format_label(u, dim)} has {len(seen_labels)} distinct "
                f"neighbors, expected {expected_degree}"
            )
        if u in seen_labels:
            return FAIL, f"{format_label(u, dim)} adjacent to itself"
        return FAIL, (
            f"asymmetric edge {format_label(u, dim)} -- "
            f"{format_label(nbrs[i], dim)} at neighbor position {i}"
        )

    def top_swap_flips_two():
        head_mask = 0b11 << (dim.n - 2)
        top = swap_at[dim.d]
        for u in labels:
            v = table[u][top]
            if v != u ^ head_mask:
                return FAIL, f"top swap at {format_label(u, dim)} is not a s1,s2 flip"
            if table[v][0] != table[u][dim.d + 1]:
                return FAIL, f"e1 after top swap differs from folded map at {format_label(u, dim)}"
        return PASS, scope

    return [
        _timed("label-involutions", involutions),
        _timed("label-degree-symmetry", degree_and_symmetry),
        _timed("label-top-swap-identity", top_swap_flips_two),
    ]


def check_cross_edge_structure(dim: Dim, table=None) -> list[CheckResult]:
    """Cross-edge facts, at label level: each vertex has exactly one cross
    edge; the apex pair of a module both reach the complementary module, on
    distinct vertices; all other vertices reach pairwise-distinct modules;
    module pairs carry two cross edges exactly when complementary, else
    one, with the stated endpoints.  A full ``table`` supplies the cross edges."""
    if dim.n < 4:
        raise ParameterError("cross-edge structure needs n >= 4")
    modules, scope = _modules_to_scan(dim)

    def cross(u):
        return _swap(u, dim.n, dim.half) if table is None else table[u][dim.d]

    def per_module_targets():
        half, mask = dim.half, dim.module_mask
        inner_values, inner_full = _sample_values(1 << half, 1 << min(half, 8))
        for b in modules:
            comp = complement_address(b, dim)
            apex_low, apex_high = apex_pair(b, dim)
            ext_low = cross(apex_low)
            ext_high = cross(apex_high)
            if ext_low == ext_high:
                return FAIL, f"apex pair of module {b:#x} shares its cross endpoint"
            if {ext_low & mask, ext_high & mask} != {comp}:
                return FAIL, f"apex pair of module {b:#x} does not both reach the complement"
            targets: dict[int, list[int]] = {}
            for a in inner_values:
                u = (a << half) | b
                tb = cross(u) & mask
                if tb == b:
                    return FAIL, f"cross edge of {format_label(u, dim)} stays in its module"
                targets.setdefault(tb, []).append(u)
            for tb, sources in targets.items():
                expected = 2 if tb == comp else 1
                if inner_full and len(sources) != expected:
                    return FAIL, (
                        f"module {b:#x} sends {len(sources)} cross edges to "
                        f"{tb:#x}, expected {expected}"
                    )
                if not inner_full and len(sources) > expected:
                    return FAIL, (
                        f"module {b:#x} sends {len(sources)} cross edges to "
                        f"{tb:#x}, expected at most {expected}"
                    )
        return PASS, f"{scope}; one cross edge per vertex, multiplicity 2 only at complements"

    def pair_edge_rule():
        for b in modules:
            comp = complement_address(b, dim)
            # without repeats: b + 1 is the complement at b = 01..1 and 11..1
            probes = dict.fromkeys((comp, (b + 1) & dim.module_mask))
            others = modules if len(modules) <= 64 else probes
            for c in others:
                if c == b:
                    continue
                try:
                    edges = cross_edges(b, c, dim)
                except AssertionError as exc:
                    return FAIL, f"modules {b:#x},{c:#x}: {exc}"
                expected = 2 if c == comp else 1
                if len(edges) != expected:
                    return FAIL, f"modules {b:#x},{c:#x}: {len(edges)} edges, expected {expected}"
        return PASS, f"{scope}; endpoint rule re-verified against adjacency"

    return [
        _timed("cross-edge-targets", per_module_targets),
        _timed("cross-edge-pair-rule", pair_edge_rule),
    ]


def check_no_common_neighbor(dim: Dim, table=None) -> CheckResult:
    """The two apex vertices b.b and ~b.b of every module have disjoint
    neighbor sets (scanning all modules covers both orientations).

    This holds from n = 8 on and is false at n = 4, where the quarter
    halves are single bits: the check fails there and names the apexes
    0000 and 1100 sharing {0100, 1000}.  PAPER.md holds only the
    abstract, so it does not settle the width at which the paper states
    the lemma.  A full ``table`` supplies the apex neighbor lists.
    """
    if dim.n < 4:
        raise ParameterError("apex neighbor disjointness needs n >= 4")
    modules, scope = _modules_to_scan(dim)

    def run():
        for b in modules:
            u, v = apex_pair(b, dim)
            nu = set(table[u] if table is not None else neighbor_set(u, dim, FDSC))
            nv = set(table[v] if table is not None else neighbor_set(v, dim, FDSC))
            common = nu & nv
            if common:
                sample = ", ".join(format_label(w, dim) for w in sorted(common))
                return FAIL, (
                    f"module {format(b, f'0{dim.half}b')}: apexes "
                    f"{format_label(u, dim)} and {format_label(v, dim)} share "
                    f"neighbors {{{sample}}}"
                )
        return PASS, f"{scope}; all apex pairs disjoint"

    return _timed("apex-no-common-neighbor", run)


def module_decomposition_violation(dim: Dim, table=None) -> str | None:
    """Prove the module decomposition of FDSC_n (n >= 4) at label level.

    In every module: each vertex's interior edges are those of its inner
    label in FDSC_(n/2), kinds (neighbor positions) included: swap level k
    becomes k+1, so the half-width cross edge becomes the level-2 swap;
    each vertex has exactly one cross edge; the cross edges reach every
    other module; and each lands on its partner: (x, b), with inner label x
    and module b, is joined to (b, x), or to (~b, ~b) when x = b.  Returns
    the first violation, naming its module, or None.  A full positional
    ``table`` (unsorted) supplies the neighbor lists when given.
    """
    half_dim = make_dim(dim.d - 1)
    half, mask, size = dim.half, dim.module_mask, 1 << dim.half
    # half-width position -> full-width position (level k -> k+1, cross edge -> level 2)
    widen = [0, *range(2, dim.d), 1, dim.d + 1]
    copies = [
        {y: widen[i] for i, y in enumerate(neighbor_set(x, half_dim, FDSC))}
        for x in range(size)
    ]

    def first_violation(lo, hi):
        for b in range(lo, hi):
            targets = set()
            stray = None
            for x in range(size):
                u = (x << half) | b
                interior = {}
                cross = []
                for i, v in enumerate(table[u] if table is not None else neighbor_set(u, dim, FDSC)):
                    if v & mask == b:
                        interior[v >> half] = i
                    else:
                        cross.append(v)
                if interior != copies[x]:
                    return (
                        f"module {b:#x}: interior edges at {format_label(u, dim)} "
                        f"do not match the half-width copy"
                    )
                if len(cross) != 1:
                    return (
                        f"module {b:#x}: vertex {format_label(u, dim)} has "
                        f"{len(cross)} cross edges, expected exactly 1"
                    )
                targets.add(cross[0] & mask)
                partner = (b << half) | x if x != b else ((b ^ mask) << half) | (b ^ mask)
                if cross[0] != partner and stray is None:
                    stray = (
                        f"module {b:#x}: cross edge of {format_label(u, dim)} lands at "
                        f"{format_label(cross[0], dim)}, not at its partner "
                        f"{format_label(partner, dim)}"
                    )
            # a missed module breaks the partner rule too; name the missed module
            if len(targets) != size - 1:
                return f"module {b:#x}: cross edges do not reach every other module"
            if stray is not None:
                return stray
        return None

    # a module is 2^(n/2) vertices of work
    return scan_ranges(first_violation, size, weight=size)[-1]


def _module_decomposition_check(dim: Dim, table=None) -> CheckResult:
    def run():
        if dim.n < 4:
            return SKIPPED, "no module structure below n = 4"
        violation = module_decomposition_violation(dim, table)
        if violation is not None:
            return FAIL, violation
        return PASS, (
            f"all {1 << dim.half} modules are half-width copies "
            f"(swap level k maps to k+1)"
        )

    return _timed("module-decomposition", run)


def check_graph_invariants(g: Graph, module: CheckResult | None = None) -> list[CheckResult]:
    """Global facts of the built graph: (d+2)-regularity, exact vertex and
    edge counts, the module-decomposition edge bijection, girth 3, and the
    complete module quotient.  A given ``module`` result (``run_all`` proves
    it on its positional table) is reported in place of running the proof."""
    if g.variant != FDSC:
        raise ParameterError("graph invariants are stated for the fdsc variant")
    dim = g.dim

    def regularity_counts():
        expected_v = 1 << dim.n
        expected_e = (1 << (dim.n - 1)) * (dim.d + 2)
        if g.vertex_count != expected_v:
            return FAIL, f"vertex count {g.vertex_count}, expected {expected_v}"
        bad = next((u for u in range(g.vertex_count) if g.degree(u) != dim.d + 2), None)
        if bad is not None:
            return FAIL, f"vertex {format_label(bad, dim)} has degree {g.degree(bad)}"
        if g.edge_count != expected_e:
            return FAIL, f"edge count {g.edge_count}, expected {expected_e}"
        return PASS, f"|V|={expected_v}, |E|={expected_e}, ({dim.d + 2})-regular"

    def girth_three():
        result = girth(g)
        if result is None:
            return FAIL, "no cycle found"
        value, witness = result
        if value != 3:
            return FAIL, f"girth {value}"
        names = ", ".join(format_label(w, dim) for w in witness)
        return PASS, f"girth 3, witness triangle {{{names}}}"

    def quotient_complete():
        if dim.n < 4:
            return SKIPPED, "no module structure below n = 4"
        census = quotient_census(g)
        if not census.is_complete():
            return FAIL, (
                f"only {census.pair_count} module pairs joined of "
                f"{census.module_count * (census.module_count - 1) // 2}"
            )
        if not census.complement_rule_holds(dim):
            return FAIL, "cross-edge multiplicity breaks the complement rule"
        return PASS, (
            f"quotient is complete on {census.module_count} super vertices; "
            f"multiplicities in [{census.min_multiplicity}, {census.max_multiplicity}]"
        )

    return [
        _timed("regularity-and-counts", regularity_counts),
        module if module is not None else _module_decomposition_check(dim),
        _timed("girth", girth_three),
        _timed("complete-quotient", quotient_complete),
    ]


def check_neighborhood_structure(g: Graph) -> list[CheckResult]:
    """Neighborhood facts used by the mixed-removal bound: any two
    neighbors of u share at most one common neighbor besides u, and N(u)
    contains a triangle whose removal leaves the rest of N(u) independent.

    The first fact is checked in its global form: no two distinct vertices
    share three or more neighbors.  For a simple undirected adjacency (no
    loops, no repeated entries, v in adj[u] exactly when u in adj[v]) the
    two are equivalent.  If neighbors v != w of u share two vertices
    besides u, then v and w share those two and u.  Conversely, if v != w
    share three neighbors, pick u among them: v and w are neighbors of u
    and share the other two.  The common neighbors of v and w are counted
    as the two-step walks from v that end at w, so each vertex needs one
    sorted list of its walk endpoints ((d+2)^2 in FDSC_n), and a failure
    names the smallest middle of those walks as the hub.

    The triangle is checked first with the fixed witness {u_1, u_top, u_f}
    (pairwise different in subsets of {s_1, s_2}); if that ever fails, all
    triples are searched before reporting, and the detail records which
    branch ran.  A triple counts only when it lies in N(u): a witness that
    is a triangle elsewhere says nothing about N(u)."""
    if g.variant != FDSC or g.dim.d < 2:
        raise ParameterError("neighborhood structure needs fdsc with d >= 2")
    dim = g.dim
    adj = g.adj

    def walk_ends(v):
        return sorted([w for x in adj[v] for w in adj[x] if w != v])

    def first_shared(lo, hi):
        for v in range(lo, hi):
            ends = walk_ends(v)
            # a w that ends three walks sits at some i and i + 2
            if any(map(operator.eq, ends, ends[2:])):
                return v
        return None

    def pairwise_common_bound():
        v = scan_ranges(first_shared, len(adj))[-1]
        if v is None:
            return PASS, "every neighbor pair shares at most one vertex besides the hub"
        ends = walk_ends(v)
        w = next(a for a, b in zip(ends, ends[2:]) if a == b)
        # one middle per walk counted above, so three or more on any rows;
        # on a simple symmetric adjacency these are N(v) & N(w)
        middles = sorted(x for x in adj[v] for y in adj[x] if y == w)
        return FAIL, (
            f"neighbors {format_label(v, dim)}, {format_label(w, dim)} "
            f"of {format_label(middles[0], dim)} share {len(middles) - 1} others"
        )

    def _is_triangle_with_independent_rest(u: int, triple: tuple[int, int, int]) -> bool:
        p, q, r = triple
        nbrs = adj[u]
        if not (p in nbrs and q in nbrs and r in nbrs):
            return False
        if not (p in adj[q] and q in adj[r] and p in adj[r]):
            return False
        rest = [x for x in nbrs if x not in triple]
        return all(y not in adj[x] for x, y in itertools.combinations(rest, 2))

    n = dim.n
    s1_bit, s2_bit, top_run = 1 << (n - 1), 1 << (n - 2), n >> dim.d

    def first_without_triangle(lo, hi):
        """(whether the fixed witness failed at some u in [lo, hi), the first
        u there with no neighbor triangle whose removal leaves the rest
        independent, or None)."""
        fallback_used = False
        for u in range(lo, hi):
            # {u_1, u_top, u_f}: flip s_1, the level-d swap, flip s_2
            witness = (u ^ s1_bit, _swap(u, n, top_run), u ^ s2_bit)
            if _is_triangle_with_independent_rest(u, witness):
                continue
            fallback_used = True
            found = any(
                _is_triangle_with_independent_rest(u, triple)
                for triple in itertools.combinations(adj[u], 3)
            )
            if not found:
                return fallback_used, u
        return fallback_used, None

    def triangle_and_independent_rest():
        parts = scan_ranges(first_without_triangle, g.vertex_count, hit=_failed_at)
        _, u = parts[-1]
        if u is not None:
            return FAIL, (
                f"no neighbor triangle with independent rest at "
                f"{format_label(u, dim)}"
            )
        branch = (
            "fixed witness failed somewhere, full triple search succeeded"
            if any(fallback_used for fallback_used, _ in parts)
            else "fixed witness {u_1, u_top, u_f} everywhere"
        )
        return PASS, branch

    return [
        _timed("neighbor-common-bound", pairwise_common_bound),
        _timed("neighbor-triangle-independent-rest", triangle_and_independent_rest),
    ]


def run_all(dim: Dim) -> CheckReport:
    """Run every check for one dimension.

    Graph-backed checks are skipped (never passed) above the
    materialization cap; label-level checks always run.  At n = 4 the
    apex-disjointness check genuinely fails, so ``overall`` is false
    there; from n = 8 on every check that runs passes.
    """
    report = CheckReport(dim=dim)
    table = _neighbor_table(dim)
    full = table if dim.n <= MAX_BUILD_BITS else None
    report.checks.extend(check_label_invariants(dim, table))
    if dim.n >= 4:
        report.checks.extend(check_cross_edge_structure(dim, full))
        report.checks.append(check_no_common_neighbor(dim, full))
    if full is not None:
        # the last positional reader; sorted rows are what build_graph makes
        module = _module_decomposition_check(dim, full)
        for row in full:
            row.sort()
        graph = Graph(dim=dim, variant=FDSC, adj=full)
        report.checks.extend(check_graph_invariants(graph, module))
        if dim.d >= 2:
            report.checks.extend(check_neighborhood_structure(graph))
    else:
        capped = f"materialization is capped at n <= {MAX_BUILD_BITS}"
        for name in (
            "regularity-and-counts",
            "module-decomposition",
            "girth",
            "complete-quotient",
            "neighbor-common-bound",
            "neighbor-triangle-independent-rest",
        ):
            report.checks.append(CheckResult(name=name, status=SKIPPED, detail=capped))
    return report
