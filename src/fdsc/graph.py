"""Materialized FDSC_n / DSC_n graphs and the queries the verification
suite and the brute-force oracle run against them.

Graphs are adjacency lists indexed by label value.  Materialization is
capped at n <= 16 (65,536 vertices); larger dimensions are served by the
label-level operations only.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from .errors import ParameterError, ResourceCapError
from .labels import (
    DSC,
    FDSC,
    Dim,
    ModuleAddress,
    VertexLabel,
    complement_address,
    concat_halves,
    format_label,
    module_address,
    neighbor_set,
)

MAX_BUILD_BITS = 16
# How many members of the smallest component a census lists.
_MEMBER_CAP = 16


@dataclass
class Graph:
    dim: Dim
    variant: str
    adj: list[list[int]]

    @property
    def vertex_count(self) -> int:
        return len(self.adj)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def edges(self):
        """All edges as (u, v) with u < v, ascending."""
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]


@dataclass
class ComponentCensus:
    component_count: int
    component_sizes: list[int]  # descending
    smallest_component_members: list[int]  # capped at _MEMBER_CAP

    @property
    def surviving(self) -> int:
        return sum(self.component_sizes)

    @property
    def disconnected(self) -> bool:
        """Two or more components, or fewer than two surviving vertices."""
        return self.component_count >= 2 or self.surviving <= 1


def build_graph(dim: Dim, variant: str = FDSC) -> Graph:
    """Materialize the adjacency of FDSC_n or DSC_n from the label rules."""
    if dim.n > MAX_BUILD_BITS:
        raise ResourceCapError(
            f"materialization is capped at n <= {MAX_BUILD_BITS}; n={dim.n} "
            f"has 2^{dim.n} vertices (use the label-level operations instead)"
        )
    size = 1 << dim.n
    adj = [sorted(neighbor_set(u, dim, variant)) for u in range(size)]
    return Graph(dim=dim, variant=variant, adj=adj)


def components_after_removal(g: Graph, removed) -> ComponentCensus:
    """Census of the subgraph induced by the vertices outside ``removed``."""
    alive = bytearray([1]) * g.vertex_count
    for u in removed:
        alive[u] = 0
    seen = bytearray(g.vertex_count)
    comps: list[tuple[int, int]] = []  # (size, representative = smallest member)
    smallest: tuple[int, list[int]] | None = None
    adj = g.adj
    for start in range(g.vertex_count):
        if not alive[start] or seen[start]:
            continue
        seen[start] = 1
        queue = deque([start])
        members = [start]
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if alive[v] and not seen[v]:
                    seen[v] = 1
                    members.append(v)
                    queue.append(v)
        comps.append((len(members), start))
        if smallest is None or len(members) < smallest[0]:
            smallest = (len(members), sorted(members)[:_MEMBER_CAP])
    sizes = sorted((s for s, _ in comps), reverse=True)
    return ComponentCensus(
        component_count=len(comps),
        component_sizes=sizes,
        smallest_component_members=smallest[1] if smallest else [],
    )


def is_connected(g: Graph) -> bool:
    return components_after_removal(g, ()).component_count == 1


@dataclass
class _SplitNetwork:
    """The split digraph of a graph in flat arrays, for unit-capacity flow.

    Vertex v becomes an in-node 2v and an out-node 2v+1 joined by one arc
    of capacity 1; each edge {u, v} becomes the uncapped arcs u_out->v_in
    and v_out->u_in.  Arc e ends at ``head[e]`` with base capacity
    ``cap[e]``; its residual reverse is arc ``e ^ 1``.  ``out[a]`` lists the
    indices of every arc leaving node a, reverse arcs included.
    """

    head: list[int]
    cap: list[int]
    out: list[list[int]]


def _split_network(g: Graph) -> _SplitNetwork:
    n = g.vertex_count
    head: list[int] = []
    cap: list[int] = []
    out: list[list[int]] = [[] for _ in range(2 * n)]

    def add_arc(a: int, b: int, c: int) -> None:
        out[a].append(len(head))
        head.append(b)
        cap.append(c)
        out[b].append(len(head))
        head.append(a)
        cap.append(0)

    big = n  # effectively infinite for unit vertex capacities
    for v in range(n):
        add_arc(2 * v, 2 * v + 1, 1)
    for u, v in g.edges():
        add_arc(2 * u + 1, 2 * v, big)
        add_arc(2 * v + 1, 2 * u, big)
    return _SplitNetwork(head=head, cap=cap, out=out)


def _min_vertex_cut_size(net: _SplitNetwork, s: int, t: int, limit: int) -> int:
    """min(limit, maximum number of internally vertex-disjoint s-t paths)
    for non-adjacent s and t, by unit-capacity flow on ``net``.

    Augments along BFS paths from s_out to t_in on a fresh copy of the base
    capacities, and stops as soon as the flow reaches ``limit``.
    """
    head, out = net.head, net.out
    cap = net.cap[:]
    source, sink = 2 * s + 1, 2 * t
    nodes = len(out)
    flow = 0
    while flow < limit:
        via = [-1] * nodes  # arc through which BFS reached each node
        via[source] = len(head)  # reached, through no arc
        queue = [source]
        for a in queue:
            for e in out[a]:
                if cap[e]:
                    b = head[e]
                    if via[b] < 0:
                        via[b] = e
                        queue.append(b)
            if via[sink] >= 0:
                break
        else:
            return flow
        b = sink
        while b != source:
            e = via[b]
            cap[e] -= 1
            cap[e ^ 1] += 1
            b = head[e ^ 1]
        flow += 1
    return flow


def vertex_connectivity(g: Graph) -> int:
    """Exact minimum vertex-cut size.

    Fix a minimum-degree vertex v0.  The minimum over (a) flow values from
    v0 to every non-neighbor and (b) flow values between every non-adjacent
    pair of v0's neighbors is exact: a minimum cut either misses v0 (case a
    sees it from v0 to any vertex the cut separates) or contains v0 (it
    then separates two of v0's neighbors, case b).  deg(v0) itself is a cut
    whenever any non-neighbor exists; for complete graphs the candidate
    list is empty and the answer is |V| - 1.

    The split network is built once and every flow runs on a fresh copy of
    its capacities.  Each flow stops once it reaches the current best, so
    it returns min(best, flow) rather than the flow itself.  That loses
    nothing: best starts at deg(v0), which is already a cut, and only
    decreases, so min(best, min(best, flow)) = min(best, flow) at every
    step and the final minimum is unchanged.  At kappa = deg(v0) this
    skips the last, failing whole-graph BFS of every flow.

    Returns 0 for a disconnected graph.
    """
    if not is_connected(g):
        return 0
    if g.vertex_count == 1:
        return 0
    v0 = min(range(g.vertex_count), key=g.degree)
    nbrs = g.adj[v0]
    nbr_set = set(nbrs)
    non_neighbors = [t for t in range(g.vertex_count) if t != v0 and t not in nbr_set]
    if not non_neighbors:
        return g.vertex_count - 1
    net = _split_network(g)
    best = g.degree(v0)
    for t in non_neighbors:
        best = _min_vertex_cut_size(net, v0, t, best)
    for x, y in itertools.combinations(nbrs, 2):
        if not g.has_edge(x, y):
            best = _min_vertex_cut_size(net, x, y, best)
    return best


def girth(g: Graph) -> tuple[int, list[int]] | None:
    """Length of a shortest cycle plus one witness cycle; None if acyclic.

    BFS from every vertex; a non-tree edge closing at depths (a, b) proves
    a cycle of length a + b + 1 through the root.  The minimum over all
    roots is the girth, and each BFS is cut off at half the best bound.
    """
    best: int | None = None
    witness: list[int] = []
    adj = g.adj
    for root in range(g.vertex_count):
        if best == 3:
            break
        dist = {root: 0}
        parent = {root: root}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            # A cycle shorter than `best` through this root closes with a
            # non-tree edge scanned from depth <= (best-2)//2.
            if best is not None and dist[u] > (best - 2) // 2:
                continue
            for v in adj[u]:
                if v == parent[u]:
                    continue
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                else:
                    cycle_len = dist[u] + dist[v] + 1
                    if best is None or cycle_len < best:
                        best = cycle_len
                        left = []
                        a = u
                        while a != root:
                            left.append(a)
                            a = parent[a]
                        right = []
                        b = v
                        while b != root:
                            right.append(b)
                            b = parent[b]
                        witness = [root] + left[::-1] + right
                        if best == 3:  # simple graphs have no shorter cycle
                            return best, witness
    if best is None:
        return None
    return best, witness


@dataclass
class QuotientCensus:
    """Result of contracting every module to a super vertex."""

    module_count: int
    pair_count: int  # unordered module pairs joined by >= 1 cross edge
    min_multiplicity: int
    max_multiplicity: int
    multiplicities: dict[tuple[int, int], int] = field(repr=False)

    def is_complete(self) -> bool:
        return self.pair_count == self.module_count * (self.module_count - 1) // 2

    def complement_rule_holds(self, dim: Dim) -> bool:
        """Multiplicity 2 exactly for complementary address pairs, else 1."""
        for (bi, bj), mult in self.multiplicities.items():
            expected = 2 if bj == complement_address(bi, dim) else 1
            if mult != expected:
                return False
        return True


def quotient_census(g: Graph) -> QuotientCensus:
    """Count cross edges per unordered module pair (FDSC, n >= 4)."""
    if g.variant != FDSC:
        raise ParameterError("quotient census is defined for the fdsc variant")
    if g.dim.n < 4:
        raise ParameterError("quotient census needs n >= 4")
    dim = g.dim
    mult: dict[tuple[int, int], int] = {}
    for u, v in g.edges():
        bu, bv = module_address(u, dim), module_address(v, dim)
        if bu == bv:
            continue
        key = (bu, bv) if bu < bv else (bv, bu)
        mult[key] = mult.get(key, 0) + 1
    values = mult.values()
    return QuotientCensus(
        module_count=1 << dim.half,
        pair_count=len(mult),
        min_multiplicity=min(values),
        max_multiplicity=max(values),
        multiplicities=mult,
    )


def cross_edges(
    bi: ModuleAddress, bj: ModuleAddress, dim: Dim
) -> list[tuple[VertexLabel, VertexLabel]]:
    """The cross edges joining modules bi and bj, from the label rules.

    Complementary addresses are joined by two edges (bi.bi, bj.bj) and
    (bj.bi, bi.bj); any other pair by the single edge (bj.bi, bi.bj).
    Each returned pair is re-checked against ``neighbor_set`` adjacency.
    """
    if bi == bj:
        raise ParameterError("cross edges need two distinct module addresses")
    for b in (bi, bj):
        if not 0 <= b <= dim.module_mask:
            raise ParameterError(f"module address {b} out of range for n={dim.n}")
    edges = []
    if bj == complement_address(bi, dim):
        edges.append((concat_halves(bi, bi, dim), concat_halves(bj, bj, dim)))
    edges.append((concat_halves(bj, bi, dim), concat_halves(bi, bj, dim)))
    for u, v in edges:
        if v not in neighbor_set(u, dim, FDSC):
            raise AssertionError(
                f"cross-edge rule produced a non-edge ({u}, {v}) for n={dim.n}"
            )
    return edges


def export_edges(g: Graph) -> bytes:
    """Deterministic edge list: header, then one edge per line, smaller
    label first, lines ascending."""
    dim = g.dim
    lines = [f"# fdsc d={dim.d} n={dim.n} variant={g.variant}"]
    for u, v in g.edges():
        lines.append(f"{format_label(u, dim)} {format_label(v, dim)}")
    return ("\n".join(lines) + "\n").encode()


def export_dot(g: Graph) -> bytes:
    dim = g.dim
    lines = [f"graph {g.variant}_{dim.n} {{"]
    for u, v in g.edges():
        lines.append(f'  "{format_label(u, dim)}" -- "{format_label(v, dim)}";')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def export(g: Graph, fmt: str) -> bytes:
    if fmt == "edges":
        return export_edges(g)
    if fmt == "dot":
        return export_dot(g)
    raise ParameterError(f"unknown export format {fmt!r} (expected edges|dot)")
