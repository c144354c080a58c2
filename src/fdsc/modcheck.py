"""Fast exact connectivity of FDSC_n minus a small vertex set.

Checking ``G - S`` by whole-graph search costs O(2^n) per query, which is
the bottleneck of the exhaustive family searches.  This checker exploits
the module decomposition instead: FDSC_n splits into 2^(n/2) modules, each
an isomorphic copy of FDSC_(n/2), every vertex has exactly one cross edge,
and every pair of modules is joined by at least one cross edge.

For a removal S touching at most a few modules:

* every module with no removed vertex ("intact") survives whole, and all
  intact modules form one connected core (each is internally connected and
  any two are joined by a cross edge whose endpoints are both intact);
* each touched module decomposes into components of (module - S), found
  by search inside a 2^(n/2)-vertex template and memoized by removed mask;
* a touched-module component joins the core as soon as any member's cross
  edge lands in an intact module, and joins another touched component via
  cross edges between touched modules.  Since the cross-edge map is an
  involution, scanning every touched survivor sees each such edge from
  both ends, so a component's scan may stop at its first core contact.

The facts this argument leans on are not assumed: the constructor proves
them for the exact dimension in use and raises if any fails.  The module
facts (interior adjacency of every module equals the half-width copy, every
vertex has exactly one cross edge, the module quotient is complete) come
from ``checks.module_decomposition_violation``, the same proof the
``module-decomposition`` check reports; the constructor adds only that the
template is connected.  Given those, ``connected`` is exact whenever at
least one module is intact; otherwise it returns None.

The same verified facts give a lower bound on the vertex connectivity of
the whole graph (``module_induction_bound``) from a flow on the template
alone, so no flow ever runs on the 2^n-vertex graph; the constructor
exposes it as ``kappa_lower_bound``.

``SurvivorCheck`` is the one "is the survivor graph connected" entry point
that the oracle's sweeps and probes call: it decides when the checker
applies (FDSC_n with n >= 8) and falls back to a plain component census
whenever the checker cannot decide.
"""

from __future__ import annotations

from .checks import module_decomposition_violation
from .errors import ParameterError
from .graph import (
    Graph,
    build_graph,
    components_after_removal,
    is_connected,
    vertex_connectivity,
)
from .labels import FDSC, Dim, external_neighbor, make_dim

_CACHE_SOFT_CAP = 200_000


def module_induction_bound(
    template_kappa: int, template_size: int, module_count: int
) -> int | None:
    """Lower bound on kappa(G) from the connectivity of one module.

    Let G split into M = ``module_count`` modules, each inducing a copy of
    a template T with ``template_size`` vertices and vertex connectivity
    ``template_kappa``; let every vertex have exactly one cross edge (an
    edge to another module) and every pair of modules be joined by at
    least one cross edge.  If 0 < kappa(T) < |T| and M - 1 > kappa(T),
    then kappa(G) >= kappa(T) + 1, which is returned; otherwise None.

    Proof: remove a set S with |S| <= kappa(T).

    * S lies in one module.  Every other module is intact, hence connected
      (kappa(T) > 0), and any two intact modules are joined by a cross
      edge with both endpoints intact, so their union is connected.  Every
      survivor of the touched module has its cross edge into an intact
      module.
    * S touches two or more modules.  Each module loses at most
      kappa(T) - 1 < |T| vertices, so what is left of it is non-empty and
      connected.  Each removed vertex kills one cross edge, so at least
      K_M minus kappa(T) edges of the module quotient survive, and K_M
      minus fewer than M - 1 edges is connected.

    Either way G - S is connected with at least two vertices.
    """
    if 0 < template_kappa < template_size and module_count - 1 > template_kappa:
        return template_kappa + 1
    return None


class ModularChecker:
    def __init__(self, dim: Dim):
        if dim.n < 8:
            raise ParameterError("module-decomposition checker needs n >= 8")
        self.half = dim.half
        self.module_mask = dim.module_mask
        self.module_count = 1 << dim.half
        half_dim = make_dim(dim.d - 1)
        self.template: Graph = build_graph(half_dim, FDSC)
        size = 1 << dim.n
        self.ext_module = [0] * size
        self.ext_inner = [0] * size
        for v in range(size):
            e = external_neighbor(v, dim)
            self.ext_module[v] = e & self.module_mask
            self.ext_inner[v] = e >> self.half
        # vertex -> (module, its bit in that module's inner mask); one int
        # per inner label, shared by every module
        bits = [1 << x for x in range(self.module_count)]
        self.module_bit = [(v & self.module_mask, bits[v >> self.half]) for v in range(size)]
        violation = module_decomposition_violation(dim)
        if violation is not None:
            raise AssertionError(violation)
        if not is_connected(self.template):
            raise AssertionError("module template graph is not connected")
        self.kappa_lower_bound = module_induction_bound(
            vertex_connectivity(self.template), self.template.vertex_count, self.module_count
        )
        # removed-inner-mask -> tuple of components (tuples of inner labels)
        self._comp_cache: dict[int, tuple[tuple[int, ...], ...]] = {}

    def _components(self, removed_mask: int) -> tuple[tuple[int, ...], ...]:
        comps = self._comp_cache.get(removed_mask)
        if comps is not None:
            return comps
        adj = self.template.adj
        size = self.module_count
        seen = 0  # bitmask over inner labels, removed marked seen
        out = []
        for start in range(size):
            if (removed_mask >> start) & 1 or (seen >> start) & 1:
                continue
            stack = [start]
            seen |= 1 << start
            members = []
            while stack:
                x = stack.pop()
                members.append(x)
                for y in adj[x]:
                    if not ((removed_mask >> y) & 1 or (seen >> y) & 1):
                        seen |= 1 << y
                        stack.append(y)
            out.append(tuple(members))
        comps = tuple(out)
        if len(self._comp_cache) > _CACHE_SOFT_CAP:
            self._comp_cache.clear()
        self._comp_cache[removed_mask] = comps
        return comps

    def connected(self, removed) -> bool | None:
        """Exact connectivity of the graph minus ``removed`` (labels).

        Returns None when no module is intact (caller must fall back).
        """
        # module -> mask of its removed inner labels
        touched: dict[int, int] = {}
        module_bit = self.module_bit
        for v in removed:
            b, bit = module_bit[v]
            touched[b] = touched.get(b, 0) | bit
        if len(touched) >= self.module_count:
            return None
        half = self.half
        ext_module = self.ext_module
        ext_inner = self.ext_inner
        components = self._components

        # Node 0 is the intact core; allocate nodes for every touched
        # component first so cross links can union in either direction.
        parent = [0]
        node_of: dict[int, tuple[tuple[int, ...], int]] = {}
        for b, removed_mask in touched.items():
            comps = components(removed_mask)
            node_of[b] = (comps, len(parent))
            for _ in comps:
                parent.append(len(parent))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for b, (comps, first_id) in node_of.items():
            base = b
            for offset, members in enumerate(comps):
                node = first_id + offset
                for x in members:
                    v = (x << half) | base
                    e_mod = ext_module[v]
                    other = touched.get(e_mod)
                    if other is None:
                        # Cross edge into an intact module: this component
                        # reaches the core; any link it has to another
                        # touched component is seen from that component's
                        # own scan (the cross-edge map is an involution),
                        # or is redundant once both sides touch the core.
                        ra, rb = find(node), 0
                        if ra != rb:
                            parent[ra] = rb
                        break
                    e_in = ext_inner[v]
                    if (other >> e_in) & 1:
                        continue  # partner vertex was removed
                    o_comps, o_first = node_of[e_mod]
                    for o_offset, o_members in enumerate(o_comps):
                        if e_in in o_members:
                            ra, rb = find(node), find(o_first + o_offset)
                            if ra != rb:
                                parent[ra] = rb
                            break
        root = find(0)
        return all(find(i) == root for i in range(1, len(parent)))


class SurvivorCheck:
    """Is the graph minus a vertex set still connected?

    Built once per graph.  ``connected(removed)`` is true iff at least two
    vertices survive and they form one component; ``removed`` may repeat
    vertices.  With ``use_modular`` (the default), the module-decomposition
    checker answers where it applies (FDSC_n with n >= 8) and can decide; a
    plain component census answers otherwise.  ``use_modular=False`` forces
    the plain route, the reference the fast one is tested against.
    """

    def __init__(self, g: Graph, use_modular: bool = True):
        self.g = g
        applies = use_modular and g.variant == FDSC and g.dim.n >= 8
        self.checker = ModularChecker(g.dim) if applies else None
        self.method = (
            "module-decomposition checker (preconditions verified at "
            "construction), plain search fallback"
            if self.checker is not None
            else "plain component search"
        )

    def connected(self, removed) -> bool:
        if self.checker is not None:
            verdict = self.checker.connected(removed)
            if verdict is not None:
                return verdict
        return not components_after_removal(self.g, removed).disconnected
