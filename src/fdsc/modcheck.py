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
* the cross edge of (x, b), with inner label x and module b, lands on its
  partner (b, x), or on (~b, ~b) when x = b.  So a component of module b,
  held as a mask M of inner labels, has its partners in the modules of M
  other than b, plus ~b when M holds b.  With T the mask of touched
  modules, M reaches the core if M & ~T is non-empty or M holds b and ~b
  is intact.  When every component does, the graph is connected;
  otherwise the checker abstains.  It never answers "disconnected", so
  every disconnecting set is found by the plain census.

The facts this argument leans on are not assumed: the constructor proves
them for the exact dimension in use and raises if any fails.  The module
facts (interior adjacency of every module equals the half-width copy, every
vertex has exactly one cross edge, the module quotient is complete, every
cross edge lands on its partner) come from
``checks.module_decomposition_violation``, the same proof the
``module-decomposition`` check reports; the constructor adds only that the
template is connected.  Given those, every True from ``connected`` is a proof.

The same verified facts give a lower bound on the vertex connectivity of
the whole graph (``module_induction_bound``) from a flow on the template
alone, so no flow ever runs on the 2^n-vertex graph; the constructor
exposes it as ``kappa_lower_bound``.

``SurvivorCheck`` is the one "is the survivor graph connected" entry point
that the oracle's sweeps and probes call: it decides when the checker
applies (FDSC_n with n >= 8) and falls back to a plain component census
whenever the checker abstains.
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
from .labels import FDSC, Dim, make_dim

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
        self.template: Graph = build_graph(make_dim(dim.d - 1), FDSC)
        violation = module_decomposition_violation(dim)
        if violation is not None:
            raise AssertionError(violation)
        if not is_connected(self.template):
            raise AssertionError("module template graph is not connected")
        self.kappa_lower_bound = module_induction_bound(
            vertex_connectivity(self.template), self.template.vertex_count, self.module_count
        )
        # removed-inner-mask -> components, each a mask of inner labels
        self._comp_cache: dict[int, tuple[int, ...]] = {}

    def _components(self, removed_mask: int) -> tuple[int, ...]:
        comps = self._comp_cache.get(removed_mask)
        if comps is not None:
            return comps
        adj = self.template.adj
        left = ((1 << self.module_count) - 1) & ~removed_mask  # survivors not yet reached
        out = []
        while left:
            comp = left & -left
            left ^= comp
            stack = [comp.bit_length() - 1]
            while stack:
                for y in adj[stack.pop()]:
                    if (left >> y) & 1:
                        left ^= 1 << y
                        comp |= 1 << y
                        stack.append(y)
            out.append(comp)
        comps = tuple(out)
        if len(self._comp_cache) > _CACHE_SOFT_CAP:
            self._comp_cache.clear()
        self._comp_cache[removed_mask] = comps
        return comps

    def connected(self, removed) -> bool | None:
        """True or None, never False: True proves the graph minus
        ``removed`` (labels) connected; None sends the caller to the census.
        """
        half, mask = self.half, self.module_mask
        # module -> mask of its removed inner labels
        touched: dict[int, int] = {}
        for v in removed:
            b = v & mask
            touched[b] = touched.get(b, 0) | (1 << (v >> half))
        if len(touched) >= self.module_count:
            return None
        tmask = sum(1 << b for b in touched)
        for b, removed_mask in touched.items():
            apex_out = not (tmask >> (b ^ mask)) & 1
            for comp in self._components(removed_mask):
                if not (comp & ~tmask or (apex_out and (comp >> b) & 1)):
                    return None
        return True


class SurvivorCheck:
    """Is the graph minus a vertex set still connected?

    Each oracle call and probe builds its own; sharing one per graph is
    ROADMAP open item 3.  ``connected(removed)`` is true iff at least two
    vertices survive and they form one component; ``removed`` may repeat
    vertices.  With ``use_modular`` (the default), the module-decomposition
    checker proves connectivity where it applies (FDSC_n with n >= 8); the
    plain component census answers everything else, every "disconnected"
    included.  ``use_modular=False`` forces the plain route, the reference
    the fast one is tested against.
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
        if self.checker is not None and self.checker.connected(removed):
            return True
        return not components_after_removal(self.g, removed).disconnected
