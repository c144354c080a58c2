"""Fast exact connectivity of FDSC_n minus a small vertex set.

Checking ``G - S`` by whole-graph search costs O(2^n) per query, which is
the bottleneck of the exhaustive family searches.  This checker exploits
the module decomposition instead: FDSC_n splits into 2^(n/2) modules, each
an isomorphic copy of FDSC_(n/2), every vertex has exactly one cross edge,
and every pair of modules is joined by at least one cross edge.

For a removal S that leaves some module intact:

* every module with no removed vertex ("intact") survives whole, and all
  intact modules form one connected core (each is internally connected and
  any two are joined by a cross edge whose endpoints are both intact);
* each touched module decomposes into components of (module - S), found
  by search inside a 2^(n/2)-vertex template and memoized by removed mask;
* the cross edge of (x, b), with inner label x and module b, lands on its
  partner (b, x), or on (~b, ~b) when x = b (``ModularChecker.partner``).
  So a component of module b, held as a mask M of inner labels, has its
  partners in the modules of its *reach mask*
  R = (M & ~(1 << b)) | (bit b of M) << ~b (``reach``).  With T the mask
  of touched modules, the component is joined to the core iff R & ~T is
  non-empty.  That is the fast test: when fewer than all modules are
  touched and every component of every touched module passes it, the
  graph is connected;
* when some component fails it, the checker decides on the graph whose
  nodes are the core and the touched modules' components, joined by
  surviving partner edges: every edge between modules is a partner edge,
  so the survivor graph is connected iff every component is joined to the
  core through that graph.

So whenever some module is intact the checker is exact: it answers True
iff the survivor graph is connected.  It never answers "disconnected": it
abstains (None) when every module is touched or the survivor graph is
disconnected, and the plain census confirms every such case, so every
disconnecting set is found by the census.  The fast test for one touched
module is one method, ``reaches_core``, which ``connected`` asks of every
touched module.  The oracle's sweep applies the fast test to whole sets of
candidates at once, through ``reach``, and asks ``reaches_core`` of each
module an extension shares with its prefix, so neither can drift apart
from ``connected``.

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

A query is a *footprint* (``footprint``): the removed set split once into
its modules, each with the mask of its removed inner labels.  The sweeps
split a candidate's labels only when they first read its footprint, and
merge footprints per subset, so no label is split twice; their table's
bulk facts come from ``components`` and ``reach`` per removed inner mask.
``SurvivorCheck`` splits label lists for everyone else.

``SurvivorCheck`` is the one "is the survivor graph connected" entry point
that the oracle's sweeps and probes call: it decides when the checker
applies (FDSC_n with n >= 8) and falls back to a plain component census
whenever the checker abstains, which confirms the disconnection or
decides a query that touches every module.
"""

from __future__ import annotations

import functools

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


def footprint(vertices, dim: Dim) -> dict[int, int]:
    """Module b -> mask of the removed inner labels x, for labels v = (x, b)
    with b = v & module_mask and x = v >> half.  The split is a bijection, so
    the popcounts of the masks sum to the number of distinct labels."""
    half, mask = dim.half, dim.module_mask
    out: dict[int, int] = {}
    for v in vertices:
        b = v & mask
        out[b] = out.get(b, 0) | (1 << (v >> half))
    return out


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
        # module b -> the bit of the module holding the partner of (b, b),
        # the one vertex of module b whose partner does not lie in the
        # module that its inner label names
        self._apex_bit = [1 << self.partner(b, b)[1] for b in range(self.module_count)]

    def partner(self, x: int, b: int) -> tuple[int, int]:
        """(inner label, module) of the cross-edge partner of vertex (x, b):
        (b, x), or (~b, ~b) when x = b.  The constructor has proven this
        rule for every vertex.  ``_linked`` calls it per vertex; ``reach``
        and the fast test (``reaches_core``) read its apex case from
        ``_apex_bit``, which the constructor builds from it."""
        if x == b:
            x = b ^ self.module_mask
            return x, x
        return b, x

    def components(self, removed_mask: int) -> tuple[int, ...]:
        """Components of the template minus ``removed_mask``, as masks of
        inner labels, from the cache or searched and added to it."""
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

    def reach(self, b: int, removed_mask: int) -> tuple[int, ...]:
        """One reach mask per component of module b minus ``removed_mask``:
        the modules that the component's cross edges land in.  Inner label x
        of module b has its partner in module x, except x = b, whose partner
        (~b, ~b) lies in module ~b; so a component mask M reaches
        (M & ~(1 << b)) | (bit b of M) << ~b.  Derived from the component
        cache on each call, so it is bounded as that cache is."""
        comps = self._comp_cache.get(removed_mask)
        if comps is None:
            comps = self.components(removed_mask)
        bit = 1 << b
        for k, comp in enumerate(comps):
            if comp & bit:  # at most one component holds b
                return comps[:k] + (comp ^ bit | self._apex_bit[b],) + comps[k + 1 :]
        return comps

    def connected(self, touched: dict[int, int]) -> bool | None:
        """True or None, never False: True proves the graph minus the
        removed set connected, given as its ``footprint`` ``touched``
        (module -> mask of removed inner labels); None sends the caller to
        the census.  With T the set of touched modules, the answer is exact
        whenever T misses a module: True iff the survivor graph is
        connected.  When every module is touched it is None.

        Proof.  Let T miss a module.  Every untouched module survives whole
        and is connected (the template is), and any two untouched modules
        b, b' are joined by the partner edge (b', b) -- (b, b'), whose ends
        both survive; so the untouched modules form one connected *core* of
        at least 2^(n/2) vertices.  Every other survivor lies in a touched
        module b, in one component of the template minus b's removed mask.
        An edge inside a module stays inside one such component or inside
        the core, and every edge between modules is a partner edge (the
        constructor proves both facts).  So the survivor graph is connected
        iff the graph on the core and these components, joined by surviving
        partner edges, is connected.  A component C of module b holds, for each x in C, the
        vertex (x, b) with partner (z, y) = ``partner(x, b)``: C is joined
        to the core iff some such y is untouched, which is C's reach mask
        meeting ~T, and otherwise to the component of module y holding z,
        unless z is removed, which gives no edge.  The fast test asks only
        whether every component is joined to the core directly; when one is
        not, ``_linked`` searches that graph from the core.
        """
        if len(touched) >= self.module_count:
            return None
        tmask = 0
        for b in touched:
            tmask |= 1 << b
        reaches_core = self.reaches_core
        for b, removed_mask in touched.items():
            if not reaches_core(b, removed_mask, tmask):
                return True if self._linked(touched, tmask) else None
        return True

    def reaches_core(self, b: int, removed_mask: int, tmask: int) -> bool:
        """The fast test for one touched module b (in ``tmask``, the mask of
        touched modules): whether every component of module b minus
        ``removed_mask`` has a reach mask that meets an untouched module.
        ``connected`` asks it of every touched module, and the oracle's
        sweep of each module an extension shares with its prefix."""
        comps = self._comp_cache.get(removed_mask)
        if comps is None:
            comps = self.components(removed_mask)
        outside = ~tmask
        # b itself is touched, so bit b of a component meets ~T only as the
        # apex partner's module ~b, which it does iff ~b is untouched
        if outside & self._apex_bit[b]:
            outside |= 1 << b
        for comp in comps:
            if not comp & outside:
                return False
        return True

    def _linked(self, touched: dict[int, int], tmask: int) -> bool:
        """Whether every component of every touched module is joined to the
        core, directly or through other such components, by surviving
        partner edges (``connected`` has the proof).  The components are
        read into a local map first: the cache's soft cap may clear it
        while a later module's components are searched."""
        comps_of = {b: self.components(removed) for b, removed in touched.items()}

        def partners(b, comp):
            return [self.partner(x, b) for x in range(self.module_count) if comp >> x & 1]

        joined = {
            (b, comp)
            for b, comps in comps_of.items()
            for comp in comps
            if any(not tmask >> y & 1 for _, y in partners(b, comp))
        }
        stack = list(joined)
        while stack:
            b, comp = stack.pop()
            for z, y in partners(b, comp):
                if tmask >> y & 1:
                    # no component holds a removed z: that partner gives no edge
                    other = next((c for c in comps_of[y] if c >> z & 1), None)
                    if other is not None and (y, other) not in joined:
                        joined.add((y, other))
                        stack.append((y, other))
        return len(joined) == sum(map(len, comps_of.values()))


@functools.lru_cache(maxsize=None)
def modular_checker(dim: Dim) -> ModularChecker:
    """The one ``ModularChecker`` per dimension.  Its state is a function of
    the dimension alone (the verified template, the kappa bound, and
    components keyed by removed inner mask), so every caller may share it."""
    return ModularChecker(dim)


class SurvivorCheck:
    """Is the graph minus a vertex set still connected?

    Oracle calls and probes on one dimension share its checker
    (``modular_checker``).  ``connected(removed)`` is true iff at least two
    vertices survive and they form one component; ``removed`` may repeat
    vertices.  With ``use_modular`` (the default), the module-decomposition
    checker decides connectivity where it applies (FDSC_n with n >= 8) and
    some module is intact; the plain component census answers everything
    else, every "disconnected" included.  ``use_modular=False`` forces the
    plain route, the reference the fast one is tested against.
    """

    def __init__(self, g: Graph, use_modular: bool = True):
        self.g = g
        applies = use_modular and g.variant == FDSC and g.dim.n >= 8
        self.checker = modular_checker(g.dim) if applies else None
        self.method = (
            "module-decomposition checker (preconditions verified at "
            "construction), plain search fallback"
            if self.checker is not None
            else "plain component search"
        )

    def connected(self, removed) -> bool:
        if self.checker is not None and self.checker.connected(footprint(removed, self.g.dim)):
            return True
        return not components_after_removal(self.g, removed).disconnected
