"""Brute-force ground truth for star-pattern connectivity.

``exact_structure_connectivity`` searches family sizes t = 1, 2, ... over
all t-subsets of the candidate stars, in lexicographic candidate order,
and returns the first disconnecting family found; a completed size-t sweep
with no hit is an exhaustive proof that no t-element family disconnects.

Two sound prunes keep the big sweeps tractable, and both are recorded in
the result so a reviewer can audit the exhaustiveness argument:

* subsets whose removed-vertex union is smaller than a proven lower bound
  on the graph's vertex connectivity cannot disconnect anything and are
  skipped.  Where the module-decomposition checker applies (FDSC_n with
  n >= 8), the bound is ``modcheck.module_induction_bound``: kappa of the
  half-width template, by flow on the template, plus one, which equals
  the minimum degree and so is exact at n = 8 and n = 16.  Everywhere
  else (DSC_n, n <= 4, ``use_modular=False``) the exact value is computed
  by flow on the whole graph, independently of this search.  The report's
  ``prune_rule`` names the route that answered;
* connectivity of the survivor graph is proved by the module
  decomposition checker (``modcheck``), whose preconditions are verified
  at construction.  The checker only proves connectivity, so any subset it
  does not prove connected, and so every disconnecting subset, is found by
  the plain component census.

Neither prune can skip a subset that actually disconnects, so certificates
and exact values are identical to the unpruned search.

``_sweep`` is the one sweep engine, a stateless function of the element
vertex sets, the family size and a kappa bound.

Faults have one vocabulary, the ``FaultFamily``: a vertex is a 0-leaf
star and an edge a 1-leaf star, so a mix of vertex and edge removals is a
K_{1,1}-substructure family.  The exhaustive mixed removal check is
``exact_structure_connectivity(g, 1, SUBSTRUCTURE, budget)`` itself; the
sampled check and the probe report their violations as families.

Every survivor question here (the family sweeps, the sampled removal check
and both probe modes) goes through one entry point,
``modcheck.SurvivorCheck``, which owns the rule for when the checker
applies and the census fallback.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field

from .cuts import (
    STRUCTURE,
    SUBSTRUCTURE,
    FaultFamily,
    Star,
    apply_cut,
    family_to_json,
    star,
)
from .errors import ParameterError
from .graph import Graph, components_after_removal, vertex_connectivity
from .labels import FDSC, Dim
from .modcheck import SurvivorCheck

GENERATOR_ID = "python-random-mt19937"


def reference_value(d: int, m: int, mode: str) -> int | None:
    """Published exact star-pattern connectivity of FDSC_n, where known.

    K_1 patterns: d+2.  Single edges: 2 for d in {1,2}, d+1 beyond.  Stars
    with 2 <= m <= d+1 leaves: floor(d/2)+1 (both modes); substructure
    additionally keeps that value at m = d+2.  Returns None outside the
    known range.
    """
    if m == 0:
        return d + 2
    if m == 1:
        return 2 if d <= 2 else d + 1
    if 2 <= m <= d + 1:
        return d // 2 + 1
    if m == d + 2 and mode == SUBSTRUCTURE:
        return d // 2 + 1
    return None


def enumerate_candidates(g: Graph, m: int, mode: str) -> list[Star]:
    """Every candidate star of pattern order m, deduplicated by vertex set.

    Structure mode: all stars with exactly m leaves (every center, every
    m-subset of its sorted neighbor list).  Substructure mode: all stars
    with 0..m leaves.  Order is deterministic: centers ascending, leaf
    counts ascending, leaf combinations lexicographic; the first star with
    a given vertex set is kept.
    """
    if m < 0:
        raise ParameterError(f"pattern order must be >= 0, got {m}")
    if mode not in (STRUCTURE, SUBSTRUCTURE):
        raise ParameterError(f"mode must be structure|substructure, got {mode!r}")
    sizes = (m,) if mode == STRUCTURE else tuple(range(m + 1))
    seen: set[frozenset[int]] = set()
    out: list[Star] = []
    for center in range(g.vertex_count):
        nbrs = g.adj[center]
        for j in sizes:
            for combo in itertools.combinations(nbrs, j):
                key = frozenset(combo) | {center}
                if key in seen:
                    continue
                seen.add(key)
                out.append(Star(center=center, leaves=frozenset(combo)))
    return out


@dataclass
class OracleResult:
    dim: Dim
    pattern_m: int
    mode: str
    value: int | None
    proven_lower_bound: int
    certificate: FaultFamily | None
    candidates: int
    examined: int
    pruned: int
    elapsed_ms: int
    notes: dict = field(default_factory=dict)

    @property
    def connectivity_checks(self) -> int:
        """Survivor graphs checked: every examined subset not pruned."""
        return self.examined - self.pruned

    def to_json(self) -> dict:
        return {
            "n": self.dim.n,
            "d": self.dim.d,
            "m": self.pattern_m,
            "mode": self.mode,
            "value": self.value,
            "lower_bound": self.proven_lower_bound,
            "certificate": (
                family_to_json(self.certificate, self.dim) if self.certificate else None
            ),
            "candidates": self.candidates,
            "examined": self.examined,
            "pruned": self.pruned,
            "connectivity_checks": self.connectivity_checks,
            "elapsed_ms": self.elapsed_ms,
            "notes": self.notes,
        }


def _sweep(vertex_sets: list[tuple[int, ...]], t: int, kappa: int, connected):
    """First size-t subset of the elements (vertex tuples, lexicographic
    index order) whose removal makes ``connected`` false, or None, with the
    counts of subsets examined and pruned; a removed-vertex union smaller
    than ``kappa``, a lower bound on vertex connectivity, is pruned."""
    masks = [sum(1 << v for v in vs) for vs in vertex_sets]
    examined = pruned = 0
    for combo in itertools.combinations(range(len(masks)), t):
        examined += 1
        union = 0
        for i in combo:
            union |= masks[i]
        if union.bit_count() < kappa:
            pruned += 1
            continue
        removed = []
        for i in combo:
            removed += vertex_sets[i]
        if not connected(removed):
            return combo, examined, pruned
    return None, examined, pruned


def exact_structure_connectivity(
    g: Graph, m: int, mode: str, size_budget: int, use_modular: bool = True
) -> OracleResult:
    """Exact pattern connectivity by exhaustive family search.

    Searches t = 1..size_budget; when a disconnecting family is found the
    exact value is t and the family is returned as certificate (re-checked
    with a plain component census).  Otherwise every subset within budget
    is exhausted and size_budget + 1 is a proven lower bound.
    """
    if size_budget < 1:
        raise ParameterError(f"size budget must be >= 1, got {size_budget}")
    start = time.perf_counter()
    candidates = enumerate_candidates(g, m, mode)
    vertex_sets = [tuple(sorted(c.vertices)) for c in candidates]
    survivors = SurvivorCheck(g, use_modular)
    checker = survivors.checker
    if checker is not None and checker.kappa_lower_bound is not None:
        kappa = checker.kappa_lower_bound
        route = (
            f"module induction: kappa(FDSC_{checker.half}) + 1 by flow on the "
            "template, preconditions verified"
        )
        # the minimum degree is an upper bound, so meeting it is exact
        exact = kappa == min(map(len, g.adj))
        if exact:
            route += ", equals the minimum degree"
    else:
        kappa = vertex_connectivity(g)
        route, exact = "computed by flow", True
    examined = pruned = 0
    certificate = None
    for t in range(1, size_budget + 1):
        hit, t_examined, t_pruned = _sweep(vertex_sets, t, kappa, survivors.connected)
        examined += t_examined
        pruned += t_pruned
        if hit is not None:
            certificate = FaultFamily([candidates[i] for i in hit], pattern_m=m, mode=mode)
            if not apply_cut(g, certificate).is_cut:
                raise AssertionError("the plain census rejects the sweep's certificate")
            break
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    notes = {
        "prune_rule": (
            "subsets with removed-vertex union smaller than the "
            + ("exact vertex connectivity" if exact else "proven vertex-connectivity lower bound")
            + f" ({kappa}, {route}) cannot disconnect and are skipped"
        ),
        "connectivity_method": survivors.method,
    }
    if certificate is None:
        notes["budget_exhausted"] = True
    value = None if certificate is None else len(certificate)
    return OracleResult(
        dim=g.dim,
        pattern_m=m,
        mode=mode,
        value=value,
        proven_lower_bound=size_budget + 1 if value is None else value,
        certificate=certificate,
        candidates=len(candidates),
        examined=examined,
        pruned=pruned,
        elapsed_ms=elapsed_ms,
        notes=notes,
    )


@dataclass
class RemovalReport:
    """Verdict of a removal check: how many removals were ``checked``, and
    every one that broke the checked property, as a fault family.  The
    verdict ``holds`` iff none did."""

    budget: int
    mode: str
    checked: int
    violations: list[FaultFamily]
    seed: int | None = None
    generator: str | None = None
    notes: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return not self.violations


def check_vertex_edge_removals(
    g: Graph, sample_count: int, seed: int = 0, budget: int | None = None
) -> RemovalReport:
    """Sample mixes of exactly ``budget`` elements, each a single vertex or
    both endpoints of an edge, and report every one that disconnects.

    Default budget is d; a budget below 1 or above the vertex count is
    refused.  A mix is a K_{1,1}-substructure family: a vertex is a 0-leaf
    star, an edge a 1-leaf star centered on its smaller label.  The
    exhaustive form of this check is
    ``exact_structure_connectivity(g, 1, SUBSTRUCTURE, budget)``.
    """
    if g.variant != FDSC:
        raise ParameterError("removal check is defined for the fdsc variant")
    if g.dim.d < 3:
        raise ParameterError("removal check needs d >= 3")
    if budget is None:
        budget = g.dim.d
    if sample_count < 1:
        raise ParameterError(f"sample_count must be >= 1, got {sample_count}")
    if budget < 1:
        raise ParameterError(f"budget must be >= 1, got {budget}")
    if budget > g.vertex_count:
        raise ParameterError(f"budget must be <= the vertex count {g.vertex_count}, got {budget}")
    rng = random.Random(seed)
    edge_list = list(g.edges())
    survivors = SurvivorCheck(g)
    violations: list[FaultFamily] = []
    for _ in range(sample_count):
        vertex_count = rng.randint(0, budget)
        edge_count = budget - vertex_count
        vertices = sorted(rng.sample(range(g.vertex_count), vertex_count))
        edges = sorted(edge_list[i] for i in rng.sample(range(len(edge_list)), edge_count))
        family = FaultFamily(
            [star(v) for v in vertices] + [star(u, [v]) for u, v in edges],
            pattern_m=1,
            mode=SUBSTRUCTURE,
        )
        if not survivors.connected(family.vertex_union()):
            violations.append(family)
    return RemovalReport(
        budget=budget,
        mode="sample",
        checked=sample_count,
        violations=violations,
        seed=seed,
        generator=GENERATOR_ID,
        notes={
            "sampling": (
                "element count fixed at the budget; vertex/edge split and "
                "members drawn uniformly with the seeded generator"
            ),
            "connectivity_method": survivors.method,
        },
    )


_PROBE_EXHAUSTIVE_LIMIT = 10_000_000


def super_cut_probe(
    g: Graph, budget_mode: str = "exhaustive", sample_count: int = 0, seed: int = 0
) -> RemovalReport:
    """Probe: removing fewer than 2d vertices never disconnects the graph
    without isolating a vertex.

    Exhaustive mode checks every vertex subset of size <= 2d-1 (feasible at
    n = 4 only); sample mode draws subsets of size exactly 2d-1.  The
    report's budget is 2d-1.  A disconnection whose smallest component has
    >= 2 vertices is a violation, reported as a family of 0-leaf stars.
    """
    limit = 2 * g.dim.d - 1
    vertices = range(g.vertex_count)
    if budget_mode == "exhaustive":
        checked = sum(math.comb(g.vertex_count, size) for size in range(1, limit + 1))
        if checked > _PROBE_EXHAUSTIVE_LIMIT:
            raise ParameterError(
                f"exhaustive probe would visit {checked} subsets; use sample mode"
            )
        subsets = (
            removed
            for size in range(1, limit + 1)
            for removed in itertools.combinations(vertices, size)
        )
        seed, generator = None, None
    elif budget_mode == "sample":
        if sample_count < 1:
            raise ParameterError("sample mode needs sample_count >= 1")
        rng = random.Random(seed)
        subsets = (tuple(sorted(rng.sample(vertices, limit))) for _ in range(sample_count))
        checked, generator = sample_count, GENERATOR_ID
    else:
        raise ParameterError(f"budget_mode must be exhaustive|sample, got {budget_mode!r}")
    survivors = SurvivorCheck(g)
    violations: list[FaultFamily] = []
    for removed in subsets:
        if survivors.connected(removed):
            continue
        census = components_after_removal(g, removed)
        if census.component_count >= 2 and census.component_sizes[-1] >= 2:
            violations.append(FaultFamily([star(v) for v in removed], pattern_m=0, mode=STRUCTURE))
    return RemovalReport(
        budget=limit,
        mode=budget_mode,
        checked=checked,
        violations=violations,
        seed=seed,
        generator=generator,
        notes={"connectivity_method": survivors.method},
    )
