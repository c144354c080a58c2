"""Brute-force ground truth for star-pattern connectivity.

``exact_structure_connectivity`` searches family sizes t = 1, 2, ... over
all t-subsets of the candidate stars, in lexicographic candidate order,
and returns the first disconnecting family found; a completed size-t sweep
with no hit is an exhaustive proof that no t-element family disconnects.

Two sound prunes keep the big sweeps tractable, and both are recorded in
the result so a reviewer can audit the exhaustiveness argument:

* subsets whose removed-vertex union is smaller than the graph's exact
  vertex connectivity (computed by flow, independently of this search)
  cannot disconnect anything and are skipped;
* connectivity of the survivor graph is decided by the module
  decomposition checker (``modcheck``) whose preconditions are verified
  computationally at construction; any subset it cannot decide falls back
  to a plain component search.

Neither prune can skip a subset that actually disconnects, so certificates
and exact values are identical to the unpruned search.

``_FamilySearch`` is the one sweep engine: a vertex or an edge is a star
with at most one leaf, so the exhaustive mixed removal check is the
K_{1,1}-substructure oracle's sweep.

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
)
from .errors import ParameterError
from .graph import Graph, components_after_removal, vertex_connectivity
from .labels import FDSC
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
    dim_d: int
    dim_n: int
    pattern_m: int
    mode: str
    value: int | None
    proven_lower_bound: int
    certificate: FaultFamily | None
    candidates: int
    examined: int
    pruned: int
    connectivity_checks: int
    elapsed_ms: int
    notes: dict = field(default_factory=dict)

    def to_json(self, dim) -> dict:
        return {
            "n": self.dim_n,
            "d": self.dim_d,
            "m": self.pattern_m,
            "mode": self.mode,
            "value": self.value,
            "lower_bound": self.proven_lower_bound,
            "certificate": (
                family_to_json(self.certificate, dim) if self.certificate else None
            ),
            "candidates": self.candidates,
            "examined": self.examined,
            "pruned": self.pruned,
            "connectivity_checks": self.connectivity_checks,
            "elapsed_ms": self.elapsed_ms,
            "notes": self.notes,
        }


class _FamilySearch:
    """The one sweep over subsets of removal elements.

    Elements are given by their vertex tuples; the sweep iterates subsets
    of a fixed size in lexicographic index order and reports the first
    whose removal disconnects the graph (or leaves <= 1 vertex).
    """

    def __init__(self, g: Graph, vertex_sets: list[tuple[int, ...]], use_modular: bool = True):
        self.vertex_sets = vertex_sets
        self.masks = [self._mask(vs) for vs in vertex_sets]
        self.kappa = vertex_connectivity(g)
        self.survivors = SurvivorCheck(g, use_modular)
        self.examined = 0
        self.pruned = 0
        self.checks = 0

    @staticmethod
    def _mask(vs: tuple[int, ...]) -> int:
        m = 0
        for v in vs:
            m |= 1 << v
        return m

    def sweep(self, t: int) -> tuple[int, ...] | None:
        """First size-t subset (by index order) that disconnects, or None."""
        masks = self.masks
        if t == 0 or len(masks) < t:
            return None
        vertex_sets = self.vertex_sets
        connected = self.survivors.connected
        kappa = self.kappa
        examined = pruned = checks = 0
        hit = None
        for combo in itertools.combinations(range(len(masks)), t):
            examined += 1
            union = 0
            for i in combo:
                union |= masks[i]
            if union.bit_count() < kappa:
                pruned += 1
                continue
            checks += 1
            removed = []
            for i in combo:
                removed += vertex_sets[i]
            if not connected(removed):
                hit = combo
                break
        self.examined += examined
        self.pruned += pruned
        self.checks += checks
        return hit

    def notes(self) -> dict:
        return {
            "prune_rule": (
                "subsets with removed-vertex union smaller than the exact "
                f"vertex connectivity ({self.kappa}, computed by flow) cannot "
                "disconnect and are skipped"
            ),
            "connectivity_method": self.survivors.method,
        }


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
    search = _FamilySearch(g, [tuple(sorted(c.vertices)) for c in candidates], use_modular)
    value = None
    certificate = None
    lower = 1
    for t in range(1, size_budget + 1):
        hit = search.sweep(t)
        if hit is not None:
            family = FaultFamily(
                elements=[candidates[i] for i in hit], pattern_m=m, mode=mode
            )
            report = apply_cut(g, family)
            if not report.is_cut:
                raise AssertionError(
                    "search returned a family the plain census rejects; "
                    "connectivity routes disagree"
                )
            value = t
            certificate = family
            lower = t
            break
        lower = t + 1
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    notes = search.notes()
    if value is None:
        notes["budget_exhausted"] = True
    return OracleResult(
        dim_d=g.dim.d,
        dim_n=g.dim.n,
        pattern_m=m,
        mode=mode,
        value=value,
        proven_lower_bound=lower,
        certificate=certificate,
        candidates=len(candidates),
        examined=search.examined,
        pruned=search.pruned,
        connectivity_checks=search.checks,
        elapsed_ms=elapsed_ms,
        notes=notes,
    )


@dataclass(frozen=True)
class RemovalSpec:
    """A mixed removal: whole vertices plus both endpoints of edges."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_family(cls, family: FaultFamily) -> RemovalSpec:
        """A family of stars with at most one leaf as a mix: a 0-leaf star
        is its center, a 1-leaf star the edge (smaller label first)."""
        return cls(
            vertices=tuple(s.center for s in family.elements if not s.leaves),
            edges=tuple(tuple(sorted(s.vertices)) for s in family.elements if s.leaves),
        )

    def removed(self) -> set[int]:
        out = set(self.vertices)
        for u, v in self.edges:
            out.add(u)
            out.add(v)
        return out


@dataclass
class RemovalReport:
    """Verdict of a removal check: how many removals were ``checked`` (and
    how many of those a sound prune ``pruned``), and every one that broke
    the checked property.  The verdict ``holds`` iff none did."""

    budget: int
    mode: str
    checked: int
    pruned: int
    violations: list[RemovalSpec]
    seed: int | None = None
    generator: str | None = None
    notes: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return not self.violations


def check_vertex_edge_removals(
    g: Graph,
    budget_mode: str = "exhaustive",
    sample_count: int = 0,
    seed: int = 0,
    budget: int | None = None,
) -> RemovalReport:
    """Assert the graph stays connected after removing any mix of up to
    ``budget`` elements, each a single vertex or both endpoints of an edge.

    Default budget is d; a budget below 1 is refused.  Exhaustive mode is
    the K_{1,1}-substructure oracle at this budget: ``checked``/``pruned``
    are its ``examined``/``pruned``, and its certificate, the first
    disconnecting mix in its candidate order, is the one violation
    reported.  Sample mode draws ``sample_count`` mixes of exactly
    ``budget`` elements with a seeded generator and reports every
    disconnecting one.
    """
    if g.variant != FDSC:
        raise ParameterError("removal check is defined for the fdsc variant")
    if g.dim.d < 3:
        raise ParameterError("removal check needs d >= 3")
    if budget is None:
        budget = g.dim.d
    if budget_mode == "exhaustive":
        result = exact_structure_connectivity(g, 1, SUBSTRUCTURE, budget)
        cert = result.certificate
        return RemovalReport(
            budget=budget,
            mode=budget_mode,
            checked=result.examined,
            pruned=result.pruned,
            violations=[] if cert is None else [RemovalSpec.from_family(cert)],
            notes={k: v for k, v in result.notes.items() if k != "budget_exhausted"},
        )
    if budget_mode != "sample":
        raise ParameterError(f"budget_mode must be exhaustive|sample, got {budget_mode!r}")
    if sample_count < 1:
        raise ParameterError("sample mode needs sample_count >= 1")
    if budget < 1:
        raise ParameterError(f"budget must be >= 1, got {budget}")
    rng = random.Random(seed)
    edge_list = list(g.edges())
    survivors = SurvivorCheck(g)
    violations: list[RemovalSpec] = []
    for _ in range(sample_count):
        vertex_count = rng.randint(0, budget)
        edge_count = budget - vertex_count
        vertices = tuple(sorted(rng.sample(range(g.vertex_count), vertex_count)))
        edges = tuple(sorted(edge_list[i] for i in rng.sample(range(len(edge_list)), edge_count)))
        spec = RemovalSpec(vertices, edges)
        if not survivors.connected(spec.removed()):
            violations.append(spec)
    return RemovalReport(
        budget=budget,
        mode=budget_mode,
        checked=sample_count,
        pruned=0,
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
    report's budget is 2d-1 and nothing is pruned.  A disconnection whose
    smallest component has >= 2 vertices is a violation, reported as a
    vertex-only ``RemovalSpec``.
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
    violations: list[RemovalSpec] = []
    for removed in subsets:
        if survivors.connected(removed):
            continue
        census = components_after_removal(g, removed)
        if census.component_count >= 2 and census.component_sizes[-1] >= 2:
            violations.append(RemovalSpec(vertices=removed, edges=()))
    return RemovalReport(
        budget=limit,
        mode=budget_mode,
        checked=checked,
        pruned=0,
        violations=violations,
        seed=seed,
        generator=generator,
    )
