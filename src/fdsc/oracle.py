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
  ``prune_rule`` names the route that answered.  Applied to a whole size t,
  the same rule skips the level: if t times the largest element size is
  below the bound, every t-subset is counted examined and pruned without
  a visit;
* connectivity of the survivor graph is decided by the module
  decomposition checker (``modcheck``), whose preconditions are verified
  at construction.  The checker never answers "disconnected": it abstains
  only when every module is touched or the survivor graph is disconnected,
  and the plain component census confirms every subset it abstains on.
  So every disconnecting subset is found by the census, and where every
  swept subset leaves a module intact (as in each budget-2 sweep of
  FDSC_8, whose pairs hold at most 12 vertices in 16 modules), the census
  runs only on the hit.

Neither prune can skip a subset that actually disconnects, so certificates
and exact values are identical to the unpruned search.

A candidate is a *key*, not an object: its center plus a bitmask of leaf
positions in the center's row ``g.adj[center]``, held in flat arrays
(``_Keys``).  ``_candidate_keys`` generates them center by center and drops
a star whose vertex set an earlier center already covers by a per-position
rule, so no set of emitted vertex sets is kept.  ``Star`` objects are made
only where a caller sees them: by ``enumerate_candidates``, which
materializes the same keys, and for the certificate.

The sweep engine is a ``_SweepTable``, built once per call from the keys,
and ``_sweep``, a stateless function of the table, the family size and a
kappa bound.  The table's columns (sizes and bulk bitsets) are computed run
by run of equal centers, from facts about each center's row, with no
per-candidate object; a candidate's footprint (its vertex set split into
(module, inner mask) pairs, as ``modcheck.footprint`` splits it) is derived
from its key when the sweep first reads it, and kept.  The sweep merges
the footprints of each (t-1)-prefix once, reads a subset's union size as
the popcount sum of the merged masks, and hands the merged footprint to the
checker; the label list is built from the keys, only for the census.

Most extensions of a prefix touch no module the prefix touches, and for
those the checker's fast test (``ModularChecker.connected``: fewer than
all modules touched, and every component's reach mask meets an untouched
module) reads only facts about the prefix and about the extension alone.
So the sweep settles them in bulk, with bit operations on candidate-index
bitsets (``_SweepTable.split``): an extension is pruned when the two union
sizes add up to less than the bound, and proven when neither a reach mask
of the prefix nor one of the extension can fail.  An extension that
shares modules with the prefix is settled by the same rule
(``_SweepTable.overlap``) when neither its own reach nor a prefix mask of
a module it does not share can fail: only the shared modules' components
change, so it is pruned on |P| + |i| minus the overlap of the prefix's
merged mask and its own in each shared module, and proven when each
shared module c minus P_c | i_c passes the one per-module test that
``connected`` asks of every touched module
(``ModularChecker.reaches_core``).  Only the rest (weak extensions, those
a prefix mask of a module they do not share fails on, and those a shared
module of which fails) go to the checker, one merged footprint at a time,
which decides every one that leaves a module intact, and then to the
census; over the nine ``oracle-table-n8`` calls that is 267 queries.
Every skipped subset is one that ``connected`` proves, so the first census
hit, the certificate and the counts are those of asking the checker about
every subset.

Faults have one vocabulary, the ``FaultFamily``: a vertex is a 0-leaf
star and an edge a 1-leaf star, so a mix of vertex and edge removals is a
K_{1,1}-substructure family.  The exhaustive mixed removal check is
``exact_structure_connectivity(g, 1, SUBSTRUCTURE, budget)`` itself; the
sampled check and the probe report their violations as families.

The sampled removal check and both probe modes ask
``modcheck.SurvivorCheck.connected``, which owns the rule for when the
checker applies.  The family sweeps ask that checker directly, with merged
footprints, and run the plain census themselves on every subset it does
not prove connected.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from array import array
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
    if 2 <= m <= d + 1 or (m == d + 2 and mode == SUBSTRUCTURE):
        return d // 2 + 1
    return None


@dataclass(frozen=True)
class _Keys:
    """Candidate stars as keys in flat arrays: key k is the star with center
    ``centers[k]`` and a leaf at each set bit p of ``masks[k]``, bit p for
    position p of the center's row ``rows[centers[k]]``."""

    centers: array
    masks: list[int]
    rows: list[list[int]]

    def __len__(self) -> int:
        return len(self.masks)

    def vertices(self, k: int) -> list[int]:
        """Center and leaves of key k."""
        center = self.centers[k]
        row = self.rows[center]
        return [center, *(row[p] for p in _members(self.masks[k]))]

    def star(self, k: int) -> Star:
        center, *leaves = self.vertices(k)
        return Star(center=center, leaves=frozenset(leaves))


def _candidate_keys(g: Graph, m: int, mode: str) -> _Keys:
    """The keys of ``enumerate_candidates(g, m, mode)``, in its order.

    Another star with the vertex set S = L | {c} of (c, L) is (u, S - {u})
    for a u in S, earlier iff u < c (a leaf) and present iff S lies in the
    closed neighborhood N[u].  So per center c, each position p whose
    neighbor u is below c with c in N[u] gets the mask ``outside`` of the
    positions whose neighbors lie outside N[u], and a leaf mask is dropped
    iff it holds such a p and misses p's ``outside``: all its leaves lie in
    N[u].  No set of the emitted vertex sets is needed, and every center's
    masks are filtered from one list per row length.
    """
    if m < 0:
        raise ParameterError(f"pattern order must be >= 0, got {m}")
    if mode not in (STRUCTURE, SUBSTRUCTURE):
        raise ParameterError(f"mode must be structure|substructure, got {mode!r}")
    sizes = (m,) if mode == STRUCTURE else tuple(range(m + 1))
    ball = [{v, *nbrs} for v, nbrs in enumerate(g.adj)]  # closed neighborhoods
    every: dict[int, list[int]] = {}  # row length -> its masks in candidate order
    centers, masks = array("I"), []
    for center, row in enumerate(g.adj):
        kept = every.get(len(row))
        if kept is None:
            kept = every[len(row)] = [
                sum(1 << p for p in combo)
                for j in sizes
                for combo in itertools.combinations(range(len(row)), j)
            ]
        for p, u in enumerate(row):
            if u < center and center in ball[u]:
                outside = sum(1 << q for q, w in enumerate(row) if w not in ball[u])
                kept = [mask for mask in kept if not mask >> p & 1 or mask & outside]
        centers.fromlist([center] * len(kept))
        masks += kept
    return _Keys(centers, masks, g.adj)


def enumerate_candidates(g: Graph, m: int, mode: str) -> list[Star]:
    """Every candidate star of pattern order m, deduplicated by vertex set.

    Structure mode: all stars with exactly m leaves (every center, every
    m-subset of its neighbor row).  Substructure mode: all stars with 0..m
    leaves.  Order is deterministic: centers ascending, leaf counts
    ascending, leaf combinations lexicographic in row order; the first star
    with a given vertex set is kept.

    The stars are materialized from the keys the oracle sweeps
    (``_candidate_keys``: center plus leaf-position mask, deduplicated per
    position, with no set of emitted vertex sets), so both read one
    enumeration rule; the oracle itself makes a ``Star`` only for its
    certificate.
    """
    keys = _candidate_keys(g, m, mode)
    return [keys.star(k) for k in range(len(keys))]


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


def _bitset(digits) -> int:
    """The bitset whose bit k is set iff ``digits[k]`` is ``ord("1")``, every
    other entry being ``ord("0")``."""
    return int(digits[::-1], 2) if digits else 0


def _bits_below(values: bytes, bound: int) -> int:
    """Bitset of the positions k with ``values[k] < bound`` (bit k for
    position k)."""
    return _bitset(values.translate(bytes(0x31 if v < bound else 0x30 for v in range(256))))


def _members(bits: int):
    """The positions of the set bits of ``bits``, ascending."""
    digits = bin(bits)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _runs(centers):
    """(center, lo, hi) for each run of equal centers: keys lo..hi-1 share
    ``center``.  Keys need not be ordered, so a center may head several
    runs."""
    lo = 0
    for center, run in itertools.groupby(centers):
        hi = lo + len(list(run))
        yield center, lo, hi
        lo = hi


class _Positions(dict):
    """Leaf mask -> the tuple of its set bits, ascending, made on the first
    read."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        got = self[mask] = tuple(_members(mask))
        return got


class _SweepTable:
    """What ``_sweep`` reads about the candidates ``keys``, derived once per
    ``exact_structure_connectivity`` call for every family size up to
    ``budget`` and the bound ``kappa``, as columns over the candidate
    indices computed run by run of equal centers: each candidate's size
    and, with a ``checker``, candidate-index bitsets (bit k for candidate
    k) that settle a prefix's module-disjoint extensions in bulk and pick
    out the overlapping ones that ``overlap`` settles.  The checker is
    dropped, and no bitset built, when every level up to ``budget`` is
    wholly pruned.  A candidate's footprint, its vertex set split into
    (module, inner mask) pairs as ``modcheck.footprint`` splits it, is
    derived from its key when the sweep (``footprint``) or ``overlap``
    first reads it, and kept: the nine ``oracle-table-n8`` calls
    read 5,076 of their 35,136 candidates' footprints, and a call whose
    levels are wholly pruned, or that needs one level and proves it in
    bulk, reads none.  The table holds no ``Star``: the census reads its
    labels from the keys (``_Keys.vertices``), and only the certificate's
    stars are made.

    A key's size is 1 + the popcount of its leaf mask, because its row
    holds neither its center nor a repeated entry; the table checks that
    once per run and raises otherwise.  For candidate i with module set
    T_i: ``smaller[s]`` holds the candidates with fewer than s vertices,
    ``touches[b]`` those that touch module b (every run of a center in
    module b, and every candidate whose mask meets a row position in
    module b), and ``weak[w]`` those whose weakest reach min |R & ~T_i|,
    over the reach masks R of their own components, is at most w.  A
    candidate with no component left counts as weakest reach 0.  A
    prefix's module set T_P has at most min((budget - 1) * max|T_i|, M)
    modules, so no ``weak`` row past that cap is built, and ``touches``
    only when budget > 1.

    Only candidates with a small component get their weakest reach
    computed, from their footprint and one ``reach`` call per pair.  A
    component M of module b has the reach mask
    R = (M & ~(1 << b)) | (bit ~b, if b is in M), so R lacks b and
    |R| >= |M| - 1; since b is in T_i, |R & ~T_i| >= |R| - (|T_i| - 1)
    >= |M| - |T_i|.  So a candidate each of whose components has more than
    ``weak_cap`` + |T_i| labels is in no ``weak`` row.  The smallest
    component per removed inner mask is read from ``checker.components``
    once per distinct mask, into a dict that lives for the build.
    """

    def __init__(self, keys: _Keys, g: Graph, checker, budget: int, kappa: int):
        self.keys, self.g = keys, g
        self._footprints: dict[int, tuple[tuple[int, int], ...]] = {}
        self._positions = _Positions()
        runs = list(_runs(keys.centers))
        for center, _, _ in runs:
            row = keys.rows[center]
            if center in row or len(set(row)) < len(row):
                raise ValueError(f"the row of center {center} holds it or repeats an entry")
        self.sizes = sizes = bytes(map((1).__add__, map(int.bit_count, keys.masks)))
        self.checker = checker if budget * max(sizes, default=0) >= kappa else None
        if self.checker is None:
            return
        count, masks = len(keys), keys.masks
        half, module_mask = g.dim.half, g.dim.module_mask
        modules, components, touching = checker.module_count, checker.components, budget > 1
        positions = self._positions
        least: dict[int, int] = {}  # removed inner mask -> its smallest component, 0 with none
        spans: dict[int, list[tuple[int, int]]] = {}  # module -> runs of centers in it
        points: dict[int, list[int]] = {}  # module -> candidates with a leaf in it, if budget > 1
        # per candidate: its smallest component - |T_i|, or 0 if that is
        # negative; a byte, as a module has 2^(n/2) <= 256 labels for every n
        # whose graph can be built
        margin = bytearray()
        widest = 0
        for center, lo, hi in runs:
            row = keys.rows[center]
            home = center & module_mask
            inner_at = [1 << (v >> half) for v in row]
            away: dict[int, int] = {}  # module -> the row's positions in it
            for p, v in enumerate(row):
                away[v & module_mask] = away.get(v & module_mask, 0) | 1 << p
            # (module, its row positions, its inner labels every candidate
            # removes): the center's module, holding the center, then the rest
            parts = [(home, away.pop(home, 0), 1 << (center >> half))]
            parts += [(b, at, 0) for b, at in away.items()]
            spans.setdefault(home, []).append((lo, hi))
            for k in range(lo, hi):
                # every component has fewer labels than the module count
                mask, width, smallest = masks[k], 0, modules
                for b, at, inner in parts:
                    if mask & at or inner:  # a pair of candidate k's footprint
                        for p in positions[mask & at]:
                            inner |= inner_at[p]
                        size = least.get(inner)
                        if size is None:
                            size = least[inner] = min(map(int.bit_count, components(inner)), default=0)
                        if size < smallest:
                            smallest = size
                        width += 1
                        if touching and b != home:
                            points.setdefault(b, []).append(k)
                if width > widest:
                    widest = width
                margin.append(smallest - width if smallest > width else 0)
        self.full = (1 << count) - 1
        self.widest = widest
        self.reach = reach = checker.reach
        weak_cap = min((budget - 1) * widest, modules)
        weak_at: list[list[int]] = [[] for _ in range(weak_cap + 1)]
        for k in _members(_bits_below(margin, weak_cap + 1)):
            fp = self._derive(k)
            outside = -1
            for b, _ in fp:
                outside ^= 1 << b
            counts = [(r & outside).bit_count() for b, inner in fp for r in reach(b, inner)]
            weakest = min(counts, default=0)
            if weakest <= weak_cap:
                weak_at[weakest].append(k)
        digits = bytearray(b"0") * count
        self.weak = []
        for ks in weak_at:
            for k in ks:
                digits[k] = 0x31
            self.weak.append(_bitset(digits))
        self.smaller = [_bits_below(sizes, s) for s in range(max(sizes, default=0) + 2)]
        self.touches = []
        for b in range(modules if touching else 0):
            digits = bytearray(b"0") * count
            for lo, hi in spans.get(b, ()):
                digits[lo:hi] = b"1" * (hi - lo)
            for k in points.get(b, ()):
                digits[k] = 0x31
            self.touches.append(_bitset(digits))

    def _derive(self, k: int) -> tuple[tuple[int, int], ...]:
        """Candidate k's (module, inner mask) pairs, split from its key as
        ``modcheck.footprint`` splits labels: the center's pair first, then
        each further module in the order of the row."""
        keys, half, module_mask = self.keys, self.g.dim.half, self.g.dim.module_mask
        center = keys.centers[k]
        row = keys.rows[center]
        fp = {center & module_mask: 1 << (center >> half)}
        for p in self._positions[keys.masks[k]]:
            v = row[p]
            fp[v & module_mask] = fp.get(v & module_mask, 0) | 1 << (v >> half)
        return tuple(fp.items())

    def footprint(self, k: int) -> tuple[tuple[int, int], ...]:
        """Candidate k's footprint, derived on the first read and kept."""
        fp = self._footprints.get(k)
        if fp is None:
            fp = self._footprints[k] = self._derive(k)
        return fp

    def split(self, merged: dict[int, int], size: int, start: int, kappa: int):
        """(pruned, slow, route): of the candidates in [start, count) that
        extend the prefix with merged footprint ``merged`` and union size
        ``size``, the bitset of those that share no module with the prefix
        and that the union prune skips, the bitset of those that are weak or
        that a prefix reach mask of a module they do not share fails on,
        and the bitset of the other ones that share a module with the
        prefix, which ``overlap`` settles.  Every other candidate in the
        range gives a subset that ``ModularChecker.connected`` proves
        connected.  The three bitsets are disjoint."""
        window = self.full >> start << start
        touches = self.touches
        tmask = overlap = 0
        for b in merged:
            tmask |= 1 << b
            overlap |= touches[b]
        # disjoint modules mean disjoint vertices: the union size is a sum
        short = min(max(kappa - size, 0), len(self.smaller) - 1)
        pruned = window & ~overlap & self.smaller[short]
        # |T_P| + |T_i| >= M needs no test of its own: R & ~T_i then lies in
        # the M - |T_i| <= |T_P| modules outside T_i, so i is weak
        held = self.weak[len(merged)]
        # a reach mask R' = R & ~T_P of a prefix module b fails on exactly
        # the candidates that touch every module of R', which needs
        # |R'| <= max|T_i|; a candidate that shares b has module b's
        # components tested by ``overlap`` instead
        for b, removed in merged.items():
            for r in self.reach(b, removed):
                r &= ~tmask
                if r.bit_count() <= self.widest:
                    failing = self.full
                    for x in _members(r):
                        failing &= touches[x]
                    held |= failing & ~touches[b]
        rest = window & ~pruned
        return pruned, rest & held, rest & overlap & ~held

    def overlap(self, merged: dict[int, int], size: int, route: int, kappa: int):
        """(pruned, sent): of the extensions in ``split``'s ``route`` bitset
        (those that share a module with the prefix, are not weak, and fail
        no prefix mask of a module they do not share), the indices whose
        union size is below ``kappa``, and those some shared module of which
        the fast test cannot prove, each ascending.  Every other one gives a
        subset that ``ModularChecker.connected`` proves connected."""
        footprints, derive, sizes = self._footprints, self._derive, self.sizes
        reaches_core = self.checker.reaches_core
        # module -> the prefix's inner mask there, 0 where it touches none
        held_at = [0] * self.checker.module_count
        tmask = 0
        for b, held in merged.items():
            tmask |= 1 << b
            held_at[b] = held
        pruned, sent = [], []
        for i in _members(route):
            fp = footprints.get(i)
            if fp is None:
                fp = footprints[i] = derive(i)
            # the two vertex sets meet only in the shared modules
            union, touched = size + sizes[i], tmask
            for c, inner in fp:
                touched |= 1 << c
                union -= (held_at[c] & inner).bit_count()
            if union < kappa:
                pruned.append(i)
                continue
            for c, inner in fp:
                if held_at[c] and not reaches_core(c, held_at[c] | inner, touched):
                    sent.append(i)
                    break
        return pruned, sent


def _sweep(table: _SweepTable, t: int, kappa: int):
    """First size-t subset of the table's candidates (index tuple, lexicographic
    order) whose removal disconnects its graph, or None, with the counts of
    subsets examined and pruned.

    A subset's footprint is the merge of its members', and its removed-vertex
    union size is the popcount sum of the merged masks.  A union smaller
    than ``kappa``, a lower bound on vertex connectivity, is pruned; when t
    elements of the largest size cannot reach ``kappa``, the whole level is
    pruned without a visit.

    With a checker, the extensions i of each (t-1)-prefix P are split in
    bulk (``_SweepTable.split``).  The fast test of ``connected`` proves a
    subset iff its module set T = T_P | T_i misses a module and every
    component of every touched module has a reach mask R that meets ~T.
    Let S = T_P & T_i be the modules that i shares with P.

    The vertex sets meet only in S, so the union size is
    |P| + |i| - sum over c in S of |P_c & i_c|; with S empty that is the
    sum of the two sizes, and ``split`` prunes in bulk, otherwise
    ``_SweepTable.overlap`` prunes i when the union is below ``kappa``.
    Otherwise take the merged footprint module by module.  A module b of
    T_P outside S holds P's components alone; a reach mask R of one meets
    ~T unless i touches every module of R & ~T_P, which is that prefix
    mask failing on i.  A module of T_i outside S holds i's components
    alone, and one of their reach masks R can miss ~T only if
    |R & ~T_i| <= |T_P|, as T_P has |T_P| modules.  i is *weak* when some
    reach mask of its own components, in any module of T_i, has
    |R & ~T_i| <= |T_P|.  T misses a module unless i is weak: were
    |T_P| + |T_i| >= M, every reach mask of i would have
    |R & ~T_i| <= M - |T_i| <= |T_P|, or i keeps no component and is
    counted weak.  A module c of S holds the components of module c minus
    P_c | i_c, and the fast test asks of it the one per-module test
    ``ModularChecker.reaches_core`` that ``connected`` asks itself.  So
    when i is not weak and fails no prefix mask of a module outside S, the
    fast test passes iff ``reaches_core`` passes for every c in S, and then
    ``connected`` proves the subset: with S empty ``split`` proves i in
    bulk, and otherwise ``overlap`` asks each c in S.

    Every other extension is slow: those that are weak or fail a prefix
    mask of a module outside S, and those some shared module of which
    ``overlap`` cannot prove.  They go, in ascending order, through the
    per-subset route: union recount and merged footprint in one pass over
    the extension's pairs, the checker with the merged footprint, then the
    census with the label list.  No disconnecting subset is skipped,
    because every skipped subset is one that ``connected`` proves, and the
    first census hit is the same.  The counts stay exact: a hit at i has
    examined i - start + 1 extensions of its prefix, and pruned the slow
    prunes plus the bulk and overlap prunes below i.  Without a checker
    every extension is slow.
    """
    footprint = table.footprint
    count = len(table.keys)
    if t * max(table.sizes, default=0) < kappa:
        total = math.comb(count, t)
        return None, total, total
    proves = table.checker.connected if table.checker is not None else None
    examined = pruned = 0
    for prefix in itertools.combinations(range(count), t - 1):
        merged: dict[int, int] = {}
        for k in prefix:
            for b, inner in footprint(k):
                merged[b] = merged.get(b, 0) | inner
        size = sum(inner.bit_count() for inner in merged.values())
        start = prefix[-1] + 1 if prefix else 0
        if proves is None:
            bulk_pruned, route_pruned, slow = 0, (), range(start, count)
        else:
            bulk_pruned, bits, route = table.split(merged, size, start, kappa)
            route_pruned, sent = table.overlap(merged, size, route, kappa) if route else ((), ())
            slow = sorted([*_members(bits), *sent]) if sent else _members(bits)
        slow_pruned = 0
        for i in slow:
            union, touched = size, merged.copy()
            for b, inner in footprint(i):
                held = touched.get(b, 0)
                union += (inner & ~held).bit_count()
                touched[b] = held | inner
            if union < kappa:
                slow_pruned += 1
                continue
            if proves is not None and proves(touched):
                continue
            combo = (*prefix, i)
            removed = [v for k in combo for v in table.keys.vertices(k)]
            if components_after_removal(table.g, removed).disconnected:
                below = (bulk_pruned & ((1 << i) - 1)).bit_count()
                below += sum(j < i for j in route_pruned)
                return combo, examined + i - start + 1, pruned + slow_pruned + below
        examined += count - start
        pruned += slow_pruned + bulk_pruned.bit_count() + len(route_pruned)
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
    keys = _candidate_keys(g, m, mode)
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
    table = _SweepTable(keys, g, checker, size_budget, kappa)
    examined = pruned = 0
    certificate = None
    for t in range(1, size_budget + 1):
        hit, t_examined, t_pruned = _sweep(table, t, kappa)
        examined += t_examined
        pruned += t_pruned
        if hit is not None:
            certificate = FaultFamily([keys.star(i) for i in hit], pattern_m=m, mode=mode)
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
        candidates=len(keys),
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
