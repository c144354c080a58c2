"""Independent references for the tests.

The adjacency rules work on label strings: they manipulate Python strings
by slicing, so they share no code path with the packed-integer arithmetic
under test.  ``ref_candidates`` is the candidate enumeration by memory: a
set of the vertex sets emitted so far.  ``ref_table`` derives the oracle's
sweep table from ``Star`` objects, one footprint per star, and its weak
candidates from ``smallest_component``, a census of the module template.
``fails_fast_test`` works the module checker's fast test out from its
``reach`` masks.  ``ref_quotient_census`` counts module pairs in a dict
keyed by pair tuples, over ``Graph.edges``.  Tests derive expected values from
these helpers (or freeze values computed by them) and compare against the
fast implementation.
"""

import itertools
from types import SimpleNamespace

from fdsc.graph import components_after_removal
from fdsc.modcheck import footprint


def ref_complement(text: str) -> str:
    return "".join("1" if ch == "0" else "0" for ch in text)


def ref_e1(text: str) -> str:
    return ref_complement(text[0]) + text[1:]


def ref_f(text: str) -> str:
    return text[0] + ref_complement(text[1]) + text[2:]


def ref_swap(text: str, k: int) -> str:
    p = len(text) // (2 ** k)
    m1, m2, m3 = text[:p], text[p : 2 * p], text[2 * p :]
    if m1 == m2:
        return ref_complement(m1) + ref_complement(m2) + m3
    return m2 + m1 + m3


def ref_neighbors(text: str, variant: str = "fdsc") -> set[str]:
    n = len(text)
    d = n.bit_length() - 1
    out = {ref_e1(text)}
    for k in range(1, d + 1):
        out.add(ref_swap(text, k))
    if variant == "fdsc":
        out.add(ref_f(text))
    return out


def all_labels(n: int) -> list[str]:
    return [format(v, f"0{n}b") for v in range(2 ** n)]


def ref_candidates(adj: list[list[int]], m: int, mode: str) -> list[tuple[int, frozenset]]:
    """(center, leaves) of every star with m leaves ("structure") or 0..m
    leaves (any other mode): centers ascending, leaf counts ascending, leaf
    combinations in row order, and a star dropped when an earlier one had
    the same vertex set."""
    sizes = (m,) if mode == "structure" else range(m + 1)
    seen, out = set(), []
    for center, nbrs in enumerate(adj):
        for j in sizes:
            for combo in itertools.combinations(nbrs, j):
                key = frozenset(combo) | {center}
                if key not in seen:
                    seen.add(key)
                    out.append((center, frozenset(combo)))
    return out


def fails_fast_test(checker, touched):
    """Whether some component of a touched module has no partner in an
    untouched module, so that ``connected`` must decide on the component
    graph: read from ``checker.reach``, not from ``reaches_core``."""
    tmask = sum(1 << b for b in touched)
    return any(not r & ~tmask for b, inner in touched.items() for r in checker.reach(b, inner))


def _bits_below(values, bound):
    return sum(1 << k for k, v in enumerate(values) if v < bound)


def smallest_component(checker, inner):
    """Labels in the smallest component of the checker's template once the
    inner labels of ``inner`` are removed, by a plain census; 0 when none
    is left."""
    removed = [x for x in range(checker.module_count) if inner >> x & 1]
    sizes = components_after_removal(checker.template, removed).component_sizes
    return sizes[-1] if sizes else 0


def ref_table(stars, dim, checker, budget, kappa):
    """What the oracle's sweep table holds for ``stars``: ``footprints`` (one
    dict per star, by ``modcheck.footprint``), ``sizes`` and, when some
    level up to ``budget`` is not wholly pruned and there is a ``checker``,
    the bitsets ``smaller``, ``weak`` and ``touches`` (bit k for star k).
    ``weak[w]`` holds the stars some component of which, in a module they
    touch, has at most w + (the number of modules they touch) labels, by
    ``smallest_component``.  The bitset attributes are None where the table
    builds none."""
    footprints = [footprint(s.vertices, dim) for s in stars]
    sizes = [sum(inner.bit_count() for inner in fp.values()) for fp in footprints]
    out = SimpleNamespace(footprints=footprints, sizes=sizes, smaller=None, weak=None, touches=None)
    if checker is None or budget * max(sizes, default=0) < kappa:
        return out
    widest = max(map(len, footprints), default=0)
    weak_cap = min((budget - 1) * widest, checker.module_count)
    least = {}  # removed inner mask -> its smallest component
    margins = []
    for fp in footprints:
        for inner in fp.values():
            if inner not in least:
                least[inner] = smallest_component(checker, inner)
        margins.append(min(least[inner] for inner in fp.values()) - len(fp))
    out.smaller = [_bits_below(sizes, s) for s in range(max(sizes, default=0) + 2)]
    out.weak = [_bits_below(margins, w + 1) for w in range(weak_cap + 1)]
    out.touches = [
        sum(1 << k for k, fp in enumerate(footprints) if b in fp)
        for b in range(checker.module_count)
    ] if budget > 1 else []
    return out


def ref_label_symmetry(table, labels, d, fmt):
    """(status, detail) of ``label-involutions`` and of
    ``label-degree-symmetry`` as two separate scans: maps in turn, then
    labels in turn.  ``fmt`` formats a label."""
    degree = d + 2
    maps = [("e1", 0), ("ef", d + 1)]
    maps += [(f"swap{k}", k - 1 if k > 1 else d) for k in range(1, d + 1)]

    def involutions():
        for name, i in maps:
            for u in labels:
                v = table[u][i]
                if v == u:
                    return "fail", f"{name} fixes {fmt(u)}"
                if table[v][i] != u:
                    return "fail", f"{name} is not an involution at {fmt(u)}"
        return "pass", None

    def symmetry():
        for u in labels:
            nbrs = table[u]
            distinct = set(nbrs)
            if len(nbrs) != degree or len(distinct) != degree:
                return "fail", f"{fmt(u)} has {len(distinct)} distinct neighbors, expected {degree}"
            if u in distinct:
                return "fail", f"{fmt(u)} adjacent to itself"
            for i, v in enumerate(nbrs):
                if table[v][i] != u:
                    return "fail", (
                        f"asymmetric edge {fmt(u)} -- {fmt(v)} at neighbor position {i}"
                    )
        return "pass", None

    return involutions(), symmetry()


def ref_quotient_census(g):
    """The module quotient of ``g`` counted over ``g.edges()`` into a dict
    (bi, bj) -> cross edges, bi < bj: ``multiplicities``, ``pair_count``,
    ``min_multiplicity``, ``max_multiplicity`` and ``complement_rule_holds``
    (2 exactly at complementary addresses, else 1), as plain values."""
    mask = g.dim.module_mask
    mult = {}
    for u, v in g.edges():
        bu, bv = u & mask, v & mask
        if bu == bv:
            continue
        key = (bu, bv) if bu < bv else (bv, bu)
        mult[key] = mult.get(key, 0) + 1
    values = mult.values()
    return SimpleNamespace(
        multiplicities=mult,
        pair_count=len(mult),
        min_multiplicity=min(values),
        max_multiplicity=max(values),
        complement_rule_holds=all(
            m == (2 if bj == bi ^ mask else 1) for (bi, bj), m in mult.items()
        ),
    )
