"""Independent references for the tests.

The adjacency rules work on label strings: they manipulate Python strings
by slicing, so they share no code path with the packed-integer arithmetic
under test.  ``ref_candidates`` is the candidate enumeration by memory: a
set of the vertex sets emitted so far.  ``ref_table`` derives the oracle's
sweep table from ``Star`` objects, one footprint per star and one reach
call per footprint pair.  ``fails_fast_test`` works the module checker's
fast test out from its ``reach`` masks.  Tests derive expected values from
these helpers (or freeze values computed by them) and compare against the
fast implementation.
"""

import itertools
from types import SimpleNamespace

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


def ref_table(stars, dim, checker, budget, kappa):
    """What the oracle's sweep table holds for ``stars``: ``footprints`` (one
    dict per star, by ``modcheck.footprint``), ``sizes`` and, when some
    level up to ``budget`` is not wholly pruned and there is a ``checker``,
    the bitsets ``smaller``, ``weak`` and ``touches`` (bit k for star k),
    with each star's weakest reach from one ``reach`` call per footprint
    pair.  The bitset attributes are None where the table builds none."""
    footprints = [footprint(s.vertices, dim) for s in stars]
    sizes = [sum(inner.bit_count() for inner in fp.values()) for fp in footprints]
    out = SimpleNamespace(footprints=footprints, sizes=sizes, smaller=None, weak=None, touches=None)
    if checker is None or budget * max(sizes, default=0) < kappa:
        return out
    widest = max(map(len, footprints), default=0)
    weak_cap = min((budget - 1) * widest, checker.module_count)
    weakest = []
    for fp in footprints:
        modules = sum(1 << b for b in fp)
        counts = [
            (r & ~modules).bit_count() for b, inner in fp.items() for r in checker.reach(b, inner)
        ]
        weakest.append(min(counts) if counts else 0)
    out.smaller = [_bits_below(sizes, s) for s in range(max(sizes, default=0) + 2)]
    out.weak = [_bits_below(weakest, w + 1) for w in range(weak_cap + 1)]
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
