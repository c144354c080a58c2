"""Independent references for the tests.

The adjacency rules work on label strings: they manipulate Python strings
by slicing, so they share no code path with the packed-integer arithmetic
under test.  ``ref_candidates`` is the candidate enumeration by memory: a
set of the vertex sets emitted so far.  Tests derive expected values from
these helpers (or freeze values computed by them) and compare against the
fast implementation.
"""

import itertools


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
