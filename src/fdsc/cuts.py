"""Star-shaped fault families and the explicit cut constructions.

A fault element is a star K_{1,j}: a center plus j leaves, every leaf
adjacent to the center.  A family is a list of stars with a pattern order
m and a mode:

* structure mode    -- every element has exactly m leaves;
* substructure mode -- every element has between 0 and m leaves.

Elements may overlap.  Stars are subgraphs, not induced subgraphs: only
center-leaf adjacency is required, extra leaf-leaf edges in the ambient
graph are irrelevant (removal semantics only see the vertex set).

Three constructions are provided, all pure label arithmetic:

* ``k1_cut``  -- the d+2 singletons on N(u); isolates u.
* ``k11_cut`` -- d+1 single edges covering N(u); isolates u.
* ``k1m_cut`` -- floor(d/2)+1 stars K_{1,m} covering N(u) for the module
  apex u = ~B.B (B with equal quarter-halves); isolates u.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError
from .graph import ComponentCensus, Graph, components_after_removal
from .labels import (
    FDSC,
    Dim,
    ModuleAddress,
    VertexLabel,
    complement_address,
    concat_halves,
    e1_neighbor,
    external_neighbor,
    f_neighbor,
    format_label,
    neighbor_set,
    parse_label,
)

STRUCTURE = "structure"
SUBSTRUCTURE = "substructure"
MODES = (STRUCTURE, SUBSTRUCTURE)


@dataclass(frozen=True)
class Star:
    center: VertexLabel
    leaves: frozenset[VertexLabel]

    @property
    def vertices(self) -> frozenset[VertexLabel]:
        return self.leaves | {self.center}

    def sorted_leaves(self) -> list[VertexLabel]:
        return sorted(self.leaves)


def star(center: VertexLabel, leaves=()) -> Star:
    return Star(center=center, leaves=frozenset(leaves))


@dataclass
class FaultFamily:
    elements: list[Star]
    pattern_m: int
    mode: str

    def __len__(self) -> int:
        return len(self.elements)

    def vertex_union(self) -> set[VertexLabel]:
        out: set[VertexLabel] = set()
        for el in self.elements:
            out |= el.vertices
        return out


@dataclass
class CutReport:
    removed_vertex_count: int
    census: ComponentCensus
    is_cut: bool
    isolated_target: VertexLabel | None


def k1_cut(u: VertexLabel, dim: Dim) -> FaultFamily:
    """The d+2 singleton stars on N(u); removing them isolates u."""
    elements = [star(v) for v in neighbor_set(u, dim, FDSC)]
    return FaultFamily(elements=elements, pattern_m=0, mode=STRUCTURE)


def k11_cut(u: VertexLabel, dim: Dim) -> FaultFamily:
    """d+1 single-edge stars whose union covers all d+2 neighbors of u.

    The element on u_1 pairs it with its cross-edge neighbor (pairing with
    its own 1-neighbor would remove u itself); every other u_j is paired
    with its 1-neighbor.  The j = d element automatically covers the
    folded neighbor, since flipping s_1 of u_d yields u_f.
    """
    if dim.d < 2:
        raise ParameterError(
            "the single-edge construction needs d >= 2; for d = 1 use the "
            "brute-force oracle (the exact value there is 2)"
        )
    u1 = e1_neighbor(u, dim)
    elements = [star(u1, [external_neighbor(u1, dim)])]
    for uj in neighbor_set(u, dim)[1 : dim.d + 1]:
        elements.append(star(uj, [e1_neighbor(uj, dim)]))
    return FaultFamily(elements=elements, pattern_m=1, mode=STRUCTURE)


def _self_similar(value: int, width: int) -> bool:
    """True when every recursive split of the string has equal or
    complementary halves (global complement preserves the property, so
    checking one half per level suffices)."""
    while width > 1:
        half = width // 2
        mask = (1 << half) - 1
        top, low = value >> half, value & mask
        if top != low and top != low ^ mask:
            return False
        value, width = low, half
    return True


def balanced_module_addresses(dim: Dim) -> list[int]:
    """All module addresses the K_{1,m} construction accepts: equal halves,
    each half self-similar at every split level."""
    quarter = dim.n // 4
    return [
        (q << quarter) | q
        for q in range(1 << quarter)
        if _self_similar(q, quarter)
    ]


def _fillers(
    center: VertexLabel, named: list[VertexLabel], count: int, dim: Dim
) -> list[VertexLabel]:
    """Pad a star to m leaves: smallest remaining neighbors of the center,
    excluding the named leaves and the center's folded neighbor."""
    if count == 0:
        return []
    excluded = set(named)
    excluded.add(f_neighbor(center, dim))
    pool = sorted(v for v in neighbor_set(center, dim, FDSC) if v not in excluded)
    if len(pool) < count:
        raise AssertionError(
            f"star at {format_label(center, dim)} has only {len(pool)} "
            f"filler candidates, needs {count}"
        )
    return pool[:count]


def k1m_cut(
    dim: Dim, m: int, b1: ModuleAddress | None = None
) -> tuple[FaultFamily, VertexLabel]:
    """A K_{1,m}-family of floor(d/2)+1 stars isolating u = ~B1.B1.

    Requires 2 <= m <= d+1 and a module address B1 with equal halves whose
    half is self-similar at every split level (halves equal or
    complementary all the way down).  The top-level equality makes u's
    level-2 swap hit the module apex B1.B1, which the construction pivots
    on; the deeper levels make each intermediate star's two construction
    leaves genuinely adjacent to its center.  Both requirements were
    confirmed exhaustively at label level for d up to 6: outside this
    address family some star of the returned shape is not a star.
    Defaults to the all-zero address.

    Each star carries two construction leaves and m-2 fillers; filler
    choice is deterministic (smallest label first, skipping the named
    leaves and the center's folded neighbor).
    """
    if dim.n < 4:
        raise ParameterError("the K_{1,m} construction needs n >= 4")
    if not 2 <= m <= dim.d + 1:
        raise ParameterError(f"m must be in [2..{dim.d + 1}] for d={dim.d}, got {m}")
    if b1 is None:
        b1 = 0
    if not 0 <= b1 <= dim.module_mask:
        raise ParameterError(f"module address {b1} out of range for n={dim.n}")
    quarter = dim.n // 4
    qmask = (1 << quarter) - 1
    if (b1 >> quarter) != (b1 & qmask) or not _self_similar(b1 & qmask, quarter):
        raise ParameterError(
            f"module address {format(b1, f'0{dim.half}b')} must have equal "
            f"halves, each self-similar at every split (halves equal or "
            f"complementary all the way down); otherwise the construction's "
            f"intermediate stars degenerate"
        )

    u = concat_halves(complement_address(b1, dim), b1, dim)
    d = dim.d

    def nbr(v, j):
        return neighbor_set(v, dim)[j - 1]

    raw: list[tuple[VertexLabel, list[VertexLabel]]] = []
    if d % 2 == 1:
        u2 = nbr(u, 2)
        raw.append((nbr(u2, d + 1), [u2, nbr(u, d + 1)]))
        for j in range(4, d, 2):
            uj = nbr(u, j)
            raw.append((nbr(uj, j - 1), [uj, nbr(u, j - 1)]))
        raw.append((f_neighbor(u, dim), [nbr(u, 1), nbr(u, d)]))
    else:
        for j in range(3, d, 2):
            uj = nbr(u, j)
            raw.append((nbr(uj, j - 1), [uj, nbr(u, j - 1)]))
        ext1 = nbr(nbr(u, d + 1), 1)
        raw.append((ext1, [nbr(u, d + 1), nbr(ext1, d)]))
        raw.append((f_neighbor(u, dim), [nbr(u, 1), nbr(u, d)]))

    elements = [
        star(center, named + _fillers(center, named, m - 2, dim))
        for center, named in raw
    ]
    return FaultFamily(elements=elements, pattern_m=m, mode=STRUCTURE), u


def validate_family(
    fam: FaultFamily, dim: Dim, variant: str = FDSC
) -> tuple[bool, str | None]:
    """Check star and mode invariants against label-level adjacency.

    Returns (True, None) or (False, description of the first violation).
    No graph is materialized.
    """
    if fam.mode not in MODES:
        return False, f"unknown mode {fam.mode!r}"
    if fam.pattern_m < 0:
        return False, f"pattern order must be >= 0, got {fam.pattern_m}"
    for i, el in enumerate(fam.elements):
        if el.center in el.leaves:
            return False, f"element {i}: center {format_label(el.center, dim)} is its own leaf"
        if fam.mode == STRUCTURE and len(el.leaves) != fam.pattern_m:
            return False, (
                f"element {i}: structure mode needs exactly {fam.pattern_m} "
                f"leaves, got {len(el.leaves)}"
            )
        if fam.mode == SUBSTRUCTURE and len(el.leaves) > fam.pattern_m:
            return False, (
                f"element {i}: substructure mode allows at most {fam.pattern_m} "
                f"leaves, got {len(el.leaves)}"
            )
        nbrs = set(neighbor_set(el.center, dim, variant))
        for leaf in el.sorted_leaves():
            if leaf not in nbrs:
                return False, (
                    f"element {i}: leaf {format_label(leaf, dim)} is not "
                    f"adjacent to center {format_label(el.center, dim)}"
                )
    return True, None


def apply_cut(g: Graph, fam: FaultFamily) -> CutReport:
    """Remove the family's vertex union and report the component census."""
    removed = fam.vertex_union()
    census = components_after_removal(g, removed)
    isolated = None
    if census.component_sizes and census.component_sizes[-1] == 1:
        isolated = census.smallest_component_root
    return CutReport(
        removed_vertex_count=len(removed),
        census=census,
        is_cut=census.disconnected,
        isolated_target=isolated,
    )


def family_to_json(fam: FaultFamily, dim: Dim) -> dict:
    return {
        "mode": fam.mode,
        "m": fam.pattern_m,
        "elements": [
            {
                "center": format_label(el.center, dim),
                "leaves": [format_label(v, dim) for v in el.sorted_leaves()],
            }
            for el in fam.elements
        ],
    }


def family_from_json(obj: dict, dim: Dim) -> FaultFamily:
    """Read a family in the shape ``family_to_json`` writes.

    Only the keys ``mode``, ``m``, ``elements`` (top level) and ``center``,
    ``leaves`` (per element) are accepted, ``elements`` and ``leaves`` must
    be lists, and every label a string, so a misspelled key, a string of
    leaves or a list of digits is refused instead of silently describing
    another family.
    """
    try:
        mode = obj["mode"]
        m = obj["m"]
        raw_elements = obj["elements"]
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"malformed family JSON: {exc}") from exc
    _refuse_unknown_keys(obj, ("mode", "m", "elements"))
    if not isinstance(m, int) or isinstance(m, bool):
        raise ParameterError(f"malformed family JSON: m must be an integer, got {m!r}")
    if mode not in MODES:
        raise ParameterError(f"family mode must be one of {MODES}, got {mode!r}")
    if not isinstance(raw_elements, list):
        raise ParameterError(
            f"malformed family JSON: elements must be a list, got {raw_elements!r}"
        )
    elements = []
    for entry in raw_elements:
        if not isinstance(entry, dict):
            raise ParameterError(f"malformed family JSON: element {entry!r} is not an object")
        _refuse_unknown_keys(entry, ("center", "leaves"))
        raw_leaves = entry.get("leaves", [])
        if not isinstance(raw_leaves, list):
            raise ParameterError(
                f"malformed family JSON: leaves must be a list, got {raw_leaves!r}"
            )
        try:
            texts = [entry["center"], *raw_leaves]
        except KeyError as exc:
            raise ParameterError(f"malformed family JSON: {exc}") from exc
        for text in texts:
            if not isinstance(text, str):
                raise ParameterError(f"malformed family JSON: label {text!r} is not a string")
        center, *leaves = [parse_label(text, dim) for text in texts]
        elements.append(star(center, leaves))
    return FaultFamily(elements=elements, pattern_m=m, mode=mode)


def _refuse_unknown_keys(obj: dict, allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ParameterError(
            f"malformed family JSON: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"expected only {', '.join(allowed)}"
        )
