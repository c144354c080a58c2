"""Bit-string arithmetic for divide-and-swap cube vertex labels.

A vertex of DSC_n / FDSC_n (n = 2^d) is an n-bit string s_1 s_2 ... s_n.
Everywhere in this package a label is held as a plain ``int`` with the
convention that **s_1 is the most significant bit** of the n-bit field, so
slicing the label into contiguous runs of leading bits is plain shift/mask
arithmetic.  Labels are pure values; every function here is side-effect
free and no graph is ever materialized.

The adjacency rules:

* ``e1_neighbor``     -- complement s_1.
* ``f_neighbor``      -- complement s_2 (the folded edge; FDSC only).
* ``swap_neighbor``   -- for a swap level k in [1..d], split the label as
  m1 m2 m3 with |m1| = |m2| = n / 2^k; complement m1 and m2 when they are
  equal, otherwise exchange them.  Level k = 1 is the unique cross edge
  leaving a module ("external"), levels 2..d stay inside a module.

Every one of these maps is a fixed-point-free involution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import LabelParseError, ParameterError

# A vertex label: unsigned n-bit value, s_1 in the most significant bit.
VertexLabel = int
# The rightmost n/2 bits of a label: which module the vertex lives in.
ModuleAddress = int

MAX_LABEL_BITS = 64

FDSC = "fdsc"
DSC = "dsc"
VARIANTS = (FDSC, DSC)


@dataclass(frozen=True)
class Dim:
    """Dimension pair: exponent d and label width n = 2^d."""

    d: int
    n: int

    @property
    def half(self) -> int:
        return self.n // 2

    @property
    def module_mask(self) -> int:
        return (1 << self.half) - 1


def make_dim(d: int) -> Dim:
    """Validate d and derive the label width n = 2^d (capped at 64 bits)."""
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    n = 1 << d
    if n > MAX_LABEL_BITS:
        raise ParameterError(
            f"d={d} gives n={n} bits; labels are capped at n <= {MAX_LABEL_BITS} (d <= 6)"
        )
    return Dim(d=d, n=n)


def check_label(u: VertexLabel, dim: Dim) -> None:
    if not 0 <= u < (1 << dim.n):
        raise ParameterError(f"label {u} out of range for n={dim.n}")


def e1_neighbor(u: VertexLabel, dim: Dim) -> VertexLabel:
    """Complement s_1."""
    return u ^ (1 << (dim.n - 1))


def f_neighbor(u: VertexLabel, dim: Dim) -> VertexLabel:
    """Complement s_2 (the folded edge)."""
    return u ^ (1 << (dim.n - 2))


def swap_neighbor(u: VertexLabel, k: int, dim: Dim) -> VertexLabel:
    """Level-k swap: split u = m1 m2 m3 with |m1| = |m2| = n/2^k.

    Returns complement(m1) complement(m2) m3 when m1 == m2, else m2 m1 m3.
    """
    if not 1 <= k <= dim.d:
        raise ParameterError(f"swap level k must be in [1..{dim.d}], got {k}")
    return _swap(u, dim.n, dim.n >> k)


def _swap(u: VertexLabel, n: int, p: int) -> VertexLabel:
    """The swap of the two leading p-bit runs of the n-bit label u.

    The runs m1 (at shift n-p) and m2 (at n-2p) are XORed with m1 ^ m2,
    which exchanges them, or, when that is 0, with the all-ones mask,
    which complements both.
    """
    s1, s2 = n - p, n - 2 * p
    mask = (1 << p) - 1
    return u ^ ((((u >> s1) ^ (u >> s2)) & mask or mask) * ((1 << s1) | (1 << s2)))


@functools.cache
def _swap_levels(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """``_swap``'s (s1, s2, mask, multiplier) at width n, in ``neighbor_set``
    order: levels 2..d, then level 1."""
    d = n.bit_length() - 1
    out = []
    for p in [n >> k for k in range(2, d + 1)] + [n >> 1]:
        s1, s2 = n - p, n - 2 * p
        out.append((s1, s2, (1 << p) - 1, (1 << s1) | (1 << s2)))
    return tuple(out)


def external_neighbor(u: VertexLabel, dim: Dim) -> VertexLabel:
    """The unique neighbor outside u's module (the level-1 swap)."""
    return swap_neighbor(u, 1, dim)


def neighbor_set(u: VertexLabel, dim: Dim, variant: str = FDSC) -> list[VertexLabel]:
    """All neighbors of u; a neighbor's position is the kind of its edge.

    Position 0 is u_1 (flip s_1), position k-1 the level-k swap for
    k = 2..d, position d the cross edge (level-1 swap), and position d+1
    (FDSC only) the folded neighbor u_f.  Every map is an involution, so
    v = neighbor_set(u)[i] exactly when u = neighbor_set(v)[i].  Degree is
    d+2 for FDSC and d+1 for DSC.
    """
    if variant not in VARIANTS:
        raise ParameterError(f"variant must be one of {VARIANTS}, got {variant!r}")
    n = dim.n
    out = [u ^ (1 << (n - 1))]
    for s1, s2, mask, mult in _swap_levels(n):
        out.append(u ^ ((((u >> s1) ^ (u >> s2)) & mask or mask) * mult))
    if variant == FDSC:
        out.append(u ^ (1 << (n - 2)))
    return out


def module_address(u: VertexLabel, dim: Dim) -> ModuleAddress:
    """The rightmost n/2 bits: address of the module containing u."""
    return u & dim.module_mask


def inner_address(u: VertexLabel, dim: Dim) -> int:
    """The leftmost n/2 bits: address of u inside its module."""
    return u >> dim.half


def concat_halves(a: int, b: ModuleAddress, dim: Dim) -> VertexLabel:
    """Assemble the label a . b from upper half a and module address b."""
    return (a << dim.half) | b


def complement_address(b: ModuleAddress, dim: Dim) -> ModuleAddress:
    return b ^ dim.module_mask


def apex_pair(b: ModuleAddress, dim: Dim) -> tuple[VertexLabel, VertexLabel]:
    """The two vertices of module b whose cross edges land in module ~b.

    Returns (b.b, ~b.b); their external neighbors are ~b.~b and b.~b.
    """
    if not 0 <= b <= dim.module_mask:
        raise ParameterError(f"module address {b} out of range for n={dim.n}")
    return concat_halves(b, b, dim), concat_halves(complement_address(b, dim), b, dim)


def parse_label(text: str, dim: Dim) -> VertexLabel:
    """Parse an n-character binary string, s_1 first."""
    if len(text) != dim.n:
        raise LabelParseError(
            f"label must be exactly {dim.n} characters, got {len(text)}", len(text)
        )
    value = 0
    for pos, ch in enumerate(text):
        if ch not in "01":
            raise LabelParseError(
                f"label may contain only 0/1; found {ch!r} at position {pos}", pos
            )
        value = (value << 1) | (ch == "1")
    return value


def format_label(u: VertexLabel, dim: Dim) -> str:
    """Format as an n-character binary string, s_1 first."""
    check_label(u, dim)
    return format(u, f"0{dim.n}b")
