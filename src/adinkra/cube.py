"""Color-cube topologies and their quotients by binary codes.

A vertex is the bitmask of a subset of {1..n}; color c flips bit c-1.  The
grading comes from subset size: with the scalar convention, even subsets are
bosons; with the spinor convention, odd subsets are.  One builder,
code_quotient, makes every topology here: the n-cube modulo a binary code
whose nonzero words all have even weight of at least 4, each class keyed by
its least subset.  The empty code gives the cube itself; for n = 4 the code
{1111} identifies each subset with its complement and yields the second valid
four-color topology on half as many vertices.
"""

from __future__ import annotations

from typing import Iterable

from .core import BOSON, FERMION, AdinkraError, Edge, Topology

__all__ = [
    "SCALAR",
    "SPINOR",
    "MAX_CUBE_COLORS",
    "code_quotient",
    "cube_topology",
    "cube_statistics",
    "standard_parity",
    "antipodal_quotient",
    "hgt0",
    "dist0",
    "subset_label",
    "cube_signature",
]

SCALAR = "scalar"
SPINOR = "spinor"

# Every cube computation grows at least as 2^n; at 10 colors the cube has
# 1024 vertices and 11,520 squares, and its parity solve takes milliseconds.
MAX_CUBE_COLORS = 10


def hgt0(subset: int) -> int:
    """Number of colors in the subset; the cube's base height grading."""
    return subset.bit_count()


def dist0(a: int, b: int) -> int:
    """Hamming distance between two subsets; equals cube graph distance."""
    return (a ^ b).bit_count()


def subset_label(subset: int) -> str:
    """Human-readable subset, e.g. {} or {1,3}."""
    return "{" + ",".join(str(c + 1) for c in range(subset.bit_length()) if subset >> c & 1) + "}"


def cube_statistics(subset: int, convention: str = SCALAR) -> str:
    if convention not in (SCALAR, SPINOR):
        raise AdinkraError(f"unknown convention {convention!r}")
    even = hgt0(subset) % 2 == 0
    return BOSON if even == (convention == SCALAR) else FERMION


def code_quotient(n: int, generators: Iterable[int], convention: str = SCALAR) -> Topology:
    """The n-cube modulo the binary code the generators span, each class keyed by its least subset.

    Checked before anything is built: n is capped at MAX_CUBE_COLORS; each
    generator is a nonzero n-bit int outside the span of the ones before it;
    every nonzero code word has even weight of at least 4, so a class never
    mixes statistics and no edge closes on itself or doubles another.  The
    quotient is then a valid n-regular topology, so it is built without
    Topology.build checking its edges again.  It has an odd-square parity
    exactly when the code is doubly even (arXiv:1108.4124), which is left to
    the parity solve.
    """
    if type(n) is not int or n < 1:
        raise AdinkraError(f"need a positive number of colors, got {n!r}")
    if n > MAX_CUBE_COLORS:
        raise AdinkraError(f"{n} colors exceeds the cap of {MAX_CUBE_COLORS} on cube size")
    code = [0]
    for g in generators:
        if type(g) is not int or not 0 < g < 1 << n:
            raise AdinkraError(f"generator {g!r} is not an int in 1..{(1 << n) - 1}")
        if g in code:
            raise AdinkraError(f"generator {subset_label(g)} lies in the span of the generators before it")
        words = [w ^ g for w in code]
        for w in words:
            if (k := w.bit_count()) % 2 or k < 4:
                raise AdinkraError(f"code word {subset_label(w)} has weight {k}, not an even weight of at least 4")
        code += words
    rep: list[int | None] = [None] * (1 << n)
    stats: dict[int, str] = {}
    for v in range(1 << n):
        if rep[v] is None:  # every smaller subset is keyed, so v is its class's least
            stats[v] = cube_statistics(v, convention)
            for w in code:
                rep[v ^ w] = v
    edges = sorted((v, w, c) for v in stats for c in range(1, n + 1) if v < (w := rep[v ^ 1 << (c - 1)]))
    return Topology(n, tuple(stats), tuple(stats.values()), tuple(edges))


def cube_topology(n: int, convention: str = SCALAR) -> Topology:
    """The n-color cube: 2^n subset vertices, n*2^(n-1) edges, color c flips bit c-1.

    n is capped at MAX_CUBE_COLORS, checked before anything is built.
    """
    return code_quotient(n, (), convention)


def _cube_edges(n: int) -> tuple[Edge, ...]:
    """The n-cube's edges (low end, high end, color), in the order Topology keeps them."""
    return tuple(
        (v, v | 1 << (c - 1), c)
        for v in range(1 << n)
        for c in range(1, n + 1)
        if not v >> (c - 1) & 1
    )


def standard_parity(topology: Topology) -> dict[Edge, int]:
    """The classic sign rule on a cube: parity = |I below c| mod 2 per edge.

    For the edge of color c at subset I (either endpoint works, they agree
    below c), the parity counts the colors in I smaller than c.  Every
    two-colored square then carries an odd parity sum.
    """
    sig = cube_signature(topology)
    if sig is None:
        raise AdinkraError("standard parity is defined on cube topologies only")
    out: dict[Edge, int] = {}
    for u, v, c in topology.edges:
        below = u & ((1 << (c - 1)) - 1)
        out[(u, v, c)] = hgt0(below) % 2
    return out


def antipodal_quotient() -> Topology:
    """The 4-color topology identifying each subset with its complement.

    The 4-cube modulo the code {1111}: 8 vertices, 16 edges, each keyed by
    the smaller subset of its pair.
    """
    return code_quotient(4, (0b1111,))


def cube_signature(topology: Topology) -> tuple[int, str] | None:
    """Recognize a cube: returns (n, convention) or None.

    Checks vertex ids are exactly 0 .. 2^n - 1, the statistics follow one of
    the two subset-size conventions, and the edge set is exactly the cube's.
    The antipodal quotient and other topologies return None.  The answer is
    worked out once per topology object and kept on it; a
    ``dataclasses.replace`` copy works out its own.
    """
    return topology._cube_signature


def _recognized_cube(topology: Topology) -> tuple[int, str] | None:
    """cube_signature's answer, worked out from the topology's fields."""
    n, k = topology.n_colors, len(topology.vertex_ids)
    # 1 << n is formed only once it has as many bits as the vertex count
    if k.bit_length() != n + 1 or k != 1 << n or topology.vertex_ids != tuple(range(k)):
        return None
    for convention in (SCALAR, SPINOR):
        if all(
            topology.statistics_of(v) == cube_statistics(v, convention)
            for v in topology.vertex_ids
        ):
            break
    else:
        return None
    if topology.edges != _cube_edges(n):
        return None
    return n, convention
