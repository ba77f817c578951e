"""Color-cube topologies: vertices are subsets of the color set.

A vertex is the bitmask of a subset of {1..n}; color c flips bit c-1.  The
grading comes from subset size: with the scalar convention, even subsets are
bosons; with the spinor convention, odd subsets are.  For n = 4 the antipodal
identification (a subset with its complement) yields the second valid
four-color topology on half as many vertices.
"""

from __future__ import annotations

from .core import BOSON, FERMION, AdinkraError, Edge, Topology

__all__ = [
    "SCALAR",
    "SPINOR",
    "MAX_CUBE_COLORS",
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
# 1024 vertices and its parity solve takes over ten seconds.
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


def cube_topology(n: int, convention: str = SCALAR) -> Topology:
    """The n-color cube: 2^n subset vertices, n*2^(n-1) edges, color c flips bit c-1.

    n is capped at MAX_CUBE_COLORS, checked before anything is built.
    """
    if not isinstance(n, int) or n < 1:
        raise AdinkraError(f"need a positive number of colors, got {n!r}")
    if n > MAX_CUBE_COLORS:
        raise AdinkraError(f"{n} colors exceeds the cap of {MAX_CUBE_COLORS} on cube size")
    stats = {v: cube_statistics(v, convention) for v in range(1 << n)}
    return Topology.build(n, stats, _cube_edges(n))


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

    Classes are keyed by the lexicographically smaller representative (as a
    bitmask).  8 vertices, 16 edges; subset-size parity survives the
    identification, so the grading is well defined.
    """
    full = (1 << 4) - 1
    rep = lambda v: min(v, v ^ full)
    stats = {}
    for v in range(1 << 4):
        stats[rep(v)] = cube_statistics(rep(v), SCALAR)
    edges = {tuple(sorted((rep(u), rep(v)))) + (c,) for u, v, c in _cube_edges(4)}
    return Topology.build(4, stats, sorted(edges))


def cube_signature(topology: Topology) -> tuple[int, str] | None:
    """Recognize a cube: returns (n, convention) or None.

    Checks vertex ids are exactly 0 .. 2^n - 1, the statistics follow one of
    the two subset-size conventions, and the edge set is exactly the cube's.
    The antipodal quotient and other topologies return None.
    """
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
