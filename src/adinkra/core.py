"""Core graph layer: statistics-graded, edge-colored graphs with heights and signs.

The central structure is a finite graph whose vertices carry a statistics bit
(boson or fermion), whose edges carry a color from 1..n_colors such that every
vertex meets exactly one edge of each color, and whose edges are bipartite with
respect to statistics.  On top of a valid topology live three decorations:

* a height assignment (integer per vertex, adjacent heights differing by 1),
  which induces an orientation of every edge from its lower to its higher end;
* an edge parity in Z_2 obeying the odd-square rule: around every two-colored
  closed walk of length four the parities sum to 1 mod 2;
* the derived orientation, used for source/target bookkeeping downstream.

Vertices are plain ints, edges are canonical triples (u, v, color) with u < v,
and all public containers are immutable so Adinkras can be dict keys.  A
topology keeps one adjacency table over vertex positions (indices into
vertex_ids): row i, column c - 1 is the position of vertex i's color-c neighbour.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "BOSON",
    "FERMION",
    "MAX_PARITY_SQUARES",
    "AdinkraError",
    "Edge",
    "Step",
    "Topology",
    "Adinkra",
    "EngineerResult",
    "ParityResult",
    "validate_topology",
    "net_ascent",
    "engineerable",
    "normalize_heights",
    "lowering_sequence_to_one_hooked",
    "solve_edge_parity",
    "parity_violations",
    "orientation_from_heights",
]

BOSON = "boson"
FERMION = "fermion"

# Squares grow as the square of the color count at a vertex, so the square
# table holds at most this many: past it the walk only counts, and the parity
# solve and the parity check refuse the topology (the 10-cube has 11,520).  The
# solve's elimination fallback keeps a row and a provenance mask per square, so
# its memory grows as the square count squared: K_{2,2} with 800 colors on its
# two perfect matchings (160,000 squares) took 21 s and 1.7 GB.
MAX_PARITY_SQUARES = 1 << 14

# (u, v, color) with u < v
Edge = tuple[int, int, int]
# a directed traversal step (from, to, color)
Step = tuple[int, int, int]


class AdinkraError(ValueError):
    """Raised when input data violates a documented precondition."""


def _canon_edge(u: int, v: int, color: int) -> Edge:
    return (u, v, color) if u < v else (v, u, color)


def validate_topology(
    n_colors: int,
    statistics: Mapping[int, str],
    edges: Iterable[Sequence[int]],
) -> list[str]:
    """Check raw graph data against the topology rules and report violations.

    Accepts arbitrary data; every violated condition is reported as a string
    naming the offending vertex or edge.  An empty report means the data forms
    a valid topology.  The empty graph (no vertices, no edges) is valid.

    Rules checked: n_colors is a positive int; statistics is a mapping and
    edges an iterable; vertex ids, edge ends and colors are plain ints (no
    bool or other int subclass); vertex statistics are boson/fermion; edge
    endpoints exist, are distinct, and have opposite statistics; colors lie
    in 1..n_colors; no edge is repeated; and every vertex meets exactly one
    edge of each color.
    """
    return _checked_edges(n_colors, statistics, edges)[0]


def _checked_edges(
    n_colors: int,
    statistics: Mapping[int, str],
    edges: Iterable[Sequence[int]],
) -> tuple[list[str], list[Edge]]:
    """validate_topology's report, and the edges it accepted in canonical form, from one pass over the edges."""
    report: list[str] = []
    edge_list: list[Edge] = []
    if type(n_colors) is not int or n_colors < 1:
        report.append(f"n_colors must be a positive integer, got {n_colors!r}")
        return report, edge_list
    if not isinstance(statistics, Mapping):
        report.append(f"statistics must be a mapping, got {type(statistics).__name__}")
    try:
        edges = iter(edges)
    except TypeError:
        report.append(f"edges must be iterable, got {type(edges).__name__}")
    if report:
        return report, edge_list

    stats: dict[int, str] = {}
    for v, s in statistics.items():
        if type(v) is not int:
            report.append(f"vertex id {v!r} is not an integer")
            continue
        if s not in (BOSON, FERMION):
            report.append(f"vertex {v} has unknown statistics {s!r}")
            continue
        stats[v] = s

    seen: set[Edge] = set()
    for raw in edges:
        try:
            e = tuple(raw)
        except TypeError:
            e = ()
        if len(e) != 3 or not type(e[0]) is type(e[1]) is type(e[2]) is int:
            report.append(f"edge {raw!r} is not an (u, v, color) integer triple")
            continue
        u, v, color = e
        if u == v:
            report.append(f"edge {e} is a self-loop")
            continue
        if color < 1 or color > n_colors:
            report.append(f"edge {e} has color outside 1..{n_colors}")
            continue
        if u not in stats or v not in stats:
            report += [f"edge {e} references unknown vertex {w}" for w in (u, v) if w not in stats]
            continue
        ce = (u, v, color) if u < v else (v, u, color)
        if ce in seen:
            report.append(f"edge {ce} is repeated")
            continue
        seen.add(ce)
        edge_list.append(ce)
        if stats[u] == stats[v]:
            report.append(f"edge {ce} joins two {stats[u]}s; statistics must alternate")

    # one edge of each color at every vertex; the scan below is |V| * n_colors
    # long, so a color count no valid graph on these edges can have stops here
    if stats and n_colors > len(edge_list):
        report.append(f"{n_colors} colors but {len(edge_list)} valid edges, so some vertex misses a color")
        return report, edge_list
    # with no (vertex, color) met twice, meeting all |V| * n_colors of them is meeting each once
    meets = {(w, color) for u, v, color in edge_list for w in (u, v)}
    if len(meets) == 2 * len(edge_list) == len(stats) * n_colors:
        return report, edge_list
    degree: dict[tuple[int, int], int] = {}
    for u, v, color in edge_list:
        degree[u, color] = degree.get((u, color), 0) + 1
        degree[v, color] = degree.get((v, color), 0) + 1
    for v in sorted(stats):
        for color in range(1, n_colors + 1):
            d = degree.get((v, color), 0)
            if d != 1:
                report.append(f"vertex {v} meets {d} edges of color {color}, expected exactly 1")
    return report, edge_list


@dataclass(frozen=True)
class Topology:
    """A validated statistics-graded, edge-colored graph.

    Use :meth:`build` to construct from raw data: it validates.  The bare
    constructor only indexes tuples build would accept and checks nothing.
    ``__post_init__`` derives the rest from the four fields, so ``replace``
    rebuilds it: the adjacency and incidence tables, components, a spanning
    forest, the valise heights (bosons at 0, fermions at 1) and an empty
    distance memo.
    The square table (four edge positions per two-color square, from one
    walk), the sorted ``squares`` and the cube signature are computed on
    first use.
    """

    n_colors: int
    vertex_ids: tuple[int, ...]
    statistics: tuple[str, ...]
    edges: tuple[Edge, ...]

    @classmethod
    def build(
        cls,
        n_colors: int,
        statistics: Mapping[int, str],
        edges: Iterable[Sequence[int]],
    ) -> "Topology":
        report, canonical = _checked_edges(n_colors, statistics, edges)  # one pass over the input
        if report:
            raise AdinkraError("invalid topology: " + "; ".join(report))
        vids = tuple(sorted(statistics))
        stats = tuple(statistics[v] for v in vids)
        return cls(n_colors, vids, stats, tuple(sorted(canonical)))

    def __post_init__(self) -> None:
        vindex = {v: i for i, v in enumerate(self.vertex_ids)}
        object.__setattr__(self, "_vindex", vindex)
        # the one place statistics fix a height parity: bosons at 0, fermions at 1
        object.__setattr__(self, "_valise", tuple(int(s != BOSON) for s in self.statistics))
        # the one adjacency table: adjacent[i][c - 1] is the position of vertex i's color-c neighbour,
        # and the one edge index, the incidence table: incident[i][c - 1] is the position of that edge in edges
        adjacent = [[0] * self.n_colors for _ in self.vertex_ids]
        incident = [[0] * self.n_colors for _ in self.vertex_ids]
        for k, (u, v, color) in enumerate(self.edges):
            i, j = vindex[u], vindex[v]
            adjacent[i][color - 1] = j
            adjacent[j][color - 1] = i
            incident[i][color - 1] = incident[j][color - 1] = k
        object.__setattr__(self, "_adjacent", tuple(map(tuple, adjacent)))
        object.__setattr__(self, "_incident", tuple(map(tuple, incident)))
        # BFS from the lowest roots; its tree edges are the forest solve_edge_parity gauges
        slots: list[tuple[int, ...]] = []
        forest: list[int] = []
        seen: set[int] = set()
        for root in range(len(self.vertex_ids)):
            if root in seen:
                continue
            seen.add(root)
            comp = [root]
            for i in comp:
                for j, k in zip(adjacent[i], incident[i]):
                    if j not in seen:
                        seen.add(j)
                        comp.append(j)
                        forest.append(k)
            slots.append(tuple(sorted(comp)))
        object.__setattr__(self, "_forest", tuple(forest))
        object.__setattr__(self, "_component_slots", tuple(slots))
        object.__setattr__(self, "_dist_cache", {})

    # -- basic queries ----------------------------------------------------

    def _position(self, v: int) -> int | None:
        """The position of vertex v in vertex_ids, or None for an unknown vertex.

        An id is a plain int: 1.0 and True equal 1 as dict keys, but name no vertex.
        """
        return self._vindex.get(v) if type(v) is int else None

    def statistics_of(self, v: int) -> str:
        if type(v) is int and (i := self._vindex.get(v)) is not None:  # _position, inlined on a hot path
            return self.statistics[i]
        raise AdinkraError(f"unknown vertex {v}")

    def neighbor(self, v: int, color: int) -> int:
        """The unique vertex joined to v by the color-colored edge."""
        i = self._position(v)
        if i is None or type(color) is not int or not 0 < color <= self.n_colors:
            raise AdinkraError(f"vertex {v} has no edge of color {color!r}")
        return self.vertex_ids[self._adjacent[i][color - 1]]

    def edge_index(self, u: int, v: int, color: int) -> int:
        """The position in edges of the edge (u, v, color), in either end order, read off the incidence table."""
        i = self._position(u)
        if i is not None and type(v) is int and type(color) is int and 0 < color <= self.n_colors:
            k = self._incident[i][color - 1]
            if self.edges[k] == _canon_edge(u, v, color):
                return k
        raise AdinkraError(f"no edge {(u, v, color)} in topology")

    def neighbors(self, v: int) -> list[tuple[int, int]]:
        """All (neighbor, color) pairs at v, in color order."""
        i = self._position(v)
        return [] if i is None else [(self.vertex_ids[j], c) for c, j in enumerate(self._adjacent[i], 1)]

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted vertex tuples, ordered by minimum id."""
        return tuple(tuple(map(self.vertex_ids.__getitem__, slots)) for slots in self._component_slots)

    def distances_from(self, v: int) -> dict[int, int]:
        """BFS distances from v to every vertex in its component (cached)."""
        start = self._position(v)
        if start is None:
            raise AdinkraError(f"unknown vertex {v}")
        cached = self._dist_cache.get(v)
        if cached is not None:
            return cached
        adj = self._adjacent
        order = [start]
        reached = {start: 0}
        for i in order:
            for j in adj[i]:
                if j not in reached:
                    reached[j] = reached[i] + 1
                    order.append(j)
        dist = {self.vertex_ids[i]: d for i, d in reached.items()}
        self._dist_cache[v] = dist
        return dist

    def distance(self, u: int, v: int) -> int | None:
        """Graph distance, or None when u and v lie in different components or v is no vertex."""
        dist = self.distances_from(u)
        return dist.get(v) if type(v) is int else None

    @cached_property
    def squares(self) -> tuple[tuple[int, int, tuple[int, int, int, int]], ...]:
        """Every two-color square as (c1, c2, edge indices in walk order), sorted.

        Ordered by color pair, then by lowest vertex, each walked from that
        vertex along c1, c2, c1, c2.  Two edges of colors c1 and c2 joining the
        same pair of vertices, and longer two-colored cycles, are not squares.
        Sorted from the square table when the topology has one, so only a
        topology past MAX_PARITY_SQUARES is walked again, without the cap.
        Computed on first use, for parity_violations' messages, the
        elimination's certificates and public readers; the odd-square check
        and the parity solve read the table instead.
        """
        table = self._walked_squares
        if type(table) is int:
            table = self._square_walk(math.inf)[0]
        edges = self.edges
        it = iter(table)
        # the first edge joins the lowest vertex to a higher one, so its lower end is the lowest vertex
        keyed = sorted((edges[a][2], edges[b][2], edges[a][0], (a, b, c, d)) for a, b, c, d in zip(it, it, it, it))
        return tuple((c1, c2, square) for c1, c2, _, square in keyed)

    @cached_property
    def _cube_signature(self) -> tuple[int, str] | None:
        """``cube.cube_signature``'s (n, convention) or None, recognized on first use."""
        from .cube import _recognized_cube

        return _recognized_cube(self)

    def _square_table(self, what: str) -> array:
        """The edge positions of every square, four per square in walk order, or an AdinkraError naming what refuses more than MAX_PARITY_SQUARES."""
        table = self._walked_squares
        if type(table) is int:
            raise AdinkraError(f"{table} two-color squares exceed the cap of {MAX_PARITY_SQUARES} on the {what}")
        return table

    @cached_property
    def _walked_squares(self) -> array | int:
        """The square table from one walk, or past MAX_PARITY_SQUARES only the count of squares."""
        table, count = self._square_walk()
        return table if count <= MAX_PARITY_SQUARES else count

    def _square_walk(self, cap: float = MAX_PARITY_SQUARES) -> tuple[array, int]:
        """The edge positions of the first cap squares found, four per square in walk order, and the count of all of them.

        Each square is found from its lowest vertex i, walked i -c1- a -c2- b
        -c1- d -c2- i with c1 < c2, and its edges i-a, a-b, b-d and d-i are
        read from the incidence table.  Squares past the cap are counted, not held.
        """
        adj, inc = self._adjacent, self._incident
        found: list[int] = []
        room = 4 * cap
        past = 0
        for i, (row, at) in enumerate(zip(adj, inc)):
            # two colors to one neighbour are a doubled edge, which closes no square:
            # only colors to two distinct higher neighbours pair up
            by_end: dict[int, list[int]] = {}
            for c, a in enumerate(row):
                if a > i:
                    by_end.setdefault(a, []).append(c)
            for (a, a_colors), (d, d_colors) in combinations(by_end.items(), 2):
                ra, rd = adj[a], adj[d]
                for x in a_colors:
                    for y in d_colors:
                        # i -x- a -y- b closes through d when d's x neighbour is b
                        if ra[y] == rd[x] > i:
                            if len(found) == room:
                                past += 1
                            elif x < y:
                                found += at[x], inc[a][y], inc[ra[y]][x], at[y]
                            else:
                                found += at[y], inc[d][x], inc[ra[y]][y], at[x]
        return array("I", found), len(found) // 4 + past


def orientation_from_heights(
    topology: Topology, heights: Mapping[int, int]
) -> dict[Edge, tuple[int, int]]:
    """Arrow (tail, head) per edge, pointing from the lower to the higher end."""
    h = _aligned(heights, topology.vertex_ids, "heights", "height for vertex")
    _check_heights(topology, h)
    vindex = topology._vindex
    out: dict[Edge, tuple[int, int]] = {}
    for u, v, color in topology.edges:
        out[(u, v, color)] = (u, v) if h[vindex[u]] < h[vindex[v]] else (v, u)
    return out


def _aligned(values: Mapping, keys: Sequence, name: str, what: str) -> tuple:
    """The values of the map called name in the order of keys; a missing or unknown key is an AdinkraError naming it."""
    if not isinstance(values, Mapping):
        raise AdinkraError(f"{name} must be a mapping, got {type(values).__name__}")
    try:
        out = tuple([values[k] for k in keys])
    except KeyError:
        missing = next(k for k in keys if k not in values)
        raise AdinkraError(f"no {what} {missing}") from None
    if len(values) != len(out):
        known = set(keys)
        unknown = next(k for k in values if k not in known)
        raise AdinkraError(f"{what} {unknown}: not in the topology")
    return out


@dataclass(frozen=True)
class Adinkra:
    """A topology with a height assignment and an odd-square edge parity.

    heights and parity are stored positionally as tuples (aligned with
    topology.vertex_ids and topology.edges; a list is kept as a tuple) so
    instances hash cheaply; use the accessors for map-style reads.  The
    constructor and :meth:`from_maps` check the +-1 gap on every edge and
    the odd-square rule on every square; raising, lowering and normalizing
    build their results unchecked, since none of them can break either rule.
    """

    topology: Topology
    heights: tuple[int, ...]
    parity: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_heights(self.topology, self.heights)
        _check_parity(self.topology, self.parity)
        # lists pass both checks; kept as tuples, the Adinkra hashes and equals the tuple-built one
        if type(self.heights) is list:
            object.__setattr__(self, "heights", tuple(self.heights))
        if type(self.parity) is list:
            object.__setattr__(self, "parity", tuple(self.parity))

    @classmethod
    def _trusted(
        cls, topology: Topology, heights: tuple[int, ...], parity: tuple[int, ...]
    ) -> "Adinkra":
        """Build without checks; only for data that already meets both rules."""
        a = object.__new__(cls)
        object.__setattr__(a, "topology", topology)
        object.__setattr__(a, "heights", heights)
        object.__setattr__(a, "parity", parity)
        return a

    @classmethod
    def from_maps(
        cls,
        topology: Topology,
        heights: Mapping[int, int],
        parity: Mapping[Edge, int],
    ) -> "Adinkra":
        h = _aligned(heights, topology.vertex_ids, "heights", "height for vertex")
        p = _aligned(parity, topology.edges, "parity", "parity for edge")
        return cls(topology, h, p)

    def height_of(self, v: int) -> int:
        if type(v) is int and (i := self.topology._vindex.get(v)) is not None:  # Topology._position, inlined
            return self.heights[i]
        raise AdinkraError(f"unknown vertex {v}")

    def parity_of(self, u: int, v: int, color: int) -> int:
        return self.parity[self.topology.edge_index(u, v, color)]

    def heights_by_vertex(self) -> dict[int, int]:
        return dict(zip(self.topology.vertex_ids, self.heights))

    def parity_by_edge(self) -> dict[Edge, int]:
        return dict(zip(self.topology.edges, self.parity))

    def orientation(self) -> dict[Edge, tuple[int, int]]:
        return orientation_from_heights(self.topology, self.heights_by_vertex())

    def extremes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(sources, targets) in one pass, each in vertex order.

        A source is a strict local minimum (every edge points away), a target
        a strict local maximum (every edge points in).
        """
        t = self.topology
        deg = t.n_colors
        sources: list[int] = []
        targets: list[int] = []
        for v, rise in zip(t.vertex_ids, _rises(t._adjacent, self.heights)):
            if rise == deg:
                sources.append(v)
            elif rise == -deg:
                targets.append(v)
        return tuple(sources), tuple(targets)

    def normalized(self) -> "Adinkra":
        """Each component translated into normal form (see normalize_heights); self when already there."""
        h = _normal_heights(self.topology, self.heights)
        return self if h is self.heights else Adinkra._trusted(self.topology, h, self.parity)


def lowering_sequence_to_one_hooked(adinkra: Adinkra, vertex: int) -> list[int]:
    """Lower everything else until vertex is the unique target.

    Returns the vertices lowered, in order: level by level from the top,
    every target other than vertex at the highest height, in ascending id.
    Replaying them with :func:`adinkra.mutation.lower_vertex` reproduces the
    descent.

    The heights force it, so nothing is simulated: every w lands at
    hv - dist(vertex, w), the least height function with vertex fixed, and
    drops once from each height H with landing(w) < H <= h(w), H = h(w) mod 2.
    A vertex above its landing at the highest such height is a target, so the
    moves are those drops sorted by height descending, then by id.
    """
    t = adinkra.topology
    hv = adinkra.height_of(vertex)  # an AdinkraError for an unknown vertex
    if len(t._component_slots) != 1:
        raise AdinkraError("one-hooked descent needs a connected topology")
    dist = t.distances_from(vertex)
    levels: dict[int, list[int]] = {}  # by height, the vertices that drop from it
    for w, h in zip(t.vertex_ids, adinkra.heights):
        for top in range(h, hv - dist[w], -2):
            levels.setdefault(top, []).append(w)
    return [w for top in sorted(levels, reverse=True) for w in sorted(levels[top])]


def _rises(adjacent: Sequence[Sequence[int]], h: Sequence[int]) -> list[int]:
    """Per position, how many neighbours lie above it less how many lie below, for h with a +-1 gap on every edge.

    A source has every neighbour above it, so its rise is its degree; a target's is minus its degree.
    """
    get = h.__getitem__
    return [sum(map(get, around)) - len(around) * hi for hi, around in zip(h, adjacent)]


def _normal_heights(topology: Topology, h: tuple[int, ...]) -> tuple[int, ...]:
    """h (with a +-1 gap on every edge) moved per component into normal form; h itself if none moves.

    Across an edge both height and statistics flip, so the first vertex fixes the shift's parity.
    """
    valise = topology._valise
    out: list[int] | None = None
    for slots in topology._component_slots:
        low = min(map(h.__getitem__, slots))
        first = slots[0]
        shift = (valise[first] - h[first] + low) % 2 - low
        if shift:
            if out is None:
                out = list(h)
            for i in slots:
                out[i] += shift
    return h if out is None else tuple(out)


def _check_heights(topology: Topology, heights: Sequence[int]) -> None:
    """Raise unless heights has one int per vertex and a +-1 gap on every edge.

    An int is a plain int: True and 1.0 pass the gap arithmetic but are not heights.
    """
    if type(heights) not in (tuple, list):
        raise AdinkraError(f"heights must be a tuple or list, got {type(heights).__name__}")
    if len(heights) != len(topology.vertex_ids):
        raise AdinkraError("heights length does not match vertex count")
    if not {int}.issuperset(map(type, heights)):
        v, h = next((v, h) for v, h in zip(topology.vertex_ids, heights) if type(h) is not int)
        raise AdinkraError(f"vertex {v} has height {h!r}, expected an int")
    vindex = topology._vindex
    for u, v, color in topology.edges:
        gap = heights[vindex[v]] - heights[vindex[u]]
        if abs(gap) != 1:
            raise AdinkraError(f"edge {(u, v, color)} has height gap {gap}, expected +-1")


def _check_parity(topology: Topology, parity: Sequence[int]) -> None:
    """Raise unless parity is a tuple or list of one int 0 or 1 per edge and obeys the odd-square rule."""
    _check_parity_entries(topology, parity)
    if not _odd_squares(topology._square_table("parity check"), parity):
        raise AdinkraError("odd-square rule violated: " + "; ".join(parity_violations(topology, parity)))


def _check_parity_entries(topology: Topology, parity: Sequence[int]) -> None:
    """Raise unless parity is a tuple or list of one int 0 or 1 per edge."""
    if type(parity) not in (tuple, list):
        raise AdinkraError(f"parity must be a tuple or list, got {type(parity).__name__}")
    if len(parity) != len(topology.edges):
        raise AdinkraError("parity length does not match edge count")
    # the type test comes first: True and 1.0 equal 1, and an unhashable entry cannot join a set
    if not ({int}.issuperset(map(type, parity)) and {0, 1}.issuperset(parity)):
        p, e = next((p, e) for p, e in zip(parity, topology.edges) if type(p) is not int or p not in (0, 1))
        raise AdinkraError(f"edge {e} has parity {p!r}, expected 0 or 1")


def _odd_squares(table: array, values: Sequence[int]) -> bool:
    """Whether every square of a square table sums odd under values, 0 or 1 per edge position."""
    it = iter(table)
    # the list keeps only the even squares, and building it beats all() over a generator
    return not [a for a, b, c, d in zip(it, it, it, it) if not values[a] ^ values[b] ^ values[c] ^ values[d]]


def parity_violations(topology: Topology, parity: Sequence[int]) -> list[str]:
    """Odd-square rule check; returns one entry per violating two-color square.

    parity is a tuple or list aligned with topology.edges, checked as the
    Adinkra constructor checks it.  A square's parity sum is odd exactly when
    the XOR of its four parities has its low bit set.
    """
    _check_parity_entries(topology, parity)
    edges = topology.edges
    return [
        _square_text([edges[a], edges[b], edges[c], edges[d]]) + " has even parity sum"
        for _, _, (a, b, c, d) in topology.squares
        if not (parity[a] ^ parity[b] ^ parity[c] ^ parity[d]) & 1
    ]


def _square_text(square: Sequence[Edge]) -> str:
    verts = sorted({w for e in square for w in e[:2]})
    c1, c2 = sorted({e[2] for e in square})
    return f"square on vertices {verts} (colors {c1},{c2})"


def net_ascent(
    orientation: Mapping[Edge, tuple[int, int]], path: Sequence[Step]
) -> int:
    """Count steps taken along arrows minus steps taken against them.

    path is a tuple or list of chained directed steps (u, v, color); each must
    traverse an edge present in the orientation and consecutive steps must
    chain (the first bad step is named in the error).  The empty path has net
    ascent 0.
    """
    if not isinstance(orientation, Mapping):
        raise AdinkraError(f"orientation must be a mapping, got {type(orientation).__name__}")
    if type(path) not in (tuple, list):
        raise AdinkraError(f"path must be a tuple or list, got {type(path).__name__}")
    total = 0
    prev_end: int | None = None
    for i, step in enumerate(path):
        if type(step) not in (tuple, list) or len(step) != 3 or not {int}.issuperset(map(type, step)):
            raise AdinkraError(f"step {i}: {step!r} is not a (u, v, color) triple of ints")
        u, v, color = step
        e = _canon_edge(u, v, color)
        if e not in orientation:
            raise AdinkraError(f"step {i}: edge {(u, v, color)} not present")
        if prev_end is not None and u != prev_end:
            raise AdinkraError(f"step {i}: starts at {u}, previous step ended at {prev_end}")
        pair = _as_pair(orientation[e])
        if pair == (u, v):
            total += 1
        elif pair == (v, u):
            total -= 1
        else:
            raise AdinkraError(f"step {i}: orientation entry {orientation[e]!r} is not an endpoint pair")
        prev_end = v
    return total


def _as_pair(entry) -> tuple:
    """An orientation entry as a tuple, so a [tail, head] list reads as the (tail, head) pair; () if neither."""
    return tuple(entry) if type(entry) in (tuple, list) else ()


@dataclass(frozen=True)
class EngineerResult:
    """Outcome of an engineerability test.

    Exactly one of heights / witness is set: heights realizes the orientation
    as arrows pointing upward, or witness is a closed path with nonzero net
    ascent proving no height function exists.
    """

    ok: bool
    heights: dict[int, int] | None = None
    witness: tuple[Step, ...] | None = None


def engineerable(
    topology: Topology, orientation: Mapping[Edge, tuple[int, int]]
) -> EngineerResult:
    """Decide whether an orientation comes from a height function.

    The orientation must cover every edge of the topology.  On success the
    returned heights are normalized (bosons even, fermions odd, component
    minima at 0 or 1).  On failure the witness is a closed path whose net
    ascent is nonzero (a cycle the arrows wind around).
    """
    if not isinstance(orientation, Mapping):
        raise AdinkraError(f"orientation must be a mapping, got {type(orientation).__name__}")
    tails = []  # by edge position, the end its arrow leaves
    for e in topology.edges:
        if e not in orientation:
            raise AdinkraError(f"orientation missing edge {e}")
        pair = _as_pair(orientation[e])
        if pair not in ((e[0], e[1]), (e[1], e[0])):
            raise AdinkraError(f"orientation entry for {e} is {orientation[e]!r}, not its endpoints")
        tails.append(pair[0])

    vids, vindex, adj, inc = topology.vertex_ids, topology._vindex, topology._adjacent, topology._incident
    h: list[int | None] = [None] * len(vids)
    step: list[Step | None] = [None] * len(vids)  # the tree step into each position; None at the roots

    def to_root(i: int) -> Iterator[Step]:
        """The tree steps from position i up to its root, the step into i first."""
        while step[i] is not None:
            yield step[i]
            i = vindex[step[i][0]]

    # the BFS of Topology.__post_init__: lowest root first, neighbours in color order
    for slots in topology._component_slots:
        root = slots[0]
        h[root] = 0  # _normal_heights sets each component's level
        order = [root]
        for i in order:
            u = vids[i]
            for color, (j, k) in enumerate(zip(adj[i], inc[i]), 1):
                w = vids[j]
                hw = h[i] + (1 if tails[k] == u else -1)
                if h[j] is None:
                    h[j] = hw
                    step[j] = (u, w, color)
                    order.append(j)
                elif h[j] != hw:
                    # conflict: walk root->u, cross to w, walk w->root backwards
                    back = [(b, a, c) for a, b, c in to_root(j)]
                    return EngineerResult(ok=False, witness=(*reversed([*to_root(i)]), (u, w, color), *back))
    return EngineerResult(ok=True, heights=dict(zip(vids, _normal_heights(topology, tuple(h)))))


def normalize_heights(topology: Topology, heights: Mapping[int, int]) -> dict[int, int]:
    """Translate each component to the normal form; idempotent.

    Normal form: bosons on even heights, fermions on odd heights (the
    valise's parities), and each component's minimum height is 0 (when a
    boson) or 1 (when a fermion).  Requires the +-1 gap rule on every edge;
    the result lists the vertices in order.
    """
    h = _aligned(heights, topology.vertex_ids, "heights", "height for vertex")
    _check_heights(topology, h)
    return dict(zip(topology.vertex_ids, _normal_heights(topology, h)))


@dataclass(frozen=True)
class ParityResult:
    """Outcome of the odd-square sign solve.

    On success parity maps every edge to 0/1 satisfying the odd-square rule.
    On failure certificate lists a set of squares (each a 4-edge tuple) whose
    constraints sum to the contradiction 0 = 1 over GF(2).
    """

    ok: bool
    parity: dict[Edge, int] | None = None
    certificate: tuple[tuple[Edge, ...], ...] | None = None


def solve_edge_parity(topology: Topology) -> ParityResult:
    """Solve for an edge parity satisfying the odd-square rule over GF(2).

    One equation per two-colored square (sum of its four edge parities = 1);
    longer two-colored cycles are unconstrained.  Gauge fixing: edges of the
    topology's BFS spanning forest are set to 0.  A topology with more than
    MAX_PARITY_SQUARES squares is refused before anything else is built,
    from the topology's square table; the squares past the cap are counted,
    not kept.

    The solve propagates from the gauge first: a square with exactly one
    unfixed edge fixes that edge.  Each newly fixed edge goes on a stack,
    and when it comes off, the squares through it are found in the
    adjacency and incidence tables (the same squares as ``squares``).  When
    every edge is fixed and every square of the table sums odd, that parity
    is the only solution with the forest at 0 (every N-cube ends here), and
    the sorted ``squares`` are never built.  Otherwise the system goes to
    GF(2) elimination (see _eliminated_parity), which sets the remaining
    free variables to 0, so the result is deterministic, and yields a
    certificate (the violating combination of squares) for an
    unsatisfiable system.  The result is the elimination's on every input.
    """
    table = topology._square_table("parity solve")
    edges, vindex, adj, inc = topology.edges, topology._vindex, topology._adjacent, topology._incident
    ne = len(edges)
    value, fixed = bytearray(ne), bytearray(ne)
    stack = list(topology._forest)
    for e in stack:
        fixed[e] = 1
    while stack:
        e = stack.pop()
        u, v, color = edges[e]
        i, j = vindex[u], vindex[v]
        # each color leads i to a and j to b, and a color-`color` edge a-b closes the square i, j, b, a;
        # a == j for e's own color and for a color doubled onto e, and neither closes a square
        for a, b, ia, jb in zip(adj[i], adj[j], inc[i], inc[j]):
            if a != j and adj[a][color - 1] == b:
                ab = inc[a][color - 1]
                if fixed[ia] + fixed[ab] + fixed[jb] == 2:  # e is fixed, so one edge is left
                    f = jb if fixed[ia] and fixed[ab] else ab if fixed[ia] else ia
                    value[f] = 1 ^ value[e] ^ value[ia] ^ value[ab] ^ value[jb]  # value[f] is still 0
                    fixed[f] = 1
                    stack.append(f)
    if 0 not in fixed and _odd_squares(table, value):
        return ParityResult(ok=True, parity=dict(zip(edges, value)))
    return _eliminated_parity(topology)


def _eliminated_parity(topology: Topology) -> ParityResult:
    """solve_edge_parity by dense GF(2) elimination, for what propagation leaves open.

    Rows are reduced in order, the squares first and then the gauge rows;
    each row's pivot is its lowest edge column that no earlier row has
    taken, and free variables are set to 0.  Unsatisfiable systems yield a
    certificate instead (the violating combination of squares).
    """
    edges = topology.edges
    ne = len(edges)

    squares: list[tuple[Edge, ...]] = []
    rows: list[int] = []  # bit i (i < ne) = edge coefficient, bit ne = RHS
    for _, _, square in topology.squares:
        row = 1 << ne
        for i in square:
            row ^= 1 << i
        squares.append(tuple(edges[i] for i in square))
        rows.append(row)
    n_squares = len(rows)
    rows += [1 << i for i in topology._forest]  # gauge: tree edge = 0

    # Gaussian elimination, pivots in canonical edge order: each row takes
    # its lowest coefficient bit without a pivot, and clearing a bit with its
    # pivot row only touches higher bits.  Provenance masks track which
    # original rows combine into each reduced row.
    coeffs = (1 << ne) - 1
    prov = [1 << i for i in range(len(rows))]
    pivot_row_of: dict[int, int] = {}
    for r in range(len(rows)):
        row, pr = rows[r], prov[r]
        rest = row & coeffs
        while rest:
            col = (rest & -rest).bit_length() - 1
            s = pivot_row_of.get(col)
            if s is None:
                pivot_row_of[col] = r
                break
            row ^= rows[s]
            pr ^= prov[s]
            rest = row & coeffs
        rows[r], prov[r] = row, pr
        if row == 1 << ne:  # 0 = 1
            cert = tuple(squares[i] for i in range(n_squares) if pr >> i & 1)
            return ParityResult(ok=False, certificate=cert)

    # back-substitution with free variables at 0; bit i of values is edge i
    values = 0
    for col in sorted(pivot_row_of, reverse=True):
        row = rows[pivot_row_of[col]]
        # the row's bits are col, later (already solved) columns and the RHS
        if ((row >> ne) + (row & values).bit_count()) & 1:
            values |= 1 << col
    parity = {e: values >> i & 1 for i, e in enumerate(edges)}
    return ParityResult(ok=True, parity=parity)


def _solved_parity(topology: Topology) -> dict[Edge, int]:
    """The solved parity, or an AdinkraError naming every certificate square."""
    solved = solve_edge_parity(topology)
    if not solved.ok:
        cert = solved.certificate
        raise AdinkraError(
            "no odd-square edge parity exists for this topology: "
            f"the odd-square rules of these {len(cert)} squares sum to 0 = 1: "
            + "; ".join(map(_square_text, cert))
        )
    return solved.parity
