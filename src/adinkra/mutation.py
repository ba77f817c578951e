"""Vertex mutation: raising and lowering extreme vertices, and what it generates.

Lowering drops a target (a vertex all of whose arrows point in) by 2; raising
lifts a source by 2.  The moves are mutual inverses and generate the whole
family of height functions on a topology from the base Adinkra (bosons at 0,
fermions at 1).  Member identity is the normalized height vector, so the
family is finite and the move graph is well defined.  A sequence trace walks
the family by raisings only, recording every move including the ones that
land on an already-visited pattern.  Isomorphism compares canonical keys:
each component relabelled by breadth-first search from its best anchor.
The descent onto a one-hooked Adinkra and the kinship distance are read
off the heights, with no walk.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress, groupby, permutations
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .core import Adinkra, AdinkraError, Topology, _aligned, _normal_heights, _rises, _solved_parity

__all__ = [
    "sources",
    "targets",
    "raise_vertex",
    "lower_vertex",
    "base_adinkra",
    "automorphic_dual",
    "lowering_sequence_to_one_hooked",
    "FamilyGraph",
    "enumerate_family",
    "kinship_distance",
    "isomorphic",
    "isomorphism_classes",
    "SequenceStep",
    "SequenceTrace",
    "main_sequence",
]

HeightKey = tuple[int, ...]
# (from key, "raise" or "lower", vertex, to key)
Move = tuple[HeightKey, str, int, HeightKey]


def sources(adinkra: Adinkra) -> tuple[int, ...]:
    """Vertices all of whose edges point away (strict local minima)."""
    return adinkra.extremes()[0]


def targets(adinkra: Adinkra) -> tuple[int, ...]:
    """Vertices all of whose edges point in (strict local maxima)."""
    return adinkra.extremes()[1]


def _move(adinkra: Adinkra, vertex: int, delta: int) -> Adinkra:
    """Move a source up (delta 2) or a target down (delta -2), refusing any other vertex."""
    t = adinkra.topology
    hv = adinkra.height_of(vertex)  # an AdinkraError for an unknown vertex
    for w, color in t.neighbors(vertex):
        if (adinkra.height_of(w) - hv) * delta < 0:
            edge = (vertex, w, color)
            raise AdinkraError(
                f"cannot raise {vertex}: edge {edge} comes up from {w} below it"
                if delta > 0
                else f"cannot lower {vertex}: edge {edge} points into {w} above it"
            )
    heights = list(adinkra.heights)
    heights[t._vindex[vertex]] += delta  # every neighbour lies on one side, so every gap stays +-1
    return Adinkra._trusted(t, tuple(heights), adinkra.parity)


def lower_vertex(adinkra: Adinkra, vertex: int) -> Adinkra:
    """Drop a target by 2; topology and parity are untouched."""
    return _move(adinkra, vertex, -2)


def raise_vertex(adinkra: Adinkra, vertex: int) -> Adinkra:
    """Lift a source by 2; inverse of :func:`lower_vertex`."""
    return _move(adinkra, vertex, 2)


def _walk(
    members: dict[HeightKey, Adinkra], orbits: Sequence[tuple[int, ...]], kinds: tuple[str, ...]
) -> Iterator[tuple[HeightKey, str, tuple[int, ...], Adinkra]]:
    """Every move of the breadth-first search from the one normalized start in members.

    Yields (from key, kind, orbit, normalized result) in discovery order:
    members are searched in the order first reached, each once, and a move
    landing on a member already reached is yielded but not searched again.
    The orbits are sorted vertex tuples in ascending order.  An orbit is
    raised when all its vertices are sources and lowered when all are
    targets; moves come kind by kind in the order given, and within a kind
    in orbit order.  Each member is built once and added to members before
    the move that reaches it is yielded; every move onto it yields that one
    Adinkra, whose heights are the member's key.

    Each member carries the rise of each vertex (neighbours above less
    neighbours below; see _rises): the start is scanned once, and a move
    changes only the rises of the orbit and of its neighbours.
    """
    (start,) = members.values()
    t = start.topology
    adjacent, parity, deg = t._adjacent, start.parity, t.n_colors
    positions = range(len(t.vertex_ids))
    # each orbit under its least position, with its positions and its neighbours' (one per edge)
    by_least: list[list[tuple[tuple[int, ...], tuple[int, ...], list[int]]]] = [[] for _ in positions]
    for orbit in orbits:
        moved = tuple(map(t._vindex.__getitem__, orbit))
        by_least[moved[0]].append((orbit, moved, [j for i in moved for j in adjacent[i]]))
    # (kind, height change, rise of a movable vertex); the move turns that rise
    # around and changes each neighbour's by the height change
    steps = [(kind, 2, deg) if kind == "raise" else (kind, -2, -deg) for kind in kinds]
    queue = deque([(start.heights, _rises(adjacent, start.heights))])
    while queue:
        h, rises = queue.popleft()
        for kind, delta, full in steps:
            for least in compress(positions, map(full.__eq__, rises)):
                for orbit, moved, around in by_least[least]:
                    if len(moved) > 1 and not all(rises[i] == full for i in moved):
                        continue
                    key = list(h)
                    for i in moved:
                        key[i] += delta
                    key = tuple(key)
                    # normal form puts each component's minimum at 0 or 1, and a vertex raised
                    # from 0 leaves its neighbours at 1: only one moved from 1 can leave it
                    if 1 in map(h.__getitem__, moved):
                        key = _normal_heights(t, key)
                    member = members.get(key)
                    if member is None:
                        member = members[key] = Adinkra._trusted(t, key, parity)
                        moved_rises = list(rises)
                        for i in moved:
                            moved_rises[i] = -full
                        for j in around:
                            moved_rises[j] += delta
                        queue.append((key, moved_rises))
                    yield h, kind, orbit, member


def base_adinkra(topology: Topology, parity=None) -> Adinkra:
    """The valise: every boson at height 0, every fermion at height 1."""
    if parity is None:
        parity = _solved_parity(topology)
    return Adinkra(topology, topology._valise, _aligned(parity, topology.edges, "parity for edge"))


def automorphic_dual(adinkra: Adinkra) -> Adinkra:
    """Flip the Adinkra upside down: negate heights, then normalize."""
    # negating keeps every gap at +-1 and leaves the parity alone
    return Adinkra._trusted(adinkra.topology, tuple(-h for h in adinkra.heights), adinkra.parity).normalized()


def lowering_sequence_to_one_hooked(adinkra: Adinkra, vertex: int) -> list[int]:
    """Lower everything else until vertex is the unique target.

    Returns the vertices lowered, in order: level by level from the top,
    every target other than vertex at the highest height, in ascending id.
    Replaying them with :func:`lower_vertex` reproduces the descent.

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


@dataclass(frozen=True)
class FamilyGraph:
    """All height functions on one topology, joined by single raise/lower moves.

    members is keyed by the normalized height vector (aligned with
    topology.vertex_ids); moves are (from_key, kind, vertex, to_key) with kind
    "raise" or "lower", and come in inverse pairs.
    """

    topology: Topology
    members: Mapping[HeightKey, Adinkra]
    moves: tuple[Move, ...]

    def __len__(self) -> int:
        return len(self.members)


def member_key(adinkra: Adinkra) -> HeightKey:
    return adinkra.normalized().heights


def enumerate_family(topology: Topology, parity=None) -> FamilyGraph:
    """Breadth-first closure of the base Adinkra under raising and lowering."""
    start = base_adinkra(topology, parity).normalized()
    members = {start.heights: start}
    walk = _walk(members, _singles(topology), ("raise", "lower"))
    moves = [(src, kind, v, nxt.heights) for src, kind, (v,), nxt in walk]
    return FamilyGraph(topology, members, tuple(_sorted_moves(moves)))


def _sorted_moves(moves: list[Move]) -> list[Move]:
    """The moves of a family walk, sorted.

    The walk yields each member's moves one after another, so this sorts the
    runs by member and then each run's few moves, which share one key.
    """
    runs = sorted(list(run) for _, run in groupby(moves, itemgetter(0)))
    return [move for run in runs for move in sorted(run)]


def _singles(topology: Topology) -> list[tuple[int, ...]]:
    """Each vertex as an orbit of its own."""
    return [(v,) for v in topology.vertex_ids]


def kinship_distance(a: Adinkra, b: Adinkra) -> int:
    """Minimum number of single-vertex moves turning a into b (same topology).

    Height functions with +-1 gaps and fixed parities form a distributive
    lattice whose covers are the moves (Propp, "Lattice structure for
    orientations of graphs", 2002): the path down to the meet min(a, b) and
    up to b takes sum |a - b| / 2 moves, and none is shorter, since a move
    changes that sum by 2.  Members are normalized, so each component of b
    shifts freely; the best shift is the median of the gaps h_a - h_b.
    """
    if a.topology != b.topology:
        raise AdinkraError("kinship distance needs both Adinkras on the same topology")
    total = 0
    for slots in a.topology._component_slots:
        gaps = sorted(a.heights[i] - b.heights[i] for i in slots)
        median = gaps[(len(gaps) - 1) // 2]
        total += sum(abs(g - median) for g in gaps)
    return total // 2


# An anchoring of one component: its vertex positions in BFS order from the
# anchor, their statistics, and each one's neighbour ranks by color.
_Anchoring = tuple[tuple[int, ...], tuple[str, ...], tuple[tuple[int, ...], ...]]


def _anchorings(topology: Topology, colors: Sequence[int]) -> list[list[_Anchoring]]:
    """Per component, one anchoring per vertex, searching neighbours in color order.

    The statistics and neighbour ranks depend on the topology alone, so they
    are computed once per topology and color order.
    """
    # each position's neighbour positions, columns in the searched color order
    adj = [[row[c - 1] for c in colors] for row in topology._adjacent]
    out = []
    for slots in topology._component_slots:
        per_anchor = []
        for anchor in slots:
            rank = {anchor: 0}
            order = [anchor]
            for i in order:
                for j in adj[i]:
                    if j not in rank:
                        rank[j] = len(order)
                        order.append(j)
            per_anchor.append(
                (
                    tuple(order),
                    tuple(topology.statistics[i] for i in order),
                    tuple(tuple(rank[j] for j in adj[i]) for i in order),
                )
            )
        out.append(per_anchor)
    return out


def _component_key(heights: tuple[int, ...], anchors: list[_Anchoring]) -> tuple:
    """The least (statistics, heights moved by an even shift to a minimum of 0 or 1, ranks)."""
    low = min(heights[i] for i in anchors[0][0])
    base = low - low % 2
    return min(
        (stats, tuple(heights[i] - base for i in slots), ranks)
        for slots, stats, ranks in anchors
    )


def _key_function(permute_colors: bool) -> Callable[[Adinkra], tuple]:
    """A canonical isomorphism key, reusing each topology's anchorings.

    Two components get equal keys exactly when a color- and
    statistics-preserving map carries one onto the other with heights
    agreeing up to an even shift.  The Adinkra's key is its color count with
    the sorted component keys; with permute_colors, the least of these over
    all color orders.
    """
    tables: dict[Topology, list[list[list[_Anchoring]]]] = {}

    def key(a: Adinkra) -> tuple:
        t = a.topology
        per_order = tables.get(t)
        if per_order is None:
            colors = tuple(range(1, t.n_colors + 1))
            orders = permutations(colors) if permute_colors else [colors]
            per_order = tables[t] = [_anchorings(t, order) for order in orders]
        return t.n_colors, min(
            tuple(sorted(_component_key(a.heights, anchors) for anchors in comps))
            for comps in per_order
        )

    return key


def isomorphic(a: Adinkra, b: Adinkra, permute_colors: bool = False) -> bool:
    """Color- and statistics-preserving isomorphism of height patterns.

    Heights must agree up to a constant even shift per component, and
    statistics must be preserved; parity is not compared.  With
    permute_colors=True, color relabelings are allowed on top (a strictly
    coarser equivalence, exposed separately).  Decided by comparing
    canonical keys.
    """
    key = _key_function(permute_colors)
    return key(a) == key(b)


def isomorphism_classes(
    members: Iterable[Adinkra], permute_colors: bool = False
) -> list[list[Adinkra]]:
    """Partition Adinkras into isomorphism classes.

    Classes and their members come in order of first appearance.
    """
    key = _key_function(permute_colors)
    classes: dict[tuple, list[Adinkra]] = {}
    for m in members:
        classes.setdefault(key(m), []).append(m)
    return list(classes.values())


@dataclass(frozen=True)
class SequenceStep:
    """One recorded move of a sequence trace.

    adinkra is the normalized pattern reached; move is the raised orbit (a
    vertex tuple; singleton for a plain vertex raise) or None for the start;
    counters gives cumulative raises per vertex along the discovery path
    (they label derivative dressing and never enter pattern identity);
    parent is the step this was raised from; repeat_of is the index of the
    first step with the same pattern when the move lands on a seen pattern.
    """

    adinkra: Adinkra
    move: tuple[int, ...] | None
    counters: tuple[tuple[int, int], ...]
    parent: int | None
    repeat_of: int | None


@dataclass(frozen=True)
class SequenceTrace:
    steps: tuple[SequenceStep, ...]
    cycle_closure: int | None

    def distinct_members(self) -> list[Adinkra]:
        return [s.adinkra for s in self.steps if s.repeat_of is None]


def _check_orbit(start: Adinkra, orbit: Sequence[int], seen: set[int]) -> tuple[int, ...]:
    """The orbit sorted, once it is non-empty, disjoint from seen (then added) and homogeneous in start."""
    t = start.topology
    ot = tuple(sorted(orbit))
    if not ot:
        raise AdinkraError("empty orbit in partition")
    for v in ot:
        if t._position(v) is None:
            raise AdinkraError(f"orbit refers to unknown vertex {v}")
        if v in seen:
            raise AdinkraError(f"vertex {v} appears in more than one orbit")
        seen.add(v)
    if len({t.statistics_of(v) for v in ot}) != 1:
        raise AdinkraError(f"orbit {ot} mixes statistics")
    if len({start.height_of(v) for v in ot}) != 1:
        raise AdinkraError(f"orbit {ot} is not height-homogeneous in the start Adinkra")
    return ot


def _check_orbits(start: Adinkra, orbits: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    seen: set[int] = set()
    out = sorted(_check_orbit(start, orbit, seen) for orbit in orbits)
    missing = set(start.topology.vertex_ids) - seen
    if missing:
        raise AdinkraError(f"orbit partition misses vertices {sorted(missing)}")
    return out


def main_sequence(
    start: Adinkra, orbits: Sequence[Sequence[int]] | None = None
) -> SequenceTrace:
    """Walk the family from start by raisings, recording every move.

    Moves raise one source vertex at a time, or one whole orbit when an orbit
    partition is supplied (an orbit is raisable only when all its vertices are
    sources; sources are never adjacent, so the joint raise is consistent).
    Exploration is breadth-first in ascending vertex/orbit order and continues
    until no unseen normalized pattern remains.  A move landing on a seen
    pattern is recorded as a repeat step and not explored further.
    cycle_closure is the index of the first step that repeats the start
    pattern, or None.  Orbits are checked against the normalized start.
    """
    start_n = start.normalized()
    orbit_list = _singles(start.topology) if orbits is None else _check_orbits(start_n, orbits)
    return _trace(list(_sequence(start_n, orbit_list)))


def _sequence(start: Adinkra, orbits: Sequence[tuple[int, ...]]) -> Iterator[SequenceStep]:
    """The steps of main_sequence from a normalized start, step 0 first."""
    steps = [SequenceStep(start, None, tuple((v, 0) for v in start.topology.vertex_ids), None, None)]
    yield steps[0]
    first_index: dict[HeightKey, int] = {start.heights: 0}
    for src, _, orbit, raised in _walk({start.heights: start}, orbits, ("raise",)):
        parent = first_index[src]
        counters = dict(steps[parent].counters)
        for v in orbit:
            counters[v] += 1
        seen_at = first_index.setdefault(raised.heights, len(steps))
        repeat_of = None if seen_at == len(steps) else seen_at
        steps.append(SequenceStep(raised, orbit, tuple(sorted(counters.items())), parent, repeat_of))
        yield steps[-1]


def _trace(steps: Sequence[SequenceStep]) -> SequenceTrace:
    """The trace of these steps, closing at the first one that repeats step 0."""
    return SequenceTrace(tuple(steps), next((i for i, s in enumerate(steps) if s.repeat_of == 0), None))
