from __future__ import annotations

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinkra import mutation
from adinkra.core import BOSON, FERMION, Adinkra, AdinkraError, Topology
from adinkra.cube import (
    MAX_CUBE_COLORS,
    SCALAR,
    SPINOR,
    antipodal_quotient,
    code_quotient,
    cube_topology,
    hgt0,
    standard_parity,
)
from adinkra.hanging import one_hooked
from adinkra.mutation import (
    automorphic_dual,
    base_adinkra,
    enumerate_family,
    isomorphic,
    isomorphism_classes,
    kinship_distance,
    lower_vertex,
    lowering_sequence_to_one_hooked,
    main_sequence,
    member_key,
    raise_vertex,
    sources,
    targets,
)

from oracles import (
    adinkra_walk,
    all_height_patterns,
    burnside_class_count,
    equivariant_ladder_patterns,
    matched_isomorphism_classes,
    stepwise_lowering_sequence,
    walked_kinship_distances,
)


def x_adinkra() -> Adinkra:
    t = cube_topology(2)
    base = base_adinkra(t)
    return raise_vertex(raise_vertex(base, 0), 3)


def test_sources_and_targets_of_base() -> None:
    a = base_adinkra(cube_topology(2))
    assert sources(a) == (0, 3)
    assert targets(a) == (1, 2)


def test_sources_are_strict_minima() -> None:
    x = x_adinkra()
    # the X pattern (2,1,1,2) has neither sources nor targets... the fermions
    # at height 1 sit below both neighbors, so they are the sources
    assert x.heights == (2, 1, 1, 2)
    assert sources(x) == (1, 2)
    assert targets(x) == (0, 3)


def test_raise_then_lower_is_identity() -> None:
    a = base_adinkra(cube_topology(3))
    for v in sources(a):
        assert lower_vertex(raise_vertex(a, v), v) == a


def test_raise_rejects_non_source() -> None:
    a = base_adinkra(cube_topology(2))
    with pytest.raises(AdinkraError, match=r"^cannot raise 1: edge \(1, 0, 1\) comes up from 0 below it$"):
        raise_vertex(a, 1)
    with pytest.raises(AdinkraError, match="^unknown vertex 9$"):
        raise_vertex(a, 9)


def test_lower_rejects_non_target() -> None:
    a = base_adinkra(cube_topology(2))
    with pytest.raises(AdinkraError, match=r"^cannot lower 0: edge \(0, 1, 1\) points into 1 above it$"):
        lower_vertex(a, 0)
    with pytest.raises(AdinkraError, match="^unknown vertex 9$"):
        lower_vertex(a, 9)


def test_base_adinkra_heights() -> None:
    a = base_adinkra(cube_topology(3))
    assert a.heights_by_vertex() == {v: bin(v).count("1") % 2 for v in range(8)}


def test_base_adinkra_on_quotient() -> None:
    a = base_adinkra(antipodal_quotient())
    assert set(a.heights) == {0, 1}


def test_automorphic_dual_is_an_involution() -> None:
    fam = enumerate_family(cube_topology(2))
    for member in fam.members.values():
        dual = automorphic_dual(member)
        assert member_key(dual) in fam.members
        assert automorphic_dual(dual) == member.normalized()


def test_automorphic_dual_swaps_extremes() -> None:
    a = base_adinkra(cube_topology(2))
    d = automorphic_dual(a)
    assert set(sources(d)) == set(targets(a))
    assert set(targets(d)) == set(sources(a))


@pytest.mark.parametrize("n,size", [(1, 2), (2, 6), (3, 38)])
def test_family_sizes(n: int, size: int) -> None:
    assert len(enumerate_family(cube_topology(n))) == size


@pytest.mark.parametrize("n", [1, 2, 3])
def test_family_equals_direct_pattern_enumeration(n: int) -> None:
    t = cube_topology(n)
    fam = enumerate_family(t)
    assert set(fam.members) == all_height_patterns(t)


def test_family_moves_connect_members() -> None:
    fam = enumerate_family(cube_topology(2))
    for src, kind, vertex, dst in fam.moves:
        a = fam.members[src]
        moved = raise_vertex(a, vertex) if kind == "raise" else lower_vertex(a, vertex)
        assert member_key(moved) == dst


def test_family_on_quotient_topology() -> None:
    fam = enumerate_family(antipodal_quotient())
    assert len(fam) >= 2
    assert all(len(k) == 8 for k in fam.members)


# cube quotients by doubly-even codes (arXiv:1108.4124), each on 8 or 16 vertices:
# (colors, generators, members, moves, color-preserving classes)
QUOTIENT_CENSUS = {
    "{1111}": (4, (0b1111,), 30, 128, 12),
    "{11110}": (5, (0b11110,), 710, 5_312, 118),
    "{001111,111100}": (6, (0b001111, 0b111100), 582, 4_480, 100),
    "E8": (8, (0b11110000, 0b11001100, 0b10101010, 0b11111111), 510, 4_096, 90),  # extended Hamming [8,4,4]
}


@pytest.mark.parametrize("code", list(QUOTIENT_CENSUS))
def test_quotient_census(code: str) -> None:
    n, generators, members, moves, classes = QUOTIENT_CENSUS[code]
    t = code_quotient(n, generators)
    fam = enumerate_family(t)
    assert set(fam.members) == all_height_patterns(t)
    assert (len(fam), len(fam.moves), len(isomorphism_classes(fam.members.values()))) == (members, moves, classes)


def test_member_key_is_normalized_heights() -> None:
    x = x_adinkra()
    assert member_key(x) == (2, 1, 1, 2)


def test_kinship_distance_counts_moves() -> None:
    t = cube_topology(2)
    base = base_adinkra(t)
    x = x_adinkra()
    assert kinship_distance(base, base) == 0
    assert kinship_distance(base, raise_vertex(base, 0)) == 1
    assert kinship_distance(base, x) == 2
    assert kinship_distance(x, base) == 2


@pytest.mark.parametrize("first, second, shown", [(None, None, "NoneType"), ("x", None, "str"), (True, 0, "bool")])
def test_kinship_distance_refuses_what_is_no_adinkra(first, second, shown) -> None:
    with pytest.raises(AdinkraError) as info:
        kinship_distance(first, second)
    assert str(info.value) == f"kinship distance needs two Adinkras, got {shown}"
    base = base_adinkra(cube_topology(2))
    with pytest.raises(AdinkraError) as info:
        kinship_distance(base, second)
    assert str(info.value) == f"kinship distance needs two Adinkras, got {type(second).__name__}"


def test_kinship_distance_is_the_breadth_first_layer_of_the_move_graph() -> None:
    t = cube_topology(3)
    fam = enumerate_family(t)
    base = base_adinkra(t)
    neighbours: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for src, _, _, dst in fam.moves:
        neighbours.setdefault(src, []).append(dst)
    layer = {member_key(base): 0}
    frontier = list(layer)
    while frontier:
        reached = []
        for u in frontier:
            for w in neighbours[u]:
                if w not in layer:
                    layer[w] = layer[u] + 1
                    reached.append(w)
        frontier = reached
    assert layer.keys() == fam.members.keys()
    assert max(layer.values()) > 1
    for key, member in fam.members.items():
        assert kinship_distance(base, member) == layer[key]


def two_squares() -> Topology:
    """Two disjoint 2-color squares, so each component shifts on its own."""
    stats = {v: BOSON if v.bit_count() % 2 == 0 else FERMION for v in range(4)}
    square = [(0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 3, 1)]
    return Topology.build(
        2, {**stats, **{v + 4: s for v, s in stats.items()}}, square + [(u + 4, v + 4, c) for u, v, c in square]
    )


KINSHIP_CORPORA = [
    *(
        pytest.param(lambda n=n, kind=kind: cube_topology(n, kind), id=f"{kind}-{n}")
        for kind in (SCALAR, SPINOR)
        for n in (1, 2, 3)
    ),
    pytest.param(antipodal_quotient, id="antipodal"),
    pytest.param(two_squares, id="two-squares"),
]


@pytest.mark.parametrize("build", KINSHIP_CORPORA)
def test_kinship_distance_equals_the_walk_between_every_pair(build) -> None:
    members = list(enumerate_family(build()).members.values())
    for a in members:
        walked = walked_kinship_distances(a)
        assert [kinship_distance(a, b) for b in members] == [walked[b.heights] for b in members]


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: cube_topology(4), id="cube-4"),
        pytest.param(lambda: code_quotient(5, (0b11110,)), id="quotient-11110"),
    ],
)
def test_kinship_distance_equals_the_walk_from_four_members_to_every_member(build) -> None:
    members = list(enumerate_family(build()).members.values())
    k = len(members)
    for a in (members[0], members[k // 3], members[2 * k // 3], members[-1]):
        walked = walked_kinship_distances(a)
        assert [kinship_distance(a, b) for b in members] == [walked[b.heights] for b in members]


@pytest.mark.parametrize(
    "build", [pytest.param(lambda: cube_topology(3), id="cube-3"), pytest.param(two_squares, id="two-squares")]
)
def test_kinship_distance_ignores_a_constant_shift_of_each_component(build) -> None:
    t = build()
    members = list(enumerate_family(t).members.values())
    rng = random.Random(5)

    def shifted(m: Adinkra) -> Adinkra:
        heights = list(m.heights)
        for slots in t._component_slots:
            by = rng.randint(-3, 3)
            for i in slots:
                heights[i] += by
        return Adinkra(t, tuple(heights), m.parity)

    for _ in range(200):
        a, b = rng.choice(members), rng.choice(members)
        assert kinship_distance(shifted(a), shifted(b)) == walked_kinship_distances(a)[b.heights]


def test_kinship_distance_from_the_five_cube_valise_to_its_one_hooked_top() -> None:
    # a breadth-first walk crosses a large part of the N=5 family before it reaches this pair
    t = cube_topology(5)
    valise, top = base_adinkra(t), one_hooked(t, 31, 5)
    start = time.perf_counter()
    assert kinship_distance(valise, top) == 12
    assert time.perf_counter() - start < 1.0


def test_kinship_distance_rejects_different_topologies() -> None:
    with pytest.raises(AdinkraError):
        kinship_distance(base_adinkra(cube_topology(2)), base_adinkra(cube_topology(3)))


def test_the_one_hooked_descent_refuses_a_disconnected_topology() -> None:
    two = Topology.build(1, {0: BOSON, 1: FERMION, 10: BOSON, 11: FERMION}, [(0, 1, 1), (10, 11, 1)])
    with pytest.raises(AdinkraError, match=r"^one-hooked descent needs a connected topology$"):
        lowering_sequence_to_one_hooked(base_adinkra(two), 0)


def test_descent_moves_are_replayable_and_minimal() -> None:
    t = cube_topology(3)
    a = hang_all_up(t)
    moves = lowering_sequence_to_one_hooked(a, 7)
    dist = t.distances_from(7)
    budget = sum((a.height_of(w) - (a.height_of(7) - dist[w])) // 2 for w in t.vertex_ids)
    assert len(moves) == budget
    current = a
    for v in moves:
        current = lower_vertex(current, v)
    assert targets(current) == (7,)
    assert current.height_of(7) == a.height_of(7)


@pytest.mark.parametrize(
    "build, size, ends_only",
    [
        *(
            pytest.param(lambda n=n, kind=kind: cube_topology(n, kind), size, False, id=f"{kind}-{n}")
            for kind in (SCALAR, SPINOR)
            for n, size in ((1, 2), (2, 6), (3, 38))
        ),
        # the level schedule reads only +-1 gaps and BFS distances, so it holds off the cube too
        pytest.param(antipodal_quotient, 30, False, id="antipodal"),
        # only from the first and the last vertex of its many members
        pytest.param(lambda: code_quotient(5, (0b11110,)), 710, True, id="quotient-11110"),
    ],
)
def test_level_descent_matches_the_stepwise_descent_from_every_vertex(build, size: int, ends_only: bool) -> None:
    t = build()
    hooks = (t.vertex_ids[0], t.vertex_ids[-1]) if ends_only else t.vertex_ids
    members = enumerate_family(t).members.values()
    assert len(members) == size
    for member in members:
        for v in hooks:
            assert lowering_sequence_to_one_hooked(member, v) == stepwise_lowering_sequence(member, v)


def test_level_descent_matches_the_stepwise_descent_onto_the_all_colors_vertex() -> None:
    for kind in (SCALAR, SPINOR):
        members = enumerate_family(cube_topology(4, kind)).members.values()
        assert len(members) == 990
        for member in members:
            assert lowering_sequence_to_one_hooked(member, 15) == stepwise_lowering_sequence(member, 15)


def hang_all_up(t):
    from adinkra.hanging import TARGETS, HookSet, hang

    return hang(t, HookSet.from_map(TARGETS, {0: 2, 7: 3}))


# ---------------------------------------------------------------------------
# isomorphism


def test_isomorphic_is_reflexive_on_members() -> None:
    fam = enumerate_family(cube_topology(2))
    for member in fam.members.values():
        assert isomorphic(member, member)


def test_isomorphic_allows_even_height_shift() -> None:
    a = base_adinkra(cube_topology(2))
    lifted = Adinkra(a.topology, tuple(h + 2 for h in a.heights), a.parity)
    assert isomorphic(a, lifted)


def test_isomorphic_distinguishes_patterns() -> None:
    t = cube_topology(2)
    base = base_adinkra(t)
    assert not isomorphic(base, x_adinkra())
    assert not isomorphic(base, raise_vertex(base, 0))


def test_raising_either_boson_gives_isomorphic_members() -> None:
    t = cube_topology(2)
    base = base_adinkra(t)
    one_up = raise_vertex(base, 0)
    # the antipodal vertex map carries one onto the other color by color
    other = raise_vertex(base, 3)
    assert isomorphic(one_up, other)
    assert isomorphic(one_up, other, permute_colors=True)


@given(st.lists(st.integers(0, 7), max_size=12))
@settings(max_examples=80, deadline=None)
def test_random_walks_stay_inside_the_family(choices: list[int]) -> None:
    t = cube_topology(3)
    fam = enumerate_family(t)
    a = base_adinkra(t)
    for pick in choices:
        src = sources(a)
        tgt = targets(a)
        moves = [(raise_vertex, v) for v in src] + [(lower_vertex, v) for v in tgt]
        fn, v = moves[pick % len(moves)]
        a = fn(a, v)
        assert member_key(a) in fam.members


def test_isomorphism_classes_of_n2_family() -> None:
    fam = enumerate_family(cube_topology(2))
    members = list(fam.members.values())
    classes = isomorphism_classes(members)
    assert len(classes) == 4
    assert sorted(len(c) for c in classes) == [1, 1, 2, 2]
    assert len(isomorphism_classes(members, permute_colors=True)) == 4


def two_squares() -> Topology:
    """Two disjoint two-color squares, the second one's vertices offset by 10."""
    stats, edges = {}, []
    for off in (0, 10):
        for v in range(4):
            stats[off + v] = BOSON if bin(v).count("1") % 2 == 0 else FERMION
        edges += [(off + 0, off + 1, 1), (off + 2, off + 3, 1), (off + 0, off + 2, 2), (off + 1, off + 3, 2)]
    return Topology.build(2, stats, edges)


def _pool() -> list[Adinkra]:
    topologies = [cube_topology(n, kind) for n in (1, 2, 3) for kind in (SCALAR, SPINOR)]
    topologies += [antipodal_quotient(), two_squares()]
    return [m for t in topologies for m in enumerate_family(t).members.values()]


POOL = _pool()


def _lifted(a: Adinkra, lifts: list[int]) -> Adinkra:
    """a with each component moved up by its lift; isomorphic to a when the lifts are even."""
    heights = a.heights_by_vertex()
    for comp, k in zip(a.topology.components(), lifts):
        for v in comp:
            heights[v] += k
    return Adinkra.from_maps(a.topology, heights, a.parity_by_edge())


@given(
    st.lists(
        st.tuples(st.integers(0, len(POOL) - 1), st.lists(st.integers(-3, 3), min_size=2, max_size=2)),
        max_size=10,
    ),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_classes_match_pairwise_matching(picks, permute_colors: bool) -> None:
    members = [_lifted(POOL[i], lifts) for i, lifts in picks]
    assert isomorphism_classes(members, permute_colors) == matched_isomorphism_classes(
        members, permute_colors
    )


@pytest.mark.parametrize("permute_colors", [False, True])
def test_classes_match_pairwise_matching_on_whole_families(permute_colors: bool) -> None:
    for t in (cube_topology(3), antipodal_quotient(), two_squares()):
        members = list(enumerate_family(t).members.values())
        assert isomorphism_classes(members, permute_colors) == matched_isomorphism_classes(
            members, permute_colors
        )


def test_n4_class_count_equals_burnside_count() -> None:
    fam = enumerate_family(cube_topology(4))
    classes = isomorphism_classes(fam.members.values())
    assert len(classes) == burnside_class_count(4, fam.members) == 156


def test_isomorphic_matches_components_in_any_order() -> None:
    base = base_adinkra(two_squares())
    # raising vertex 0 or vertex 10 tilts one square or the other
    assert isomorphic(raise_vertex(base, 0), raise_vertex(base, 10))
    assert not isomorphic(raise_vertex(base, 0), raise_vertex(raise_vertex(base, 0), 10))


def test_every_n4_member_passes_the_public_checks() -> None:
    t = cube_topology(4)
    for member in enumerate_family(t, standard_parity(t)).members.values():
        assert Adinkra(member.topology, member.heights, member.parity) == member


def test_public_constructor_still_checks_members() -> None:
    member = raise_vertex(base_adinkra(cube_topology(3)), 0)
    flipped = (1 - member.parity[0],) + member.parity[1:]
    with pytest.raises(AdinkraError, match="odd-square"):
        Adinkra(member.topology, member.heights, flipped)


# ---------------------------------------------------------------------------
# main sequence


def test_main_sequence_n1_recurs_at_step_two() -> None:
    trace = main_sequence(base_adinkra(cube_topology(1)))
    assert len(trace.steps) == 3
    assert trace.cycle_closure == 2
    assert [s.adinkra.heights for s in trace.steps] == [(0, 1), (2, 1), (0, 1)]
    assert trace.steps[1].move == (0,)
    assert trace.steps[2].repeat_of == 0
    assert trace.steps[2].counters == ((0, 1), (1, 1))


def test_main_sequence_n2_closes_on_start() -> None:
    trace = main_sequence(base_adinkra(cube_topology(2)))
    distinct = trace.distinct_members()
    assert len(distinct) == 6
    assert len(isomorphism_classes(distinct)) == 4
    assert trace.cycle_closure is not None
    assert trace.steps[trace.cycle_closure].repeat_of == 0


def test_main_sequence_explores_whole_family() -> None:
    trace = main_sequence(base_adinkra(cube_topology(2)))
    fam = enumerate_family(cube_topology(2))
    assert {member_key(a) for a in trace.distinct_members()} == set(fam.members)


def test_equivariant_sequence_n3() -> None:
    orbits = [[0], [1, 2, 4], [3, 5, 6], [7]]
    trace = main_sequence(base_adinkra(cube_topology(3)), orbits)
    distinct = trace.distinct_members()
    assert {a.heights for a in distinct} == equivariant_ladder_patterns(3)
    assert trace.cycle_closure is not None
    closing = trace.steps[trace.cycle_closure]
    assert closing.repeat_of == 0


def test_orbit_partition_is_validated() -> None:
    a = base_adinkra(cube_topology(2))
    with pytest.raises(AdinkraError, match="statistics"):
        main_sequence(a, [[0, 1], [2], [3]])
    with pytest.raises(AdinkraError, match="misses"):
        main_sequence(a, [[0], [3]])
    with pytest.raises(AdinkraError, match="more than one"):
        main_sequence(a, [[0], [0, 3], [1, 2]])
    with pytest.raises(AdinkraError, match="height"):
        main_sequence(raise_vertex(a, 0), [[0, 3], [1, 2]])
    with pytest.raises(AdinkraError, match=r"^empty orbit in partition$"):
        main_sequence(a, [[0], [], [1], [2], [3]])


# ---------------------------------------------------------------------------
# the walk over height tuples


def _walked(walk) -> list[tuple]:
    return [(src, kind, orbit, nxt.heights) for src, kind, orbit, nxt in walk]


def _same_walk(start: Adinkra, orbits, kinds: tuple[str, ...]) -> None:
    """mutation._walk makes the reference walk's moves in its order, one Adinkra per member."""
    members = {start.heights: start}
    walk = list(mutation._walk(members, orbits, kinds))
    assert _walked(walk) == _walked(adinkra_walk(start, orbits, kinds))
    keys = {id(k) for k in members}
    for src, _, _, nxt in walk:
        assert id(src) in keys and id(nxt.heights) in keys
        assert members[nxt.heights] is nxt


_WALK_TOPOLOGIES = {f"{kind}{n}": cube_topology(n, kind) for n in (1, 2, 3, 4) for kind in (SCALAR, SPINOR)}
_WALK_TOPOLOGIES.update(quotient4=antipodal_quotient(), two_squares=two_squares())


@pytest.mark.parametrize("name", _WALK_TOPOLOGIES)
def test_the_walk_makes_the_reference_moves_in_order(name: str) -> None:
    t = _WALK_TOPOLOGIES[name]
    _same_walk(base_adinkra(t).normalized(), mutation._singles(t), ("raise", "lower"))


def test_the_walk_moves_orbits_across_components_like_the_reference() -> None:
    # each orbit pairs a vertex of one square with its twin in the other, so a move
    # can take both components out of normal form at once
    t = two_squares()
    orbits = [(v, v + 10) for v in range(4)]
    for start in enumerate_family(t).members.values():
        if all(start.height_of(v) == start.height_of(v + 10) for v in range(4)):
            for kinds in (("raise",), ("lower",), ("raise", "lower")):
                _same_walk(start, orbits, kinds)


def test_the_so3_orbit_walk_matches_the_reference() -> None:
    start = base_adinkra(cube_topology(3))
    _same_walk(start, [(0,), (1, 2, 4), (3, 5, 6), (7,)], ("raise",))


_WALK_MEMBERS = [
    m
    for t in (cube_topology(3), cube_topology(3, SPINOR), antipodal_quotient(), two_squares())
    for m in enumerate_family(t).members.values()
]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_random_orbit_walk_matches_the_reference(data) -> None:
    member = data.draw(st.sampled_from(_WALK_MEMBERS))
    t = member.topology
    classes: dict[tuple[str, int], list[int]] = {}
    for v in t.vertex_ids:
        classes.setdefault((t.statistics_of(v), member.height_of(v)), []).append(v)
    # split each class of vertices with one statistics and height at random
    orbits: list[tuple[int, ...]] = []
    for same in classes.values():
        parts: dict[int, list[int]] = {}
        for v in same:
            parts.setdefault(data.draw(st.integers(0, len(same) - 1)), []).append(v)
        orbits += map(tuple, parts.values())
    kinds = data.draw(st.sampled_from([("raise",), ("lower",), ("raise", "lower")]))
    _same_walk(member, sorted(orbits), kinds)


# tracemalloc peak in bytes of enumerate_family on a fresh 4-cube topology, parity solve included,
# measured with Python 3.11.7 once the walk ran on height tuples (2,062,896 before); the bound is 1.25x
FAMILY_PEAK = 1_096_056


def test_the_n4_family_stays_within_its_memory() -> None:
    t = cube_topology(4)
    tracemalloc.start()
    try:
        family = enumerate_family(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(family.members), len(family.moves)) == (990, 7296)
    assert peak <= FAMILY_PEAK * 5 // 4


# tracemalloc peaks in bytes of raise and lower on the largest cube's counting Adinkra
# (heights hgt0) built outside the trace, measured with Python 3.11.7; the bound is 1.25x
MOVE_PEAKS = {"raise": 16_792, "lower": 16_792}


@pytest.mark.parametrize("move", sorted(MOVE_PEAKS))
def test_a_move_on_the_largest_cube_stays_within_its_memory(move: str) -> None:
    t = cube_topology(MAX_CUBE_COLORS)
    counting = Adinkra.from_maps(t, {v: hgt0(v) for v in t.vertex_ids}, standard_parity(t))
    # the empty set is the one source, the full set the one target
    call, vertex = (raise_vertex, 0) if move == "raise" else (lower_vertex, (1 << MAX_CUBE_COLORS) - 1)
    tracemalloc.start()
    try:
        moved = call(counting, vertex)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert moved.height_of(vertex) == counting.height_of(vertex) + (2 if move == "raise" else -2)
    assert peak <= MOVE_PEAKS[move] * 5 // 4
