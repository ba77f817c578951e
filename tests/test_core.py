from __future__ import annotations

import dataclasses
import functools
import inspect
import random
import re
import time
import tracemalloc
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinkra.core import (
    BOSON,
    FERMION,
    MAX_PARITY_SQUARES,
    Adinkra,
    AdinkraError,
    EngineerResult,
    ParityResult,
    Topology,
    _eliminated_parity,
    _odd_squares,
    engineerable,
    net_ascent,
    normalize_heights,
    orientation_from_heights,
    parity_violations,
    solve_edge_parity,
    validate_topology,
)
from adinkra.cube import SCALAR, SPINOR, antipodal_quotient, code_quotient, cube_topology, standard_parity
from adinkra.hanging import SOURCES, TARGETS, HookSet, check_hooks, hang, one_hooked
from adinkra.mutation import base_adinkra, lower_vertex, main_sequence, raise_vertex

from oracles import (
    all_orientations,
    bichromatic_squares,
    color_pair_squares,
    column_solve_edge_parity,
    cycle_space_engineerable,
    deque_engineerable,
    doubly_even,
)


SQUARE_STATS = {0: BOSON, 1: FERMION, 2: FERMION, 3: BOSON}
SQUARE_EDGES = [(0, 1, 1), (2, 3, 1), (0, 2, 2), (1, 3, 2)]


def square() -> Topology:
    return Topology.build(2, SQUARE_STATS, SQUARE_EDGES)


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_square() -> None:
    assert validate_topology(2, SQUARE_STATS, SQUARE_EDGES) == []


def test_validate_rejects_an_int_enum_color_count() -> None:
    two = IntEnum("Colors", {"TWO": 2}).TWO
    message = "n_colors must be a positive integer, got <Colors.TWO: 2>"
    assert validate_topology(two, SQUARE_STATS, SQUARE_EDGES) == [message]
    with pytest.raises(AdinkraError) as info:
        Topology.build(two, SQUARE_STATS, SQUARE_EDGES)
    assert str(info.value) == "invalid topology: " + message


def test_validate_rejects_bad_color() -> None:
    report = validate_topology(1, SQUARE_STATS, SQUARE_EDGES)
    assert any("color" in line for line in report)


def test_validate_rejects_self_loop() -> None:
    report = validate_topology(1, {0: BOSON}, [(0, 0, 1)])
    assert any("loop" in line for line in report)


def test_validate_rejects_duplicate_edge() -> None:
    report = validate_topology(
        1, {0: BOSON, 1: FERMION}, [(0, 1, 1), (1, 0, 1)]
    )
    assert any("repeated" in line for line in report)


def test_validate_rejects_same_statistics_edge() -> None:
    report = validate_topology(1, {0: BOSON, 1: BOSON}, [(0, 1, 1)])
    assert any("statistics" in line for line in report)


def test_validate_rejects_missing_color_at_vertex() -> None:
    stats = {0: BOSON, 1: FERMION, 2: FERMION, 3: BOSON}
    report = validate_topology(2, stats, [(0, 1, 1), (2, 3, 1), (0, 2, 2)])
    assert any("expected exactly 1" in line for line in report)


def test_validate_rejects_unknown_endpoint() -> None:
    report = validate_topology(1, {0: BOSON, 1: FERMION}, [(0, 7, 1)])
    assert any("unknown" in line for line in report)


def test_build_raises_on_invalid() -> None:
    with pytest.raises(AdinkraError):
        Topology.build(1, {0: BOSON, 1: BOSON}, [(0, 1, 1)])


def test_edges_are_canonical() -> None:
    t = Topology.build(2, SQUARE_STATS, [(3, 1, 2), (1, 0, 1), (2, 0, 2), (3, 2, 1)])
    assert t.edges == ((0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 3, 1))
    assert t == square()


def test_components_and_distances() -> None:
    two = Topology.build(
        1,
        {0: BOSON, 1: FERMION, 10: BOSON, 11: FERMION},
        [(0, 1, 1), (10, 11, 1)],
    )
    assert two.components() == ((0, 1), (10, 11))
    assert two.distance(0, 1) == 1
    assert two.distance(0, 10) is None


def test_build_reads_an_edge_generator_once() -> None:
    from_list = square()
    from_generator = Topology.build(2, SQUARE_STATS, (e for e in SQUARE_EDGES))
    assert from_generator == from_list
    for v in SQUARE_STATS:
        for color in (1, 2):
            assert from_generator.neighbor(v, color) == from_list.neighbor(v, color) != v


def test_build_reads_each_edge_once() -> None:
    from_iterators = Topology.build(2, SQUARE_STATS, [iter(e) for e in SQUARE_EDGES])
    assert from_iterators == square()
    assert Topology.build(1, {0: BOSON, 1: FERMION}, [iter((0, 1, 1))]) == Topology.build(
        1, {0: BOSON, 1: FERMION}, [(0, 1, 1)]
    )


@pytest.mark.parametrize(
    "edge",
    [
        pytest.param(5, id="5"),
        pytest.param(None, id="None"),
        pytest.param((0, 1), id="(0, 1)"),
        pytest.param(iter((0, 1)), id="iter((0, 1))"),
        pytest.param((0, 1, 1, 2), id="(0, 1, 1, 2)"),
        pytest.param((0, 1, True), id="bool color"),
        pytest.param((0, 1.0, 1), id="float end"),
        pytest.param((0, 1, type("Color", (int,), {})(1)), id="int subclass color"),
    ],
)
def test_build_refuses_a_malformed_edge(edge) -> None:
    with pytest.raises(AdinkraError, match=r"^invalid topology: edge .* is not an \(u, v, color\) integer triple"):
        Topology.build(1, {0: BOSON, 1: FERMION}, [edge])


@pytest.mark.parametrize("vid", [1.0, type("Vertex", (int,), {})(1)], ids=["float", "int subclass"])
def test_build_refuses_a_vertex_id_that_is_not_a_plain_int(vid) -> None:
    with pytest.raises(AdinkraError, match=f"^invalid topology: vertex id {vid!r} is not an integer;"):
        Topology.build(1, {0: BOSON, vid: FERMION}, [(0, 1, 1)])


def test_a_topology_is_its_four_fields() -> None:
    four = ["n_colors", "vertex_ids", "statistics", "edges"]
    assert list(inspect.signature(Topology).parameters) == four
    assert [f.name for f in dataclasses.fields(Topology)] == four


def test_replace_rebuilds_the_distances() -> None:
    a = Topology.build(1, {0: BOSON, 1: FERMION, 2: BOSON, 3: FERMION}, [(0, 1, 1), (2, 3, 1)])
    assert a.distance(0, 3) is None  # memoizes a's distances from 0
    b = dataclasses.replace(a, edges=((0, 3, 1), (1, 2, 1)))
    assert b.neighbor(0, 1) == 3
    assert b.distance(0, 3) == 1
    assert b.components() == ((0, 3), (1, 2))
    assert a.distance(0, 3) is None


def test_distances_are_memoized_per_topology() -> None:
    t = square()
    assert t.distances_from(0) is t.distances_from(0)
    assert square().distances_from(0) is not t.distances_from(0)


@pytest.mark.parametrize("v, color", [(0, 0), (0, 3), (0, -1), (7, 1), (-1, 2)])
def test_neighbor_refuses_a_color_or_vertex_outside_the_topology(v: int, color: int) -> None:
    with pytest.raises(AdinkraError, match=f"^vertex {v} has no edge of color {color}$"):
        square().neighbor(v, color)


@pytest.mark.parametrize(
    "t",
    [cube_topology(n, kind) for n in range(1, 11) for kind in (SCALAR, SPINOR)],
    ids=lambda t: f"{t.n_colors}c{t.statistics[0][0]}",
)
def test_edge_index_finds_every_cube_edge_from_either_end(t: Topology) -> None:
    positions = list(range(len(t.edges)))
    assert [t.edge_index(u, v, c) for u, v, c in t.edges] == positions
    assert [t.edge_index(v, u, c) for u, v, c in t.edges] == positions


# on the 2-cube, vertex 0's edges are (0, 1, 1) and (0, 2, 2)
@pytest.mark.parametrize(
    "u, v, color",
    [(7, 1, 1), (1, 7, 1), (0, 1, 0), (0, 1, 3), (0, 1, -1), (0, 2, 1), (2, 0, 1), (0, 0, 1)],
    ids=["unknown-vertex", "unknown-other-end", "color-0", "color-n+1", "color--1", "wrong-end", "wrong-end-reversed", "self"],
)
def test_edge_index_names_an_edge_it_does_not_find(u: int, v: int, color: int) -> None:
    with pytest.raises(AdinkraError, match=f"^{re.escape(f'no edge {(u, v, color)} in topology')}$"):
        cube_topology(2).edge_index(u, v, color)


# a color equal to an in-range int but not a plain int names no edge: 1.0 and True equal 1
@pytest.mark.parametrize("color", [1.0, True, 2.0, False, 0, 3, "1"], ids=repr)
def test_neighbor_and_edge_index_refuse_a_color_that_is_not_an_int_in_range(color) -> None:
    t = cube_topology(2)
    with pytest.raises(AdinkraError, match=f"^{re.escape(f'vertex 0 has no edge of color {color!r}')}$"):
        t.neighbor(0, color)
    with pytest.raises(AdinkraError, match=f"^{re.escape(f'no edge {(0, 1, color)} in topology')}$"):
        t.edge_index(0, 1, color)


def test_neighbors_of_an_unknown_vertex_are_empty() -> None:
    assert square().neighbors(7) == []
    assert square().neighbors(0) == [(1, 1), (2, 2)]


# an id equal to an int but not a plain int names no vertex: 1.0 and True equal vertex 1 as dict keys.
# Each lookup of v on the 2-cube, and the error it raises; (1, 3, 2) is vertex 1's color-2 edge
_VERTEX_LOOKUPS = {
    "statistics_of": (lambda t, v: t.statistics_of(v), "unknown vertex {v}"),
    "neighbor": (lambda t, v: t.neighbor(v, 1), "vertex {v} has no edge of color 1"),
    "edge_index": (lambda t, v: t.edge_index(v, 3, 2), "no edge ({v}, 3, 2) in topology"),
    "edge_index-other-end": (lambda t, v: t.edge_index(3, v, 2), "no edge (3, {v}, 2) in topology"),
    "distances_from": (lambda t, v: t.distances_from(v), "unknown vertex {v}"),
    "distance": (lambda t, v: t.distance(v, 0), "unknown vertex {v}"),
    "height_of": (lambda t, v: base_adinkra(t).height_of(v), "unknown vertex {v}"),
}


@pytest.mark.parametrize("lookup", sorted(_VERTEX_LOOKUPS))
@pytest.mark.parametrize("v", [1.0, True, 7], ids=repr)
def test_a_vertex_id_that_is_not_an_int_is_an_unknown_vertex(lookup: str, v) -> None:
    call, message = _VERTEX_LOOKUPS[lookup]
    t = cube_topology(2)
    t.distances_from(1)  # memoized under the int 1, which 1.0 and True equal
    with pytest.raises(AdinkraError, match=f"^{re.escape(message.format(v=v))}$"):
        call(t, v)


@pytest.mark.parametrize("v", [1.0, True, 7], ids=repr)
def test_a_vertex_id_that_is_not_an_int_has_no_neighbours_and_no_distance(v) -> None:
    t = cube_topology(2)
    assert t.neighbors(v) == []
    assert t.distance(0, v) is None


# the hooks, moves and orbits that name a vertex test it as the lookups do
_VERTEX_ARGUMENTS = {
    "check_hooks": (lambda t, v: check_hooks(t, HookSet.from_map(TARGETS, {v: 1, 2: 1})), "hook references unknown vertex {v}"),
    "one_hooked": (lambda t, v: one_hooked(t, v, 1), "hook references unknown vertex {v}"),
    "raise_vertex": (lambda t, v: raise_vertex(base_adinkra(t), v), "unknown vertex {v}"),
    "main_sequence": (lambda t, v: main_sequence(base_adinkra(t), [[v], [0, 2], [3]]), "orbit refers to unknown vertex {v}"),
}


@pytest.mark.parametrize("call", sorted(_VERTEX_ARGUMENTS))
@pytest.mark.parametrize("v", [1.0, True], ids=repr)
def test_a_vertex_id_that_is_not_an_int_is_refused_where_it_names_a_vertex(call: str, v) -> None:
    run, message = _VERTEX_ARGUMENTS[call]
    with pytest.raises(AdinkraError, match=f"^{re.escape(message.format(v=v))}$"):
        run(cube_topology(2), v)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_squares_are_the_two_color_four_cycles(n: int) -> None:
    t = cube_topology(n)
    assert len(t.squares) == n * (n - 1) // 2 * (1 << (n - 2))
    for c1, c2, square in t.squares:
        edges = [t.edges[i] for i in square]
        assert [e[2] for e in edges] == [c1, c2, c1, c2]
        assert len({w for e in edges for w in e[:2]}) == 4


def test_cube_distance_is_hamming() -> None:
    t = cube_topology(3)
    for u in t.vertex_ids:
        for v in t.vertex_ids:
            assert t.distance(u, v) == bin(u ^ v).count("1")


# ---------------------------------------------------------------------------
# heights and orientations


def test_adinkra_rejects_bad_height_gap() -> None:
    t = square()
    with pytest.raises(AdinkraError, match="height gap"):
        Adinkra.from_maps(
            t, {0: 0, 1: 3, 2: 1, 3: 2}, {e: p for e, p in zip(t.edges, (0, 0, 0, 1))}
        )


def test_adinkra_rejects_even_square() -> None:
    t = square()
    with pytest.raises(AdinkraError, match="odd-square"):
        Adinkra.from_maps(t, {0: 0, 1: 1, 2: 1, 3: 2}, {e: 0 for e in t.edges})


# True, False and 1.0 pass the gap arithmetic and equal 0 or 1, but a height or parity is a plain int
@pytest.mark.parametrize(
    "heights, parity, error",
    [
        ((False, True), (0,), "vertex 0 has height False, expected an int"),
        ((0, 1.0), (0,), "vertex 1 has height 1.0, expected an int"),
        ((0, 1), (True,), "edge (0, 1, 1) has parity True, expected 0 or 1"),
        ((0, 1), (0.0,), "edge (0, 1, 1) has parity 0.0, expected 0 or 1"),
        ((0, 1), ([0],), "edge (0, 1, 1) has parity [0], expected 0 or 1"),
        ((0, 1), (2,), "edge (0, 1, 1) has parity 2, expected 0 or 1"),
    ],
    ids=["bool-height", "float-height", "bool-parity", "float-parity", "list-parity", "parity-2"],
)
def test_an_adinkra_refuses_heights_and_parities_that_are_not_ints(heights, parity, error) -> None:
    t = cube_topology(1)
    for build in (
        lambda: Adinkra(t, heights, parity),
        lambda: Adinkra.from_maps(t, dict(zip(t.vertex_ids, heights)), dict(zip(t.edges, parity))),
    ):
        with pytest.raises(AdinkraError, match=f"^{re.escape(error)}$"):
            build()


@pytest.mark.parametrize("heights", [{0: False, 1: True}, {0: 0, 1: 1.0}, {0: 2.0, 1: 1}], ids=repr)
def test_normalize_heights_refuses_heights_that_are_not_ints(heights) -> None:
    v, h = next((v, h) for v, h in heights.items() if type(h) is not int)
    with pytest.raises(AdinkraError, match=f"^{re.escape(f'vertex {v} has height {h!r}, expected an int')}$"):
        normalize_heights(cube_topology(1), heights)


def test_parity_violations_names_the_square() -> None:
    t = square()
    bad = parity_violations(t, (0, 0, 0, 0))
    assert len(bad) == 1
    assert "colors 1,2" in bad[0]


def test_orientation_from_heights_points_up() -> None:
    t = square()
    a = Adinkra.from_maps(
        t, {0: 0, 1: 1, 2: 1, 3: 2}, {e: p for e, p in zip(t.edges, (0, 0, 0, 1))}
    )
    orient = a.orientation()
    assert orient[(0, 1, 1)] == (0, 1)
    assert orient[(1, 3, 2)] == (1, 3)


def test_net_ascent_requires_chained_path() -> None:
    t = square()
    a = Adinkra.from_maps(
        t, {0: 0, 1: 1, 2: 1, 3: 2}, {e: p for e, p in zip(t.edges, (0, 0, 0, 1))}
    )
    orient = a.orientation()
    assert net_ascent(orient, []) == 0
    assert net_ascent(orient, [(0, 1, 1), (1, 3, 2), (3, 2, 1), (2, 0, 2)]) == 0
    with pytest.raises(AdinkraError):
        net_ascent(orient, [(0, 1, 1), (3, 2, 1)])
    with pytest.raises(AdinkraError):
        net_ascent(orient, [(0, 3, 1)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_engineerable_matches_cycle_space_oracle(n: int) -> None:
    t = cube_topology(n)
    for orient in all_orientations(t):
        assert engineerable(t, orient).ok == cycle_space_engineerable(t, orient)


@pytest.mark.parametrize("n, kind", [(n, k) for n in (1, 2, 3) for k in (SCALAR, SPINOR)])
def test_engineerable_matches_the_deque_bfs_on_every_cube_orientation(n: int, kind: str) -> None:
    t = cube_topology(n, kind)
    for orient in all_orientations(t):
        # repr also pins the order of the heights
        assert repr(engineerable(t, orient)) == repr(deque_engineerable(t, orient))


def test_engineerable_matches_the_deque_bfs_on_quotient_orientations() -> None:
    t = antipodal_quotient()
    verdicts = set()
    for bits in random.Random(20).sample(range(1 << len(t.edges)), 2000):
        orient = {(u, v, c): ((u, v) if bits >> i & 1 else (v, u)) for i, (u, v, c) in enumerate(t.edges)}
        got = engineerable(t, orient)
        assert repr(got) == repr(deque_engineerable(t, orient))
        verdicts.add(got.ok)
    assert verdicts == {True, False}


def test_engineerable_square_count_is_six() -> None:
    t = cube_topology(2)
    good = [o for o in all_orientations(t) if engineerable(t, o).ok]
    assert len(good) == 6


def test_engineerable_returns_normalized_heights() -> None:
    t = cube_topology(2)
    for orient in all_orientations(t):
        res = engineerable(t, orient)
        if res.ok:
            assert res.heights == normalize_heights(t, res.heights)
            assert orientation_from_heights(t, res.heights) == orient


def test_witness_is_a_closed_ascent() -> None:
    t = cube_topology(2)
    for orient in all_orientations(t):
        res = engineerable(t, orient)
        if res.ok:
            continue
        path = res.witness
        assert path[0][0] == path[-1][1]
        assert net_ascent(orient, list(path)) != 0


def test_orientation_entries_given_as_lists_read_as_pairs() -> None:
    t = cube_topology(2)
    orient = orientation_from_heights(t, {0: 0, 1: 1, 2: 1, 3: 2})
    listed = {e: list(pair) for e, pair in orient.items()}
    assert engineerable(t, listed) == engineerable(t, orient) == EngineerResult(
        ok=True, heights={0: 0, 1: 1, 2: 1, 3: 2}
    )
    loop = [(0, 1, 1), (1, 3, 2), (3, 2, 1), (2, 0, 2)]
    assert net_ascent(listed, loop) == net_ascent(orient, loop) == 0
    assert net_ascent(listed, [(0, 1, 1), [1, 3, 2]]) == 2


@pytest.mark.parametrize("entry", [5, (0, 1, 1), (0,), "01", None])
def test_an_orientation_entry_that_is_no_pair_is_refused(entry) -> None:
    t = cube_topology(2)
    orient = {**orientation_from_heights(t, {0: 0, 1: 1, 2: 1, 3: 2}), (0, 1, 1): entry}
    shown = re.escape(repr(entry))
    with pytest.raises(AdinkraError, match=rf"^orientation entry for \(0, 1, 1\) is {shown}, not its endpoints$"):
        engineerable(t, orient)
    with pytest.raises(AdinkraError, match=rf"^step 0: orientation entry {shown} is not an endpoint pair$"):
        net_ascent(orient, [(0, 1, 1)])


@pytest.mark.parametrize("step", [(0, 1), (0, 1, 1, 1), 5, (0, "1", 1), (0, 1, 1.0), (False, 1, 1), None])
def test_a_path_step_that_is_no_int_triple_is_refused(step) -> None:
    orient = orientation_from_heights(cube_topology(2), {0: 0, 1: 1, 2: 1, 3: 2})
    shown = re.escape(repr(step))
    with pytest.raises(AdinkraError, match=rf"^step 1: {shown} is not a \(u, v, color\) triple of ints$"):
        net_ascent(orient, [(1, 0, 1), step])


# ---------------------------------------------------------------------------
# normalization


def heights_via_random_moves(seed: int) -> tuple[Topology, dict[int, int]]:
    import random

    from adinkra.mutation import base_adinkra, raise_vertex, sources

    rng = random.Random(seed)
    t = cube_topology(2)
    a = base_adinkra(t)
    for _ in range(rng.randrange(6)):
        a = raise_vertex(a, rng.choice(sources(a)))
    return t, a.heights_by_vertex()


@given(st.integers(0, 10_000), st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_normalize_is_idempotent_and_shift_invariant(seed: int, k: int) -> None:
    t, h = heights_via_random_moves(seed)
    normal = normalize_heights(t, h)
    assert normalize_heights(t, normal) == normal
    shifted = {v: x + 2 * k for v, x in h.items()}
    assert normalize_heights(t, shifted) == normal


def test_normalize_rejects_bad_gap() -> None:
    t = square()
    with pytest.raises(AdinkraError, match="height gap"):
        normalize_heights(t, {0: 0, 1: 1, 2: 3, 3: 2})


def test_normalize_lands_min_in_zero_or_one() -> None:
    t = cube_topology(2)
    assert normalize_heights(t, {0: 4, 1: 5, 2: 5, 3: 6}) == {0: 0, 1: 1, 2: 1, 3: 2}
    assert normalize_heights(t, {0: 6, 1: 5, 2: 5, 3: 4}) == {0: 2, 1: 1, 2: 1, 3: 0}


def test_normalize_flips_odd_bosons_even() -> None:
    t = cube_topology(1)
    # a shifted pattern with the boson on an odd height slides by -1
    assert normalize_heights(t, {0: 3, 1: 2}) == {0: 2, 1: 1}


def test_normalize_per_component() -> None:
    two = Topology.build(
        1,
        {0: BOSON, 1: FERMION, 10: BOSON, 11: FERMION},
        [(0, 1, 1), (10, 11, 1)],
    )
    assert normalize_heights(two, {0: 8, 1: 9, 10: 3, 11: 2}) == {
        0: 0,
        1: 1,
        10: 2,
        11: 1,
    }


def _interleaved() -> Topology:
    """Two components whose vertex ids interleave: {0, 2} and {1, 3}, the second led by a fermion."""
    return Topology.build(1, {0: BOSON, 1: FERMION, 2: FERMION, 3: BOSON}, [(0, 2, 1), (1, 3, 1)])


@functools.cache
def _rule_bases() -> tuple[Adinkra, ...]:
    tops = [cube_topology(n, kind) for n in (1, 2, 3, 4) for kind in (SCALAR, SPINOR)]
    return tuple(base_adinkra(t) for t in tops + [antipodal_quotient(), _interleaved()])


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_one_normal_form_rule(data) -> None:
    """normalize_heights, Adinkra.normalized and engineerable agree after any walk and any shift per component."""
    a = data.draw(st.sampled_from(_rule_bases()), label="valise")
    t = a.topology
    for pick in data.draw(st.lists(st.integers(0, 1 << 16), max_size=12), label="moves"):
        sources, targets = a.extremes()
        moves = [(raise_vertex, v) for v in sources] + [(lower_vertex, v) for v in targets]
        move, v = moves[pick % len(moves)]
        a = move(a, v)
    shifts = data.draw(st.lists(st.integers(-7, 7), min_size=len(t.components()), max_size=len(t.components())))
    h = {v: a.height_of(v) + k for comp, k in zip(t.components(), shifts) for v in comp}
    normal = Adinkra.from_maps(t, h, a.parity_by_edge()).normalized().heights_by_vertex()
    assert normalize_heights(t, h) == normal
    assert engineerable(t, orientation_from_heights(t, h)).heights == normal
    normal_a = a.normalized()
    assert normal_a.heights_by_vertex() == normal  # no shift, odd or even, changes the normal form
    assert normal_a.normalized() is normal_a
    assert all(normal[v] % 2 == (t.statistics_of(v) == FERMION) for v in t.vertex_ids)
    assert all(min(normal[v] for v in comp) in (0, 1) for comp in t.components())


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda t: Adinkra.from_maps(t, {0: 0}, standard_parity(t)), "no height for vertex 1"),
        (lambda t: Adinkra.from_maps(t, {0: 0, 1: 1, 2: 1, 3: 2}, {}), "no parity for edge (0, 1, 1)"),
        (lambda t: normalize_heights(t, {0: 0}), "no height for vertex 1"),
        (lambda t: orientation_from_heights(t, {0: 0}), "no height for vertex 1"),
        (lambda t: base_adinkra(t, {}), "no parity for edge (0, 1, 1)"),
        (lambda t: hang(t, HookSet.from_map(TARGETS, {3: 2}), {}), "no parity for edge (0, 1, 1)"),
    ],
    ids=["from_maps-heights", "from_maps-parity", "normalize_heights", "orientation_from_heights", "base_adinkra", "hang"],
)
def test_map_constructors_name_the_missing_key(build, message: str) -> None:
    with pytest.raises(AdinkraError, match=f"^{re.escape(message)}$"):
        build(cube_topology(2))


_HEIGHTS2 = {0: 0, 1: 1, 2: 1, 3: 2}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda t: Adinkra.from_maps(t, {**_HEIGHTS2, 99: 7}, standard_parity(t)), "height for vertex 99: not in the topology"),
        (
            lambda t: Adinkra.from_maps(t, _HEIGHTS2, {**standard_parity(t), (5, 6, 1): 3}),
            "parity for edge (5, 6, 1): not in the topology",
        ),
        # a non-canonical triple names no edge either
        (lambda t: base_adinkra(t, {**standard_parity(t), (1, 0, 1): 0}), "parity for edge (1, 0, 1): not in the topology"),
        (lambda t: normalize_heights(t, {**_HEIGHTS2, 99: "x"}), "height for vertex 99: not in the topology"),
        (lambda t: orientation_from_heights(t, {99: 0, **_HEIGHTS2}), "height for vertex 99: not in the topology"),
        (lambda t: base_adinkra(t, {**standard_parity(t), (5, 6, 1): 3}), "parity for edge (5, 6, 1): not in the topology"),
        (
            lambda t: hang(t, HookSet.from_map(TARGETS, {3: 2}), {**standard_parity(t), (5, 6, 1): 0}),
            "parity for edge (5, 6, 1): not in the topology",
        ),
    ],
    ids=[
        "from_maps-heights",
        "from_maps-parity",
        "base_adinkra-reversed",
        "normalize_heights",
        "orientation_from_heights",
        "base_adinkra",
        "hang",
    ],
)
def test_map_constructors_name_the_unknown_key(build, message: str) -> None:
    with pytest.raises(AdinkraError, match=f"^{re.escape(message)}$"):
        build(cube_topology(2))


def test_a_missing_key_is_named_before_an_unknown_one() -> None:
    with pytest.raises(AdinkraError, match=r"^no height for vertex 3$"):
        normalize_heights(cube_topology(2), {0: 0, 1: 1, 2: 1, 99: 2})


# ---------------------------------------------------------------------------
# edge parity solver


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_solved_parity_satisfies_odd_square_rule(n: int) -> None:
    t = cube_topology(n)
    res = solve_edge_parity(t)
    assert res.ok
    assert parity_violations(t, tuple(res.parity[e] for e in t.edges)) == []


def _two_squares() -> Topology:
    stats = {**SQUARE_STATS, **{v + 4: s for v, s in SQUARE_STATS.items()}}
    edges = SQUARE_EDGES + [(u + 4, v + 4, c) for u, v, c in SQUARE_EDGES]
    return Topology.build(2, stats, edges)


@pytest.mark.parametrize(
    "t",
    [cube_topology(n) for n in (1, 3, 5)] + [cube_topology(4, SPINOR), antipodal_quotient(), _two_squares()],
)
def test_recorded_forest_spans_every_component(t: Topology) -> None:
    forest = [t.edges[i] for i in t._forest]
    assert len(forest) == len(t.vertex_ids) - len(t.components())
    root = {v: v for v in t.vertex_ids}

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for u, v, _ in forest:
        assert find(u) != find(v)  # no cycle, so V - C edges span
        root[find(u)] = find(v)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_standard_parity_satisfies_odd_square_rule(n: int) -> None:
    t = cube_topology(n)
    parity = standard_parity(t)
    assert parity_violations(t, tuple(parity[e] for e in t.edges)) == []


# (n, word) with |word| = 4, 4, 4, 8: the doubly-even codes {0, word}
SOLVABLE_CODES = [(4, 0b1111), (5, 0b11110), (6, 0b110110), (8, 0b11111111)]
# |word| = 6, 6, 6: even but not doubly even
UNSOLVABLE_CODES = [(6, 0b111111), (7, 0b1111110), (8, 0b11111100)]


def _hexagon() -> Topology:
    """A two-colored 6-cycle: no square constrains it, so its sixth edge stays free after the gauge."""
    stats = {v: (BOSON, FERMION)[v % 2] for v in range(6)}
    return Topology.build(2, stats, [(v, (v + 1) % 6, v % 2 + 1) for v in range(6)])


def _parity_cases():
    cases = [cube_topology(n, kind) for n in range(1, 9) for kind in ("scalar", SPINOR)]
    cases += [antipodal_quotient(), _two_squares(), _hexagon()]
    cases += [code_quotient(n, (w,)) for n, w in SOLVABLE_CODES + UNSOLVABLE_CODES]
    return cases


def _doubled_edges() -> Topology:
    """Colors 1 and 2 both join 0-1 and 2-3; color 3 closes two (1, 3) and (2, 3) squares."""
    stats = {0: BOSON, 1: FERMION, 2: BOSON, 3: FERMION}
    return Topology.build(3, stats, [(0, 1, 1), (0, 1, 2), (2, 3, 1), (2, 3, 2), (0, 3, 3), (1, 2, 3)])


def _square_cases():
    cases = _parity_cases()
    cases.append(Topology.build(2, {0: BOSON, 1: FERMION}, [(0, 1, 1), (0, 1, 2)]))
    cases.append(_doubled_edges())
    # two components, one with doubled edges, interleaved with a 3-cube on ids 10..17
    c3 = cube_topology(3)
    doubled = _doubled_edges()
    stats = {**dict(zip(doubled.vertex_ids, doubled.statistics)), **{v + 10: s for v, s in zip(c3.vertex_ids, c3.statistics)}}
    cases.append(Topology.build(3, stats, list(doubled.edges) + [(u + 10, v + 10, c) for u, v, c in c3.edges]))
    return cases


# the doubled-edge cases check that propagation closes no square through a doubled edge
@pytest.mark.parametrize("t", _square_cases(), ids=lambda t: f"{t.n_colors}c{len(t.vertex_ids)}v")
def test_parity_solve_matches_column_elimination(t: Topology) -> None:
    assert solve_edge_parity(t) == column_solve_edge_parity(t)


def test_the_hexagon_keeps_one_edge_free_and_solves_it_to_zero() -> None:
    t = _hexagon()
    assert t.squares == () and len(t._forest) == len(t.edges) - 1
    assert solve_edge_parity(t) == ParityResult(ok=True, parity=dict.fromkeys(t.edges, 0))


@pytest.mark.parametrize("n", [9, 10])
def test_parity_solve_matches_the_elimination_on_large_cubes(n: int) -> None:
    # the column oracle is too slow here, so the elimination it checks stands in for it
    t = cube_topology(n)
    assert solve_edge_parity(t) == _eliminated_parity(t)


def test_the_cube_parity_solve_builds_no_elimination_rows() -> None:
    t = cube_topology(10)
    t.squares  # cached, so what is traced is the solve itself
    tracemalloc.start()
    try:
        assert solve_edge_parity(t).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 1.25x the measured 231,926 bytes (Python 3.11.7); by elimination the solve peaks at 20.4 MB
    assert peak < 290_000


@pytest.mark.parametrize("t", _square_cases(), ids=lambda t: f"{t.n_colors}c{len(t.vertex_ids)}v")
def test_squares_match_the_cycle_walk_in_order(t: Topology) -> None:
    assert t.squares == bichromatic_squares(t)


@pytest.mark.parametrize("t", _square_cases(), ids=lambda t: f"{t.n_colors}c{len(t.vertex_ids)}v")
def test_the_incidence_table_holds_each_vertex_s_edge_of_each_color(t: Topology) -> None:
    assert t._incident == tuple(
        tuple(t.edge_index(v, t.neighbor(v, c), c) for c in range(1, t.n_colors + 1)) for v in t.vertex_ids
    )


@pytest.mark.parametrize(
    "t",
    [cube_topology(n, kind) for n in range(1, 11) for kind in (SCALAR, SPINOR)] + [antipodal_quotient()],
    ids=lambda t: f"{t.n_colors}c{len(t.vertex_ids)}v{t.statistics[0][0]}",
)
def test_squares_match_the_color_pair_walk(t: Topology) -> None:
    assert t.squares == color_pair_squares(t)


def test_squares_of_many_doubled_colors_cost_what_the_edges_allow() -> None:
    # every color joins the same two vertices, so no pair of colors can close a square
    t = Topology.build(2000, {0: BOSON, 1: FERMION}, [(0, 1, c) for c in range(1, 2001)])
    start = time.perf_counter()
    assert t.squares == ()
    assert time.perf_counter() - start < 0.05


def split_k22(n_colors: int) -> Topology:
    """K_{2,2} with its first half of colors on one perfect matching and the rest on the other.

    Every color of one half closes a square with every color of the other,
    so a few vertices carry (n_colors / 2)^2 squares.
    """
    half = n_colors // 2
    edges = [(u, v, c) for c in range(1, half + 1) for u, v in ((0, 1), (2, 3))]
    edges += [(u, v, c) for c in range(half + 1, n_colors + 1) for u, v in ((0, 3), (1, 2))]
    return Topology.build(n_colors, {0: BOSON, 1: FERMION, 2: BOSON, 3: FERMION}, edges)


def test_the_parity_solve_refuses_too_many_squares_before_building_rows() -> None:
    assert len(cube_topology(10).squares) == 11_520 <= MAX_PARITY_SQUARES
    assert len(split_k22(256).squares) == 128**2 == MAX_PARITY_SQUARES
    t = split_k22(258)
    assert len(t.squares) == 129**2
    tracemalloc.start()
    try:
        with pytest.raises(AdinkraError) as info:
            solve_edge_parity(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"16641 two-color squares exceed the cap of {MAX_PARITY_SQUARES} on the parity solve"
    # the squares were cached before tracing, so this is what the refusal itself allocates
    assert peak < 10_000


# tracemalloc peak in bytes of refusing split_k22(800) with no square cached, measured with Python 3.11.7
# once the solve counted squares past the cap without holding them (36,036,532 while it built every
# square first; 225 MB on split_k22(2000)); the bound is 1.25x
SQUARE_REFUSAL_PEAK = 2_533_500


def test_the_parity_solve_refuses_too_many_squares_without_holding_them() -> None:
    t = split_k22(800)
    tracemalloc.start()
    try:
        with pytest.raises(AdinkraError) as info:
            solve_edge_parity(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the count past the cap is exact, and no square is kept
    assert str(info.value) == f"160000 two-color squares exceed the cap of {MAX_PARITY_SQUARES} on the parity solve"
    assert "squares" not in vars(t)
    assert peak <= SQUARE_REFUSAL_PEAK * 5 // 4


def test_the_parity_check_refuses_too_many_squares_without_holding_them() -> None:
    # with the cap the check counts the squares as the solve does; without it, deserializing
    # this Adinkra on split_k22(2000) took 7.6 s and 509 MB and raised a 71 MB message
    t = split_k22(800)
    tracemalloc.start()
    try:
        with pytest.raises(AdinkraError) as info:
            Adinkra(t, t._valise, (0,) * len(t.edges))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"160000 two-color squares exceed the cap of {MAX_PARITY_SQUARES} on the parity check"
    assert "squares" not in vars(t)
    assert peak <= SQUARE_REFUSAL_PEAK * 5 // 4


@pytest.mark.parametrize(
    "build",
    [lambda: cube_topology(4), antipodal_quotient, lambda: code_quotient(6, (0b111111,))],
    ids=["cube4", "quotient4", "unsolvable"],
)
def test_the_parity_solve_walks_the_squares_once(build, monkeypatch) -> None:
    # propagation reads the adjacency and incidence tables and walks nothing; the cap, the final
    # every-square-odd test, the elimination's squares and later readers share the one walk
    t = build()
    walks = []
    square_walk = Topology._square_walk
    monkeypatch.setattr(Topology, "_square_walk", lambda self: walks.append(self) or square_walk(self))
    solve_edge_parity(t)
    solve_edge_parity(t)
    parity_violations(t, (0,) * len(t.edges))
    assert walks == [t]


@pytest.mark.parametrize("t", _square_cases(), ids=lambda t: f"{t.n_colors}c{len(t.vertex_ids)}v")
def test_the_square_table_holds_the_squares_in_walk_order(t: Topology) -> None:
    it = iter(t._square_table("parity check"))
    assert sorted(zip(it, it, it, it)) == sorted(square for _, _, square in t.squares)


@pytest.mark.parametrize("t", _square_cases(), ids=lambda t: f"{t.n_colors}c{len(t.vertex_ids)}v")
def test_the_square_table_finds_an_even_square_where_parity_violations_does(t: Topology) -> None:
    rng = random.Random(len(t.edges))
    table = t._square_table("parity check")
    solved = solve_edge_parity(t)
    starts = [tuple(solved.parity[e] for e in t.edges)] if solved.ok else []
    for parity in starts + [tuple(rng.randrange(2) for _ in t.edges) for _ in range(20)]:
        assert _odd_squares(table, parity) == (parity_violations(t, parity) == [])


def test_an_adinkra_on_a_fresh_cube_lists_no_squares() -> None:
    # the odd-square check reads the square table; only a violation lists the sorted squares
    t = cube_topology(8)
    Adinkra(t, t._valise, tuple(standard_parity(t)[e] for e in t.edges))
    assert "squares" not in vars(t)


def test_doubled_edges_close_squares_only_through_a_third_color() -> None:
    t = _doubled_edges()
    assert [(c1, c2, [t.edges[i] for i in sq]) for c1, c2, sq in t.squares] == [
        (1, 3, [(0, 1, 1), (1, 2, 3), (2, 3, 1), (0, 3, 3)]),
        (2, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 2), (0, 3, 3)]),
    ]


@pytest.mark.parametrize("n, word", SOLVABLE_CODES + UNSOLVABLE_CODES)
def test_code_quotient_is_solvable_exactly_when_doubly_even(n: int, word: int) -> None:
    t = code_quotient(n, (word,))
    res = solve_edge_parity(t)
    assert res.ok == doubly_even(word)
    if res.ok:
        assert parity_violations(t, tuple(res.parity[e] for e in t.edges)) == []
        assert res.certificate is None
    else:
        assert res.parity is None


@pytest.mark.parametrize("n, word", UNSOLVABLE_CODES)
def test_certificate_sums_to_zero_equals_one(n: int, word: int) -> None:
    t = code_quotient(n, (word,))
    cert = solve_edge_parity(t).certificate
    # each square contributes 1 on the right; every edge must cancel on the left
    assert len(cert) % 2 == 1
    assert len(set(cert)) == len(cert)
    assert set(cert) <= {tuple(t.edges[i] for i in sq) for _, _, sq in t.squares}
    cover: dict = {}
    for sq in cert:
        assert len(sq) == 4
        for e in sq:
            cover[e] = cover.get(e, 0) + 1
    assert all(k % 2 == 0 for k in cover.values())


def test_parity_failure_names_every_certificate_square() -> None:
    t = code_quotient(6, (0b111111,))
    cert = solve_edge_parity(t).certificate
    assert len(cert) == 15
    hooks = HookSet.from_map(SOURCES, {0: 0})
    for build in (lambda: hang(t, hooks), lambda: base_adinkra(t)):
        with pytest.raises(AdinkraError) as info:
            build()
        msg = str(info.value)
        assert msg.startswith(
            "no odd-square edge parity exists for this topology: "
            "the odd-square rules of these 15 squares sum to 0 = 1: square on vertices ["
        )
        assert msg.count("square on vertices") == 15
        assert "square on vertices [0, 15, 16, 31] (colors 5,6)" in msg
