from __future__ import annotations

import tracemalloc
from enum import IntEnum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adinkra.core import BOSON, FERMION, AdinkraError, Topology, parity_violations
from adinkra.cube import (
    MAX_CUBE_COLORS,
    SCALAR,
    SPINOR,
    antipodal_quotient,
    code_quotient,
    cube_signature,
    cube_statistics,
    cube_topology,
    dist0,
    hgt0,
    standard_parity,
    subset_label,
)

from test_mutation import QUOTIENT_CENSUS


def test_hgt0_counts_bits() -> None:
    assert [hgt0(v) for v in range(8)] == [0, 1, 1, 2, 1, 2, 2, 3]


@given(st.integers(0, 255), st.integers(0, 255))
def test_dist0_is_hamming(a: int, b: int) -> None:
    assert dist0(a, b) == bin(a ^ b).count("1")
    assert dist0(a, b) == dist0(b, a)
    assert (dist0(a, b) == 0) == (a == b)


def test_subset_label() -> None:
    assert subset_label(0) == "{}"
    assert subset_label(0b101) == "{1,3}"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cube_shape(n: int) -> None:
    t = cube_topology(n)
    assert t.vertex_ids == tuple(range(1 << n))
    assert len(t.edges) == n * (1 << (n - 1))
    assert len(t.components()) == 1


def test_cube_above_the_cap_fails_before_building() -> None:
    assert MAX_CUBE_COLORS >= 9
    tracemalloc.start()
    try:
        with pytest.raises(AdinkraError, match="cap"):
            cube_topology(MAX_CUBE_COLORS + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 11-cube's vertex table alone would take megabytes
    assert peak < 100_000


def test_cube_statistics_conventions() -> None:
    assert cube_statistics(0, SCALAR) == BOSON
    assert cube_statistics(0b11, SCALAR) == BOSON
    assert cube_statistics(0b1, SCALAR) == FERMION
    assert cube_statistics(0, SPINOR) == FERMION
    assert cube_statistics(0b1, SPINOR) == BOSON


def test_cube_edges_flip_one_bit() -> None:
    t = cube_topology(3)
    for u, v, c in t.edges:
        assert u ^ v == 1 << (c - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", [SCALAR, SPINOR])
def test_standard_parity_is_odd_on_squares(n: int, kind: str) -> None:
    t = cube_topology(n, kind)
    parity = standard_parity(t)
    assert parity_violations(t, tuple(parity[e] for e in t.edges)) == []


def test_standard_parity_closed_form() -> None:
    t = cube_topology(3)
    parity = standard_parity(t)
    for u, v, c in t.edges:
        below = (1 << (c - 1)) - 1
        assert parity[(u, v, c)] == bin(u & below).count("1") % 2


def test_standard_parity_rejects_non_cube() -> None:
    q = antipodal_quotient()
    with pytest.raises(AdinkraError):
        standard_parity(q)


def test_cube_signature_recognizes_cubes() -> None:
    for n in range(1, MAX_CUBE_COLORS + 1):
        for kind in (SCALAR, SPINOR):
            assert cube_signature(cube_topology(n, kind)) == (n, kind)


def test_cube_signature_rejects_quotient_and_relabelings() -> None:
    assert cube_signature(antipodal_quotient()) is None

    from adinkra.core import Topology

    hexagon = Topology.build(
        2,
        {i: (BOSON if i % 2 == 0 else FERMION) for i in range(6)},
        [(0, 1, 1), (2, 3, 1), (4, 5, 1), (1, 2, 2), (3, 4, 2), (5, 0, 2)],
    )
    assert cube_signature(hexagon) is None


def test_cube_signature_compares_edges_without_building_a_cube(monkeypatch) -> None:
    from adinkra.core import Topology

    cubes = [cube_topology(n, kind) for n in (1, 2, 3) for kind in (SCALAR, SPINOR)]
    # the square with its two colors swapped: the cube's vertices and statistics, not its edges
    swapped = Topology.build(
        2, {0: BOSON, 1: FERMION, 2: FERMION, 3: BOSON}, [(0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 2)]
    )
    monkeypatch.setattr("adinkra.cube.Topology", None)
    assert [cube_signature(t) for t in cubes] == [(n, kind) for n in (1, 2, 3) for kind in (SCALAR, SPINOR)]
    assert cube_signature(swapped) is None


def test_cube_signature_counts_vertices_without_building_the_cube_range() -> None:
    from adinkra.core import Topology

    # two vertices joined by 20 colors: the 20-cube's range of vertex ids would hold 2^20 ints
    two = Topology.build(20, {0: BOSON, 1: FERMION}, [(0, 1, c) for c in range(1, 21)])
    empty = Topology.build(100, {}, [])
    tracemalloc.start()
    try:
        found = [cube_signature(two), cube_signature(empty)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == [None, None]
    assert peak < 1_000_000


def test_quotient_shape() -> None:
    q = antipodal_quotient()
    assert len(q.vertex_ids) == 8
    assert len(q.edges) == 16
    assert q.n_colors == 4
    assert len(q.components()) == 1
    # identified pairs keep the scalar statistics of their representatives
    for v in q.vertex_ids:
        assert q.statistics_of(v) == cube_statistics(v, SCALAR)
    # no two edges join the same vertex pair
    pairs = [(u, v) for u, v, _ in q.edges]
    assert len(pairs) == len(set(pairs))


def test_quotient_identifies_antipodes() -> None:
    q = antipodal_quotient()
    cube = cube_topology(4)
    for u, v, c in cube.edges:
        ru, rv = min(u, u ^ 15), min(v, v ^ 15)
        assert q.neighbor(ru, c) == rv


def test_standard_parity_does_not_descend_to_quotient() -> None:
    # each quotient edge has two preimages in the four-color cube; for some
    # edge they carry opposite standard parities, so no pushforward exists
    cube = cube_topology(4)
    parity = standard_parity(cube)
    mismatched = 0
    for u, v, c in cube.edges:
        mu, mv = u ^ 15, v ^ 15
        mate = (min(mu, mv), max(mu, mv), c)
        if parity[(u, v, c)] != parity[mate]:
            mismatched += 1
    assert mismatched > 0


@pytest.mark.parametrize("kind", [SCALAR, SPINOR])
def test_the_cube_is_the_quotient_by_the_empty_code(kind: str) -> None:
    for n in range(1, MAX_CUBE_COLORS + 1):
        assert cube_topology(n, kind) == code_quotient(n, (), kind)


_QUOTIENT_CODES = [(n, (), kind) for n in range(1, MAX_CUBE_COLORS + 1) for kind in (SCALAR, SPINOR)]
_QUOTIENT_CODES += [(n, generators, SCALAR) for n, generators, *_ in QUOTIENT_CENSUS.values()]


@pytest.mark.parametrize("n, generators, kind", _QUOTIENT_CODES, ids=str)
def test_a_code_quotient_is_the_topology_build_makes_of_its_data(n: int, generators: tuple, kind: str) -> None:
    # code_quotient builds without Topology.build's edge check, which its code checks make redundant
    q = code_quotient(n, generators, kind)
    built = Topology.build(n, dict(zip(q.vertex_ids, q.statistics)), reversed(q.edges))
    assert q == built
    assert (q._adjacent, q._incident, q._forest) == (built._adjacent, built._incident, built._forest)


def test_the_antipodal_quotient_is_the_quotient_by_the_all_ones_word() -> None:
    assert antipodal_quotient() == code_quotient(4, (0b1111,))


def test_a_two_word_quotient_keys_each_class_by_its_least_subset() -> None:
    code = (0, 0b001111, 0b111100, 0b110011)
    q = code_quotient(6, (0b001111, 0b111100))
    assert q.vertex_ids == tuple(v for v in range(64) if v == min(v ^ w for w in code))
    assert len(q.vertex_ids) == 16 and len(q.edges) == 48
    for v in q.vertex_ids:
        assert q.statistics_of(v) == cube_statistics(v, SCALAR)
        for c in range(1, 7):
            assert q.neighbor(v, c) == min(v ^ 1 << (c - 1) ^ w for w in code)


_WEIGHTS = "not an even weight of at least 4"
REFUSED_CODES = {
    "weight 2": (4, (0b0011,), f"code word {{1,2}} has weight 2, {_WEIGHTS}"),
    "odd weight": (5, (0b11100,), f"code word {{3,4,5}} has weight 3, {_WEIGHTS}"),
    "weight 2 sum": (6, (0b001111, 0b011110), f"code word {{1,5}} has weight 2, {_WEIGHTS}"),
    "dependent": (
        6,
        (0b001111, 0b111100, 0b110011),
        "generator {1,2,5,6} lies in the span of the generators before it",
    ),
    "zero": (4, (0,), "generator 0 is not an int in 1..15"),
    "2^n": (4, (16,), "generator 16 is not an int in 1..15"),
    "bool": (4, (True,), "generator True is not an int in 1..15"),
    "no colors": (0, (), "need a positive number of colors, got 0"),
    "bool colors": (True, (), "need a positive number of colors, got True"),
    "over the cap": (
        MAX_CUBE_COLORS + 1,
        (0b1111,),
        f"{MAX_CUBE_COLORS + 1} colors exceeds the cap of {MAX_CUBE_COLORS} on cube size",
    ),
}


def test_a_color_count_that_is_an_int_enum_is_refused() -> None:
    two = IntEnum("Colors", {"TWO": 2}).TWO
    for build in (lambda: cube_topology(two), lambda: code_quotient(two, ())):
        with pytest.raises(AdinkraError, match=r"^need a positive number of colors, got <Colors\.TWO: 2>$"):
            build()


@pytest.mark.parametrize("case", sorted(REFUSED_CODES))
def test_code_quotient_refuses_a_bad_code_before_building(case: str) -> None:
    n, generators, message = REFUSED_CODES[case]
    tracemalloc.start()
    try:
        with pytest.raises(AdinkraError) as info:
            code_quotient(n, generators)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == message
    assert peak < 100_000
