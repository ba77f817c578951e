from __future__ import annotations

import re

import pytest

from adinkra.core import BOSON, FERMION, AdinkraError, Topology
from adinkra.cube import cube_topology, standard_parity
from adinkra.hanging import SOURCES, TARGETS, HookSet, check_hooks, hang, hooks_of, one_hooked
from adinkra.mutation import (
    base_adinkra,
    enumerate_family,
    lower_vertex,
    lowering_sequence_to_one_hooked,
)


def test_hookset_is_canonical() -> None:
    hs = HookSet.from_map(TARGETS, {3: 2, 0: 2})
    assert hs.hooks == ((0, 2), (3, 2))
    assert hs.as_map() == {0: 2, 3: 2}


def test_hookset_rejects_bad_mode() -> None:
    # refused when built, whichever way it is built
    for build in (lambda: HookSet.from_map("sideways", {0: 2}), lambda: HookSet("sideways", ())):
        with pytest.raises(AdinkraError, match="^hook mode must be targets or sources, got 'sideways'$"):
            build()


def test_hang_from_two_targets_makes_the_x() -> None:
    t = cube_topology(2)
    a = hang(t, HookSet.from_map(TARGETS, {0: 2, 3: 2}))
    assert a.heights_by_vertex() == {0: 2, 1: 1, 2: 1, 3: 2}


def test_hang_from_sources_uses_min_rule() -> None:
    t = cube_topology(2)
    a = hang(t, HookSet.from_map(SOURCES, {0: 0, 3: 0}))
    assert a.heights_by_vertex() == {0: 0, 1: 1, 2: 1, 3: 0}


def test_hang_single_hook_counts_distance() -> None:
    t = cube_topology(3)
    a = hang(t, HookSet.from_map(TARGETS, {7: 3}))
    assert a.heights_by_vertex() == {v: 3 - bin(v ^ 7).count("1") for v in range(8)}


def test_hang_keeps_explicit_parity() -> None:
    t = cube_topology(2)
    parity = standard_parity(t)
    a = hang(t, HookSet.from_map(TARGETS, {0: 2, 3: 2}), parity)
    assert a.parity_by_edge() == parity


def test_check_hooks_flags_uncovered_component() -> None:
    two = Topology.build(
        1,
        {0: BOSON, 1: FERMION, 10: BOSON, 11: FERMION},
        [(0, 1, 1), (10, 11, 1)],
    )
    report = check_hooks(two, HookSet.from_map(TARGETS, {0: 0}))
    assert any("component" in line for line in report)


def test_check_hooks_flags_statistics_parity() -> None:
    t = cube_topology(2)
    report = check_hooks(t, HookSet.from_map(TARGETS, {0: 2, 3: 1}))
    assert any("parity" in line for line in report)


def test_check_hooks_names_the_parity_each_statistics_needs() -> None:
    t = cube_topology(2)
    report = check_hooks(t, HookSet.from_map(TARGETS, {0: 1, 1: 2, 2: 1, 3: 3}))
    assert report[:3] == [
        "hook 0 has height 1, but a boson needs parity 0",
        "hook 1 has height 2, but a fermion needs parity 1",
        "hook 3 has height 3, but a boson needs parity 0",
    ]


def test_one_hooked_names_the_hook_of_the_wrong_parity() -> None:
    t = cube_topology(2)
    with pytest.raises(AdinkraError, match=r"^hook height 1 does not match the statistics parity of vertex 3$"):
        one_hooked(t, 3, 1)
    with pytest.raises(AdinkraError, match=r"^hook height 2 does not match the statistics parity of vertex 1$"):
        one_hooked(t, 1, 2)


def test_check_hooks_flags_too_close_pair() -> None:
    t = cube_topology(2)
    report = check_hooks(t, HookSet.from_map(TARGETS, {0: 0, 3: 2}))
    assert any("distance" in line for line in report)
    assert check_hooks(t, HookSet.from_map(TARGETS, {0: 2, 3: 2})) == []


def test_check_hooks_rejects_unknown_vertex() -> None:
    t = cube_topology(2)
    with pytest.raises(AdinkraError):
        check_hooks(t, HookSet.from_map(TARGETS, {9: 2}))


def test_hang_raises_on_violations() -> None:
    t = cube_topology(2)
    with pytest.raises(AdinkraError):
        hang(t, HookSet.from_map(TARGETS, {0: 0, 3: 2}))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hang_hooks_of_round_trip_on_families(n: int) -> None:
    t = cube_topology(n)
    fam = enumerate_family(t)
    for member in fam.members.values():
        hooked = hooks_of(member)
        again = hang(t, hooked, member.parity_by_edge())
        assert again.heights == member.heights
        assert again.parity == member.parity


def test_hooks_of_lists_targets_with_heights() -> None:
    t = cube_topology(2)
    a = base_adinkra(t)
    hs = hooks_of(a)
    assert hs.mode == TARGETS
    assert hs.as_map() == {1: 1, 2: 1}


def test_one_hooked_matches_descent_landing() -> None:
    t = cube_topology(3)
    a = hang(t, HookSet.from_map(TARGETS, {7: 3}))
    start = base_adinkra(t)
    moves = lowering_sequence_to_one_hooked(start, 7)
    landed = start
    for v in moves:
        landed = lower_vertex(landed, v)
    expected = one_hooked(t, 7, start.height_of(7), start.parity_by_edge())
    assert landed.heights == expected.heights
    assert hooks_of(landed).as_map() == {7: start.height_of(7)}
    assert a.heights_by_vertex()[7] == 3


def test_one_hooked_requires_connected_topology() -> None:
    two = Topology.build(
        1,
        {0: BOSON, 1: FERMION, 10: BOSON, 11: FERMION},
        [(0, 1, 1), (10, 11, 1)],
    )
    with pytest.raises(AdinkraError):
        one_hooked(two, 0, 0)


def test_hookset_sorts_the_hooks_it_is_given() -> None:
    given = HookSet(TARGETS, ((3, 2), (0, 2)))
    assert given.hooks == ((0, 2), (3, 2))
    assert given == HookSet.from_map(TARGETS, {3: 2, 0: 2})
    assert hash(given) == hash(HookSet.from_map(TARGETS, {0: 2, 3: 2}))


@pytest.mark.parametrize("hooks", [((0, 2), (0, 0)), ((0, 0), (3, 2), (0, 2))])
def test_hookset_refuses_a_vertex_hooked_twice(hooks) -> None:
    with pytest.raises(AdinkraError, match=r"^vertex 0 is hooked twice$"):
        HookSet(TARGETS, hooks)


@pytest.mark.parametrize("hook", [(0, "2"), (0, 2.0), (0, False), [0, 2], (0, 2, 1), (0,), 0, None])
def test_hookset_refuses_a_hook_that_is_no_pair_of_ints(hook) -> None:
    shown = re.escape(repr(hook))
    with pytest.raises(AdinkraError, match=rf"^hook {shown} is not a \(vertex, height\) pair of ints$"):
        HookSet(TARGETS, ((3, 2), hook))


@pytest.mark.parametrize("vertex", [0.0, True, "0", None])
def test_hookset_refuses_a_vertex_that_is_no_int_as_unknown(vertex) -> None:
    with pytest.raises(AdinkraError, match=rf"^hook references unknown vertex {re.escape(str(vertex))}$"):
        HookSet(TARGETS, ((3, 2), (vertex, 2)))


@pytest.mark.parametrize("height", [3.0, "3", None, True])
def test_one_hooked_refuses_a_height_that_is_no_int(height) -> None:
    with pytest.raises(AdinkraError, match=rf"^hook height {re.escape(repr(height))} is not an int$"):
        one_hooked(cube_topology(3), 7, height)
