from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from enum import IntEnum
from dataclasses import replace
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinkra import constraints, core, mutation, superspace
from adinkra.core import Adinkra, AdinkraError
from adinkra.cube import (
    SCALAR,
    MAX_CUBE_COLORS,
    SPINOR,
    antipodal_quotient,
    cube_topology,
    hgt0,
    standard_parity,
)
from adinkra.constraints import (
    MAX_BATTERY_TERMS,
    Identification,
    Lowest,
    N2_DOUBLET_ANNIHILATOR,
    N3_QUINTET_ANNIHILATOR,
    N3_TRIPLET_ANNIHILATOR,
    SourceSpec,
    VerificationReport,
    check_annihilation,
    dimension_vector,
    ehgt_violations,
    emit_constraints,
    format_dimension_vector,
    gradient_column,
    identify,
    image_adinkra,
    kernel_orders,
    m_alpha,
    mu,
    projector,
    verify_presentation,
)
from adinkra.document import DocumentError, deserialize, serialize
from adinkra.mutation import base_adinkra, enumerate_family, lower_vertex, targets
from adinkra.superspace import (
    MINUS_ONE,
    D,
    Phase,
    SuperOp,
    apply_op,
    descending_product,
    dtau_expr,
    expr_scale,
    expr_sub,
    generic_superfield,
)

from oracles import half_distance_mu, projected_lowest, searched_redundant_flags, substituted_report, two_word_project


X_SPEC = SourceSpec(2, ((1, 0), (2, 0)))
TRIPLE_SPEC = SourceSpec(3, ((1, 0), (2, 0), (4, 0)))


# ---------------------------------------------------------------------------
# specs, mu, and images


def test_spec_validation() -> None:
    with pytest.raises(AdinkraError, match="at least one"):
        SourceSpec(2, ())
    with pytest.raises(AdinkraError, match="twice"):
        SourceSpec(2, ((1, 0), (1, 1)))
    with pytest.raises(AdinkraError, match="negative"):
        SourceSpec(2, ((1, -1),))
    with pytest.raises(AdinkraError, match="outside"):
        SourceSpec(2, ((4, 0),))


@pytest.mark.parametrize(
    "entries, bad",
    [
        (((1, 0.5), (2, 0)), (1, 0.5)),
        (((1.0, 0),), (1.0, 0)),
        ((("1", 0),), ("1", 0)),
        (((1,),), (1,)),
        (((1, 0, 0),), (1, 0, 0)),
        (((True, 0),), (True, 0)),
        (((1, False),), (1, False)),
        (([1, 0],), [1, 0]),
        ((None,), None),
    ],
)
def test_spec_entries_must_be_pairs_of_ints(entries, bad) -> None:
    with pytest.raises(AdinkraError) as info:
        SourceSpec(2, entries)
    assert str(info.value) == f"a source spec entry must be a (subset, shift) pair of ints, got {bad!r}"


@pytest.mark.parametrize("entries, name", [(5, "int"), ([(1, 0), (2, 0)], "list")])
def test_spec_entries_must_be_a_tuple(entries, name) -> None:
    with pytest.raises(AdinkraError) as info:
        SourceSpec(2, entries)
    assert str(info.value) == f"a source spec needs a tuple of entries, got {name}"


def test_spec_refuses_an_int_enum_color_count() -> None:
    two = IntEnum("Colors", {"TWO": 2}).TWO
    with pytest.raises(AdinkraError) as info:
        SourceSpec(two, ((1, 0),))
    assert str(info.value) == f"a source spec needs 1..{MAX_CUBE_COLORS} colors (the cube cap), got <Colors.TWO: 2>"


@pytest.mark.parametrize("n", [0, MAX_CUBE_COLORS + 1, 10_000_000, True, 2.0])
def test_spec_color_count_is_capped_before_building(n) -> None:
    tracemalloc.start()
    try:
        with pytest.raises(AdinkraError, match="cube cap"):
            SourceSpec(n, ((1, 0),))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 1 << 10_000_000 alone would take over a megabyte
    assert peak < 100_000
    assert SourceSpec(MAX_CUBE_COLORS, ((1, 0),)).n_colors == MAX_CUBE_COLORS


def test_ehgt_flags_dominated_entries() -> None:
    assert ehgt_violations(X_SPEC) == []
    report = ehgt_violations(SourceSpec(2, ((0, 0), (1, 0))))
    assert any("reaches distance" in line for line in report)
    with pytest.raises(AdinkraError, match="extreme"):
        image_adinkra(SourceSpec(2, ((0, 0), (1, 0))))


def test_mu_of_x_spec() -> None:
    assert [mu(X_SPEC, c) for c in range(4)] == [1, 0, 0, 0]
    assert kernel_orders(X_SPEC) == {0: 1, 1: 0, 2: 0, 3: 0}


@st.composite
def _batteries(draw) -> SourceSpec:
    """One to eight distinct subsets of at most 4 colors, each with a shift up to 3, extreme or not."""
    n = draw(st.integers(1, 4))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8, unique=True))
    return SourceSpec(n, tuple((mask, draw(st.integers(0, 3))) for mask in masks))


@settings(max_examples=200, deadline=None)
@given(_batteries())
def test_mu_matches_half_distance_formula(spec: SourceSpec) -> None:
    for c in range(1 << spec.n_colors):
        assert mu(spec, c) == half_distance_mu(spec, c)


def test_image_of_x_spec_is_the_x() -> None:
    img = image_adinkra(X_SPEC)
    assert img.heights_by_vertex() == {0: 2, 1: 1, 2: 1, 3: 2}


def test_image_heights_are_hgt0_plus_2mu() -> None:
    img = image_adinkra(TRIPLE_SPEC)
    for v, h in img.heights_by_vertex().items():
        assert h == hgt0(v) + 2 * mu(TRIPLE_SPEC, v)


def test_shifted_entry_raises_the_source() -> None:
    spec = SourceSpec(1, ((0, 1),))
    img = image_adinkra(spec)
    assert img.heights_by_vertex() == {0: 2, 1: 3}


# ---------------------------------------------------------------------------
# identification


def test_identify_round_trips_the_x() -> None:
    ident = identify(image_adinkra(X_SPEC))
    assert ident.spec == X_SPEC
    assert ident.kind == SCALAR


def test_identify_round_trips_spinor_cubes() -> None:
    ident = identify(image_adinkra(X_SPEC, SPINOR))
    assert ident.spec == X_SPEC
    assert ident.kind == SPINOR


@pytest.mark.parametrize("n", [1, 2])
def test_identify_images_of_all_members(n: int) -> None:
    from adinkra.cube import cube_topology

    fam = enumerate_family(cube_topology(n))
    for member in fam.members.values():
        ident = identify(member)
        image = image_adinkra(ident.spec, ident.kind)
        assert image.normalized().heights == member.normalized().heights


def test_identify_moves_replay_to_one_hooked() -> None:
    img = image_adinkra(TRIPLE_SPEC)
    ident = identify(img)
    current = img
    for v in ident.moves:
        current = lower_vertex(current, v)
    assert targets(current) == (7,)


def test_identify_then_verify_builds_no_cube_checks_no_parity_and_lowers_no_single_vertex(monkeypatch) -> None:
    member = image_adinkra(TRIPLE_SPEC)  # an N=3 member, built before the count starts
    calls = []
    for module, name in ((constraints, "cube_topology"), (core, "_check_parity"), (mutation, "lower_vertex")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _f=original, _name=name: calls.append(_name) or _f(*args))
    ident = identify(member)
    assert ident.moves == (0,)
    assert verify_presentation(ident.spec, ident.kind).ok
    assert calls == []


def test_identify_rejects_non_cube() -> None:
    with pytest.raises(AdinkraError, match="cube"):
        identify(base_adinkra(antipodal_quotient()))


def test_identify_recognizes_the_cube_once_per_topology_object(monkeypatch) -> None:
    from adinkra import cube

    t = cube_topology(3)
    members = list(enumerate_family(t).members.values())
    copy = replace(t)
    quotient = base_adinkra(antipodal_quotient())
    recognized = []
    edges = cube._cube_edges
    monkeypatch.setattr(cube, "_cube_edges", lambda n: recognized.append(n) or edges(n))
    assert len(members) == 38
    for member in members:
        identify(member)
    assert recognized == [3]
    for _ in range(2):
        identify(Adinkra(copy, members[-1].heights, members[-1].parity))
    assert recognized == [3, 3]
    with pytest.raises(AdinkraError, match="^identification needs a full color-cube topology$"):
        identify(quotient)


# ---------------------------------------------------------------------------
# projectors and constraints


def test_projector_is_descent_over_symmetric_difference() -> None:
    op = projector(X_SPEC, 0b11, 0)  # entry {1} onto component {1,2}
    assert op == descending_product([2])
    assert projector(X_SPEC, 0b01, 0) == SuperOp.identity()


def test_projector_refuses_an_out_of_range_component_or_entry() -> None:
    spec = SourceSpec(2, ((0, 0),))
    for component in (4, -1):
        with pytest.raises(AdinkraError, match=rf"^component {component} outside color range$"):
            projector(spec, component, 0)
    for alpha in (1, -1):
        with pytest.raises(AdinkraError, match=rf"^entry {alpha} outside the battery's entries 0\.\.0$"):
            projector(spec, 0, alpha)


def test_m_alpha_and_mu_refuse_an_out_of_range_component_or_entry() -> None:
    spec = SourceSpec(2, ((0, 0),))
    for component in (4, -1, 99, True, 1.0):
        shown = re.escape(repr(component))
        for read in (lambda: m_alpha(spec, component, 0), lambda: mu(spec, component)):
            with pytest.raises(AdinkraError, match=rf"^component {shown} outside color range$"):
                read()
    for alpha in (1, -1, False, 0.0):
        with pytest.raises(AdinkraError, match=rf"^entry {alpha!r} outside the battery's entries 0\.\.0$"):
            m_alpha(spec, 0, alpha)


def test_m_alpha_formula() -> None:
    assert m_alpha(X_SPEC, 0, 0) == 1
    assert m_alpha(X_SPEC, 0b01, 0) == 0
    assert m_alpha(X_SPEC, 0b01, 1) == 1
    assert m_alpha(TRIPLE_SPEC, 0b110, 0) == 1


def test_emit_constraints_for_the_x() -> None:
    system = emit_constraints(X_SPEC)
    rows = [
        (e.component, e.alpha, e.beta, e.gap, str(e.phase), e.redundant)
        for e in system.equations
    ]
    assert rows == [
        (0, 1, 0, 0, "+1", False),
        (1, 1, 0, 1, "-i", True),
        (2, 0, 1, 1, "+i", True),
        (3, 1, 0, 0, "-1", False),
    ]


def test_emitted_equations_hold_identically() -> None:
    system = emit_constraints(X_SPEC)
    u = generic_superfield(2)
    f = [apply_op(descending_product([1]), u), apply_op(descending_product([2]), u)]
    for eq in system.equations:
        lhs = apply_op(projector(X_SPEC, eq.component, eq.alpha), f[eq.alpha])
        rhs = expr_scale(
            dtau_expr(apply_op(projector(X_SPEC, eq.component, eq.beta), f[eq.beta]), eq.gap),
            eq.phase,
        )
        assert expr_sub(lhs, rhs).is_zero()


def test_wrong_phase_leaves_a_residue() -> None:
    system = emit_constraints(X_SPEC)
    eq = system.equations[0]
    u = generic_superfield(2)
    f = [apply_op(descending_product([1]), u), apply_op(descending_product([2]), u)]
    lhs = apply_op(projector(X_SPEC, eq.component, eq.alpha), f[eq.alpha])
    rhs = expr_scale(
        dtau_expr(apply_op(projector(X_SPEC, eq.component, eq.beta), f[eq.beta]), eq.gap),
        eq.phase * MINUS_ONE,
    )
    assert not expr_sub(lhs, rhs).is_zero()


@pytest.mark.parametrize("kind", [SCALAR, SPINOR])
def test_verify_presentation_on_worked_specs(kind: str) -> None:
    for spec in (X_SPEC, TRIPLE_SPEC, SourceSpec(1, ((0, 0),))):
        report = verify_presentation(spec, kind)
        assert report.ok
        assert report.failures == ()
        assert report.rederived_matches_image


def test_a_wrong_engine_order_fails_the_rederived_heights(monkeypatch) -> None:
    # one entry makes no pairs, so no equation ties the engine's orders to m_alpha
    spec = SourceSpec(2, ((0, 0),))
    project = constraints._project

    def late_top_component(spec, kind, every_term):
        syms, projections, lowest = project(spec, kind, every_term)
        k, dots = lowest[(3, 0)]
        lowest[(3, 0)] = (k, dots + 1)
        return syms, projections, lowest

    assert verify_presentation(spec) == VerificationReport(True, 0, (), True)
    monkeypatch.setattr("adinkra.constraints._project", late_top_component)
    report = verify_presentation(spec)
    assert report.rederived_matches_image is False
    assert report.ok is False
    assert report == VerificationReport(False, 0, (), False)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verifying_an_identified_valise_reads_each_order_once(n: int, monkeypatch) -> None:
    # identify has worked out mu per component; only the projections' own check reads the order formula
    t = cube_topology(n)
    ident = identify(base_adinkra(t, standard_parity(t)))
    calls = []
    order = constraints._m_alpha
    monkeypatch.setattr("adinkra.constraints._m_alpha", lambda *args: calls.append(args) or order(*args))
    assert verify_presentation(ident.spec, ident.kind).ok
    assert len(calls) == (1 << n) * len(ident.spec.entries)


@pytest.mark.parametrize("build", [emit_constraints, verify_presentation])
def test_a_projection_off_its_derivative_order_is_an_error(build, monkeypatch) -> None:
    order = constraints._m_alpha
    monkeypatch.setattr("adinkra.constraints._m_alpha", lambda spec, c, alpha: order(spec, c, alpha) + 1)
    with pytest.raises(AdinkraError) as info:
        build(X_SPEC)
    assert str(info.value) == "projection of entry 0 onto {1} carries 0 time derivatives, not m_alpha = 1"


def test_verify_counts_all_pairs() -> None:
    report = verify_presentation(TRIPLE_SPEC)
    # 3 entries make 3 pairs per component, 8 components
    assert report.checked_equations == 24


def test_verify_accepts_the_emitted_equations() -> None:
    system = emit_constraints(TRIPLE_SPEC)
    assert deserialize(serialize(system)).payload == system
    report = verify_presentation(TRIPLE_SPEC, SCALAR)
    assert report.ok and report.failures == ()


def _x_document() -> dict:
    return json.loads(serialize(emit_constraints(X_SPEC)))


def test_verify_names_each_given_mismatch() -> None:
    data = _x_document()
    equations = data["payload"]["equations"]
    equations[1]["redundant"] = not equations[1]["redundant"]
    with pytest.raises(DocumentError, match=r"^\$\.payload\.equations\[1\]\.redundant: expected true, got false$"):
        deserialize(json.dumps(data))
    del equations[2:]
    with pytest.raises(DocumentError, match=r"^\$\.payload\.equations: expected 4 entries, got 2$"):
        deserialize(json.dumps(data))


def test_verify_reports_the_residual_of_a_wrong_gap(monkeypatch) -> None:
    data = _x_document()
    data["payload"]["equations"][0]["gap"] += 1
    with pytest.raises(DocumentError, match=r"^\$\.payload\.equations\[0\]\.gap: expected 0, got 1$"):
        deserialize(json.dumps(data))
    # an equation that fails substitution is reported with the residual it leaves
    relations = constraints._relations
    monkeypatch.setattr(
        "adinkra.constraints._relations",
        lambda spec, lowest: [(c, hi, lo, gap + (c == 0), k) for c, hi, lo, gap, k in relations(spec, lowest)],
    )
    [failure] = verify_presentation(X_SPEC).failures
    assert failure == (
        "component {}: entries 1/0 do not satisfy the emitted relation; residual +i*U' -i*U''"
        " -1*th1*U1' +1*th1*U1'' -1*th2*U2' +1*th2*U2'' -1*th1th2*U12' +1*th1th2*U12''"
    )


def test_a_passing_verification_builds_no_expression_beyond_the_generic_superfield(monkeypatch) -> None:
    init = superspace._init_expr
    built = []
    monkeypatch.setattr("adinkra.superspace._init_expr", lambda self, *args: built.append(args) or init(self, *args))
    for spec in (TRIPLE_SPEC, _valise().spec):
        constraints._engine_table.cache_clear()  # a cold call builds the generic superfield of its table
        built.clear()
        assert verify_presentation(spec).ok
        assert len(built) == 1
    # a failing equation is reported through expressions, which the count sees
    wrong = [(eq.component, eq.alpha, eq.beta, eq.gap + 1, eq.phase.k) for eq in emit_constraints(X_SPEC).equations]
    monkeypatch.setattr("adinkra.constraints._relations", lambda spec, lowest: wrong)
    built.clear()
    assert not verify_presentation(X_SPEC).ok
    assert len(built) > 1


def test_a_passing_verification_builds_no_constraint_and_no_phase(monkeypatch) -> None:
    init, post_init = constraints.Constraint.__init__, Phase.__post_init__
    built = []
    monkeypatch.setattr(constraints.Constraint, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    monkeypatch.setattr(Phase, "__post_init__", lambda self: built.append(self.k) or post_init(self))
    for spec in (TRIPLE_SPEC, _valise().spec):
        built.clear()
        assert verify_presentation(spec).ok
        assert built == []
    # emitting the same battery builds one of each per equation, which the count sees
    assert len(emit_constraints(TRIPLE_SPEC).equations) == 24
    assert len(built) == 48


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", [SCALAR, SPINOR])
def test_the_engine_table_equals_a_fresh_build(n: int, kind: str) -> None:
    table = constraints._engine_table(n, kind)
    syms, phases, words = table
    u = generic_superfield(n, kind)
    assert syms == tuple(sym for _, sym in sorted(u.coeffs))
    assert phases == tuple(phase.k for _, ((phase, _),) in u.terms)
    for w in range(1 << n):
        [word] = descending_product([c + 1 for c in range(n) if w >> c & 1]).coeffs
        assert words[w] == tuple(superspace._word_steps(word, n))
    assert all(type(part) is tuple for part in (table, *table, *words))
    assert constraints._engine_table(n, kind) is table


@pytest.mark.parametrize("n", range(1, 9))
def test_every_word_table_cell_is_the_walk_of_its_word(n: int) -> None:
    table = constraints._word_table(n)
    landed, dots, phases = table
    assert len(landed) == len(dots) == len(phases) == 1 << n
    for w in range(1 << n):
        [word] = descending_product([c + 1 for c in range(n) if w >> c & 1]).coeffs
        steps = superspace._word_steps(word, n)
        assert (landed[w].typecode, type(dots[w]), type(phases[w])) == ("H", bytes, bytes)
        assert [(landed[w][e], dots[w][e], phases[w][e]) for e in range(1 << n)] == [
            (mask, more, k & 3) for mask, more, k in (superspace._walk(steps, e) for e in range(1 << n))
        ]
    assert constraints._word_table(n) is table


def _counting_walks(monkeypatch) -> list[int]:
    walk, walks = superspace._walk, []
    monkeypatch.setattr("adinkra.superspace._walk", lambda steps, mask: walks.append(mask) or walk(steps, mask))
    return walks


def test_verification_walks_each_word_once_per_color_count(monkeypatch) -> None:
    specs = (TRIPLE_SPEC, SourceSpec(3, ((3, 0), (5, 0), (6, 0))), _valise().spec)
    constraints._word_table.cache_clear()
    walks = _counting_walks(monkeypatch)
    # the first battery of a color count builds its word table, 4^n walks; no call walks after that
    for kind in (SCALAR, SPINOR):
        for spec in specs:
            assert verify_presentation(spec, kind).ok
    assert len(walks) == 4**3 + 4**4
    walks.clear()
    for kind in (SCALAR, SPINOR):
        for spec in specs:
            assert verify_presentation(spec, kind).ok
    assert walks == []


def test_emitting_walks_one_term_per_projection_and_builds_no_word_table(monkeypatch) -> None:
    constraints._word_table.cache_clear()
    walks = _counting_walks(monkeypatch)
    for spec in (TRIPLE_SPEC, _valise().spec, CAP_BATTERIES["n9-one-entry"]):
        walks.clear()
        emit_constraints(spec)
        assert len(walks) == 2**spec.n_colors * (len(spec.entries) + 1)
    assert constraints._word_table.cache_info().currsize == 0


@pytest.mark.parametrize("kind", [SCALAR, SPINOR])
def test_a_second_verification_builds_no_generic_superfield(kind: str, monkeypatch) -> None:
    constraints._engine_table.cache_clear()
    assert verify_presentation(TRIPLE_SPEC, kind).ok
    built = []
    monkeypatch.setattr("adinkra.superspace._init_expr", lambda self, *args: built.append(args))
    monkeypatch.setattr("adinkra.superspace.generic_superfield", lambda *args: built.append(args))
    # the same color count and kind, another battery: the table is read, not rebuilt
    for spec in (TRIPLE_SPEC, SourceSpec(3, ((3, 0), (5, 0), (6, 0)))):
        assert verify_presentation(spec, kind).ok
    assert built == []


@pytest.mark.parametrize("build", [emit_constraints, verify_presentation])
@pytest.mark.parametrize("kind", ["vector", ["scalar"]], ids=["unknown", "unhashable"])
def test_an_unknown_kind_is_refused(build, kind) -> None:
    with pytest.raises(AdinkraError) as info:
        build(X_SPEC, kind)
    assert str(info.value) == f"superfield kind must be scalar or spinor, got {kind!r}"


@pytest.mark.parametrize("kind", [SCALAR, SPINOR])
def test_the_side_comparison_catches_a_wrong_phase_alone(kind: str, monkeypatch) -> None:
    # the phase exponent of the equation at {1,2} is off by one; its gap and every landed monomial are right
    equations = tuple(
        replace(eq, phase=eq.phase * Phase(1)) if eq.component == 3 else eq
        for eq in emit_constraints(X_SPEC, kind).equations
    )
    relations = constraints._relations
    monkeypatch.setattr(
        "adinkra.constraints._relations",
        lambda spec, lowest: [(c, hi, lo, gap, (k + (c == 3)) & 3) for c, hi, lo, gap, k in relations(spec, lowest)],
    )
    report = verify_presentation(X_SPEC, kind)
    assert len(report.failures) == 1 and report.failures[0].startswith("component {1,2}: ")
    assert report == substituted_report(X_SPEC, kind, equations)


@pytest.mark.parametrize("kind", [SCALAR, SPINOR])
def test_the_side_comparison_catches_a_wrong_landed_monomial_alone(kind: str, monkeypatch) -> None:
    # U_1's term of the projection of entry 0 onto {} lands on theta^2 instead of theta^1, with its
    # own time derivatives and phase; flipping two thetas keeps the term's statistics
    project = constraints._project

    def moved_term(spec, kind, every_term):
        syms, projections, lowest = project(spec, kind, every_term)
        if every_term:
            landed, dots, k = projections[(0, 0)][1]
            projections[(0, 0)][1] = (landed ^ 3, dots, k)
        return syms, projections, lowest

    monkeypatch.setattr("adinkra.constraints._project", moved_term)
    report = verify_presentation(X_SPEC, kind)
    assert len(report.failures) == 1 and report.failures[0].startswith("component {}: ")
    assert report == substituted_report(X_SPEC, kind, emit_constraints(X_SPEC, kind).equations, ((0, 0), 1, 3))


# sha256 of the sorted, concatenated constraint documents of every battery
# identify() finds on the N-color cube, and of the N=4 valise's battery.
# Recorded before the engine kept coefficients as Gaussian integers: the
# documents, phases and redundant flags must stay byte-identical.
FROZEN_FAMILY_DIGESTS = {
    (1, SCALAR): (2, "a9a31eecd6ba6ae94e8aaf1762ef334bb515d923b021e945379ca236bfc9a0ea"),
    (1, SPINOR): (2, "f10be842a0aa1bf23aba20a312e0dbcd45b8ccb62b17a297e2485095420feb24"),
    (2, SCALAR): (6, "98d24bf423db143c9edeb6b7214019a88fb17bda0952a27cb76920b1d3bb7498"),
    (2, SPINOR): (6, "074b5731bdf712182bf47bc745f1bfb4d2badd5817e33de56ee816bb43658638"),
    (3, SCALAR): (38, "33b06270ca6c24ab2a88c3d57258484fd73c07ac578470c99120f4c5a9d03bc7"),
    (3, SPINOR): (38, "8bc86b0e1c70b2ff742097f7d1428b4d04d69fc2f9ad7321379b23d86941a97f"),
}
FROZEN_VALISE_DIGEST = "e6726ddcc86c7c919ea16d7b0e949b5f3d2de37506eaf46cb65116cfda80b43b"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@cache
def _identified(n: int, kind: str) -> tuple[Identification, ...]:
    """The battery identify() finds for each member of the n-cube's family."""
    return tuple(identify(member) for member in enumerate_family(cube_topology(n, kind)).members.values())


def _valise() -> Identification:
    t = cube_topology(4)
    return identify(Adinkra.from_maps(t, {v: hgt0(v) % 2 for v in t.vertex_ids}, standard_parity(t)))


@pytest.mark.parametrize("n, kind", sorted(FROZEN_FAMILY_DIGESTS))
def test_constraint_documents_are_frozen(n: int, kind: str) -> None:
    docs = {serialize(emit_constraints(ident.spec, ident.kind)) for ident in _identified(n, kind)}
    assert (len(docs), _sha256("".join(sorted(docs)))) == FROZEN_FAMILY_DIGESTS[(n, kind)]


def test_valise_constraint_document_is_frozen() -> None:
    ident = _valise()
    assert len(ident.spec.entries) == 8
    assert _sha256(serialize(emit_constraints(ident.spec, ident.kind))) == FROZEN_VALISE_DIGEST


def _flags(spec: SourceSpec, kind: str) -> list[bool]:
    return [eq.redundant for eq in emit_constraints(spec, kind).equations]


def _lowest_read_by(build, spec: SourceSpec, kind: str) -> Lowest:
    """The lowest components that build(spec, kind) relates its equations by."""
    seen = []
    relations = constraints._relations
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("adinkra.constraints._relations", lambda spec, lowest: seen.append(lowest) or relations(spec, lowest))
        build(spec, kind)
    [lowest] = seen
    return lowest


def _check_lowest(spec: SourceSpec, kind: str) -> None:
    projected = projected_lowest(spec, kind)
    assert _lowest_read_by(emit_constraints, spec, kind) == projected
    assert _lowest_read_by(verify_presentation, spec, kind) == projected


@pytest.mark.parametrize("n, kind", sorted(FROZEN_FAMILY_DIGESTS))
def test_redundant_flags_match_the_search_on_every_identified_battery(n: int, kind: str) -> None:
    for ident in _identified(n, kind):
        assert _flags(ident.spec, ident.kind) == searched_redundant_flags(ident.spec, ident.kind)


def test_redundant_flags_match_the_search_on_the_valise() -> None:
    ident = _valise()
    assert _flags(ident.spec, ident.kind) == searched_redundant_flags(ident.spec, ident.kind)


@pytest.mark.parametrize("n, kind", sorted(FROZEN_FAMILY_DIGESTS))
def test_one_term_lowest_matches_the_projections_on_every_identified_battery(n: int, kind: str) -> None:
    for ident in _identified(n, kind):
        _check_lowest(ident.spec, ident.kind)


def test_one_term_lowest_matches_the_projections_on_the_valise() -> None:
    ident = _valise()
    _check_lowest(ident.spec, ident.kind)


def _check_projections(spec: SourceSpec, kind: str) -> None:
    for every_term in (True, False):
        assert constraints._project(spec, kind, every_term) == two_word_project(spec, kind, every_term)


def _relabeled_n4_sample(kind: str) -> list[SourceSpec]:
    """Eight N=4 batteries identify() finds, each with its colors renamed by a seeded permutation."""
    rng = random.Random(f"relabel-{kind}")
    specs = []
    for ident in rng.sample(_identified(4, kind), 8):
        perm = rng.sample(range(4), 4)
        relabel = lambda mask: sum(1 << perm[c] for c in range(4) if mask >> c & 1)
        specs.append(SourceSpec(4, tuple((relabel(mask), shift) for mask, shift in ident.spec.entries)))
    return specs


# the largest batteries under MAX_BATTERY_TERMS of one entry, of two-subsets and of three-subsets
CAP_BATTERIES = {
    "n9-one-entry": SourceSpec(9, ((0, 0),)),
    "n6-ten-pairs": SourceSpec(6, tuple((s, 0) for s in range(64) if hgt0(s) == 2)[:10]),
    "n7-five-triples": SourceSpec(7, tuple((s, 0) for s in range(128) if hgt0(s) == 3)[:5]),
}


@pytest.mark.parametrize("n, kind", sorted(FROZEN_FAMILY_DIGESTS))
def test_projections_match_the_two_word_walks_on_every_identified_battery(n: int, kind: str) -> None:
    for ident in _identified(n, kind):
        _check_projections(ident.spec, ident.kind)


def test_projections_match_the_two_word_walks_on_the_valise() -> None:
    ident = _valise()
    _check_projections(ident.spec, ident.kind)


@pytest.mark.parametrize("kind", [SCALAR, SPINOR])
def test_projections_match_the_two_word_walks_on_a_relabeled_n4_sample(kind: str) -> None:
    specs = _relabeled_n4_sample(kind)
    assert len({spec.entries for spec in specs}) == 8 and all(not ehgt_violations(spec) for spec in specs)
    for spec in specs:
        _check_projections(spec, kind)


@pytest.mark.parametrize("name", ["n6-ten-pairs", "n7-five-triples"])
def test_projections_match_the_two_word_walks_at_the_term_cap(name: str) -> None:
    _check_projections(CAP_BATTERIES[name], SCALAR)


def _check_report(spec: SourceSpec, kind: str) -> None:
    expected = substituted_report(spec, kind, emit_constraints(spec, kind).equations)
    assert verify_presentation(spec, kind) == expected


@pytest.mark.parametrize("n, kind", [(n, kind) for n in (1, 2, 3, 4) for kind in (SCALAR, SPINOR)])
def test_term_wise_reports_match_the_substitution_on_every_identified_battery(n: int, kind: str) -> None:
    idents = _identified(n, kind)
    assert len(idents) == {1: 2, 2: 6, 3: 38, 4: 990}[n]
    for ident in idents:
        _check_report(ident.spec, ident.kind)


def test_term_wise_report_matches_the_substitution_on_the_valise() -> None:
    ident = _valise()
    _check_report(ident.spec, ident.kind)


@st.composite
def _extreme_batteries(draw) -> SourceSpec:
    """Up to eight entries on at most 4 colors with shifts up to 3, kept while mutually extreme.

    Entries of independent shifts are rarely extreme, so each shift lifts
    its entry to height hgt0(I) + 2 l at or just above one drawn level,
    then raises it one more step when its drawn bump is 1.
    """
    n = draw(st.integers(1, 4))
    level = draw(st.integers(0, n + 1))
    masks = st.lists(st.integers(0, (1 << n) - 1), min_size=2, max_size=8, unique=True)
    entries: list[tuple[int, int]] = []
    for mask in draw(masks):
        shift = min(3, max(0, (level - hgt0(mask) + 1) // 2) + draw(st.integers(0, 1)))
        if not ehgt_violations(SourceSpec(n, (*entries, (mask, shift)))):
            entries.append((mask, shift))
    return SourceSpec(n, tuple(entries))


@settings(max_examples=200, deadline=None)
@given(_extreme_batteries(), st.sampled_from((SCALAR, SPINOR)))
def test_redundant_flags_match_the_search_on_random_batteries(spec: SourceSpec, kind: str) -> None:
    assert _flags(spec, kind) == searched_redundant_flags(spec, kind)
    _check_lowest(spec, kind)
    _check_projections(spec, kind)
    assert verify_presentation(spec, kind).ok


@settings(max_examples=200, deadline=None)
@given(_extreme_batteries(), st.sampled_from((SCALAR, SPINOR)), st.data())
def test_term_wise_reports_match_the_substitution_on_tampered_batteries(spec: SourceSpec, kind: str, data) -> None:
    equations = emit_constraints(spec, kind).equations
    if equations:
        i = data.draw(st.integers(0, len(equations) - 1), label="equation")
        gap = equations[i].gap + data.draw(st.integers(-1, 2), label="gap shift")
        phase = equations[i].phase * Phase(data.draw(st.integers(0, 3), label="phase shift"))
        equations = (*equations[:i], replace(equations[i], gap=gap, phase=phase), *equations[i + 1 :])
    relations = [(eq.component, eq.alpha, eq.beta, eq.gap, eq.phase.k) for eq in equations]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("adinkra.constraints._relations", lambda spec, lowest: relations)
        report = verify_presentation(spec, kind)
    assert report == substituted_report(spec, kind, equations)


@pytest.mark.parametrize("kind", [SCALAR, SPINOR])
def test_batteries_that_are_not_mutually_extreme_are_refused_before_projecting(kind: str, monkeypatch) -> None:
    spec = SourceSpec(2, ((0, 2), (1, 0), (2, 0)))
    message = "spec entries not mutually extreme: " + "; ".join(ehgt_violations(spec))
    monkeypatch.setattr("adinkra.constraints._project", None)
    for build in (emit_constraints, verify_presentation, image_adinkra):
        with pytest.raises(AdinkraError) as info:
            build(spec, kind)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# annihilators


def test_gradient_column_shape() -> None:
    col = gradient_column(3)
    assert len(col) == 3
    assert all(len(row) == 1 for row in col)
    assert col[2][0] == D(3)


def test_doublet_annihilates_gradient_and_itself() -> None:
    assert check_annihilation(N2_DOUBLET_ANNIHILATOR, gradient_column(2), 2) is None
    assert check_annihilation(N2_DOUBLET_ANNIHILATOR, N2_DOUBLET_ANNIHILATOR, 2) is None


def test_triplet_annihilates_gradient() -> None:
    assert check_annihilation(N3_TRIPLET_ANNIHILATOR, gradient_column(3), 3) is None


def test_quintet_annihilates_triplet() -> None:
    assert check_annihilation(N3_QUINTET_ANNIHILATOR, N3_TRIPLET_ANNIHILATOR, 3) is None


def test_sign_flip_breaks_annihilation() -> None:
    z = SuperOp.zero()
    wrong = list(list(row) for row in N3_QUINTET_ANNIHILATOR)
    wrong[4] = [z, D(3), z, D(1), D(1)]  # undo the sign on the second entry
    ce = check_annihilation(tuple(tuple(r) for r in wrong), N3_TRIPLET_ANNIHILATOR, 3)
    assert ce is not None
    assert ce.row == 4
    assert not ce.residual.is_zero()


def test_check_annihilation_validates_shapes() -> None:
    with pytest.raises(AdinkraError, match="multiply"):
        check_annihilation(N2_DOUBLET_ANNIHILATOR, gradient_column(3), 3)
    with pytest.raises(AdinkraError, match="ragged"):
        check_annihilation(((D(1),), (D(1), D(2))), gradient_column(1), 1)


def test_check_annihilation_refuses_an_empty_matrix() -> None:
    one = ((D(1),),)
    for a, b in (((), one), (((),), one), (one, ()), (one, ((),))):
        with pytest.raises(AdinkraError, match="^an operator matrix needs at least one row and one column$"):
            check_annihilation(a, b, 1)


def test_check_annihilation_refuses_a_color_count_over_the_cube_cap(monkeypatch) -> None:
    # unguarded, each generic superfield holds 2^n terms: n = 30 grew to gigabytes
    built = []
    monkeypatch.setattr("adinkra.superspace.FieldSymbol", lambda *args: built.append(args))
    with pytest.raises(AdinkraError, match=rf"^a superfield needs 0\.\.{MAX_CUBE_COLORS} colors \(the cube cap\), got 11$"):
        check_annihilation(((D(1),),), ((D(1),),), MAX_CUBE_COLORS + 1)
    assert built == []


_ANNIHILATORS = ("N2_DOUBLET_ANNIHILATOR", "N3_TRIPLET_ANNIHILATOR", "N3_QUINTET_ANNIHILATOR")


def test_the_annihilators_are_built_on_first_access() -> None:
    # a fresh process: importing the batteries loads neither the engine nor the walk
    env = dict(os.environ, PYTHONPATH=str(Path(constraints.__file__).parents[1]))
    code = (
        "import sys, adinkra.constraints as c\n"
        "heavy = lambda: sorted({'adinkra.superspace', 'adinkra.mutation'} & set(sys.modules))\n"
        "print(heavy())\n"
        "print(len(c.N3_QUINTET_ANNIHILATOR), heavy())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "7 ['adinkra.superspace']"]
    namespace: dict = {}
    exec(f"from adinkra.constraints import {', '.join(_ANNIHILATORS)}", namespace)
    assert set(_ANNIHILATORS) <= set(dir(constraints))
    for name in _ANNIHILATORS:
        assert namespace[name] is getattr(constraints, name) is getattr(constraints, name)
    assert N2_DOUBLET_ANNIHILATOR == ((D(1), -D(2)), (D(2), D(1)))
    with pytest.raises(AttributeError, match=r"^module 'adinkra.constraints' has no attribute 'N4_ANNIHILATOR'$"):
        constraints.N4_ANNIHILATOR


# ---------------------------------------------------------------------------
# dimension vectors


def test_dimension_vector_of_counting_cube() -> None:
    from adinkra.superspace import adinkra_of_superfield

    assert dimension_vector(adinkra_of_superfield(2)) == (1, 2, 1)
    assert format_dimension_vector((1, 2, 1)) == "(1|2|1)"


def test_dimension_vector_of_triple_image() -> None:
    img = image_adinkra(TRIPLE_SPEC)
    assert dimension_vector(img) == (0, 3, 4, 1)


def test_dimension_vector_starts_at_height_zero() -> None:
    from adinkra.cube import cube_topology

    base = base_adinkra(cube_topology(2))
    assert dimension_vector(base) == (2, 2)


@pytest.mark.parametrize(
    "spec, terms",
    [
        (SourceSpec(6, tuple((s, 0) for s in range(64) if hgt0(s) == 2)), 491_520),
        (SourceSpec(6, tuple((s, 0) for s in range(64) if hgt0(s) == 3)), 860_160),
        (SourceSpec(10, ((0, 0),)), 1_048_576),
    ],
    ids=["n6-pairs", "n6-triples", "n10-one-entry"],
)
def test_batteries_over_the_term_cap_are_refused_before_projecting(spec, terms) -> None:
    for build in (emit_constraints, verify_presentation):
        with pytest.raises(AdinkraError, match=rf"^the battery would hold {terms} superfield terms, over the cap of {MAX_BATTERY_TERMS}$"):
            build(spec)


# tracemalloc peaks in bytes at the term cap, measured with Python 3.11.7 while every
# term of U was walked through the whole word of each projection; the bound is 1.25x
CAP_PEAKS = {
    ("n9-one-entry", "emit_constraints"): 392_926,
    ("n9-one-entry", "verify_presentation"): 23_312_414,
    ("n6-ten-pairs", "emit_constraints"): 815_464,
    ("n6-ten-pairs", "verify_presentation"): 3_661_694,
    ("n7-five-triples", "emit_constraints"): 461_512,
    ("n7-five-triples", "verify_presentation"): 6_212_110,
}


@pytest.mark.parametrize("name, build", sorted(CAP_PEAKS), ids=[f"{n}-{b}" for n, b in sorted(CAP_PEAKS)])
def test_batteries_at_the_term_cap_stay_within_their_memory(name: str, build: str) -> None:
    spec = CAP_BATTERIES[name]
    m = len(spec.entries)
    assert MAX_BATTERY_TERMS * 3 // 4 < 4**spec.n_colors * m * (m + 1) // 2 <= MAX_BATTERY_TERMS
    constraints._engine_table.cache_clear()  # each peak is a cold call's, engine and word tables included
    constraints._word_table.cache_clear()
    tracemalloc.start()
    try:
        result = getattr(constraints, build)(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert getattr(result, "ok", True)
    assert peak <= CAP_PEAKS[(name, build)] * 5 // 4


def test_the_battery_term_cap_admits_its_own_size(monkeypatch) -> None:
    # X_SPEC, with n = 2 and m = 2, holds 4^2 * 2 * 3 // 2 = 48 terms
    monkeypatch.setattr("adinkra.constraints.MAX_BATTERY_TERMS", 48)
    assert verify_presentation(X_SPEC).ok
    monkeypatch.setattr("adinkra.constraints.MAX_BATTERY_TERMS", 47)
    with pytest.raises(AdinkraError, match="48 superfield terms, over the cap of 47"):
        emit_constraints(X_SPEC)


# tracemalloc peaks in bytes of the cube-10 commands, each on the largest cube's valise
# built outside the trace, measured with Python 3.11.7; the bound is 1.25x
VALISE_PEAKS = {"identify": 406_764, "kernel_orders": 69_208}


@pytest.mark.parametrize("step", sorted(VALISE_PEAKS))
def test_identify_on_the_largest_cube_stays_within_its_memory(step: str) -> None:
    t = cube_topology(MAX_CUBE_COLORS)
    valise = base_adinkra(t, standard_parity(t))
    call, arg = (identify, valise) if step == "identify" else (kernel_orders, identify(valise).spec)
    tracemalloc.start()
    try:
        call(arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= VALISE_PEAKS[step] * 5 // 4


# tracemalloc peak in bytes of dimension_vector on the `cube 10` Adinkra (heights hgt0),
# built outside the trace, measured with Python 3.11.7; the bound is 1.25x
DIMS_PEAK = 4_513


def test_dimension_vector_on_the_largest_cube_stays_within_its_memory() -> None:
    t = cube_topology(MAX_CUBE_COLORS)
    counting = Adinkra.from_maps(t, {v: hgt0(v) for v in t.vertex_ids}, standard_parity(t))
    tracemalloc.start()
    try:
        dims = dimension_vector(counting)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dims == (1, 10, 45, 120, 210, 252, 210, 120, 45, 10, 1)
    assert peak <= DIMS_PEAK * 5 // 4
