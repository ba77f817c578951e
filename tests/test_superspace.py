from __future__ import annotations

import pickle
import re
import tracemalloc
from functools import lru_cache, reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adinkra.core import BOSON, FERMION, AdinkraError
from adinkra.cube import MAX_CUBE_COLORS, SCALAR, SPINOR, antipodal_quotient, cube_topology, hgt0
from adinkra.mutation import base_adinkra, enumerate_family
from adinkra.superspace import (
    DTAU,
    I_PHASE,
    MINUS_I,
    MINUS_ONE,
    ONE,
    D,
    FieldSymbol,
    Phase,
    Q,
    RuleSet,
    RuleTerm,
    SuperfieldExpr,
    SuperOp,
    adinkra_of_superfield,
    anticommutator,
    apply_op,
    check_identity,
    closure_violations,
    descending_product,
    dtau_expr,
    expr_add,
    expr_scale,
    expr_sub,
    generic_superfield,
    identity_residual,
    project,
    transformation_rules,
)

from oracles import (
    walk_closure_violations,
    ref_add,
    ref_apply,
    ref_deriv_theta,
    ref_dtau,
    ref_op_canon,
    ref_scale,
    ref_str,
    ref_theta_times,
)


# ---------------------------------------------------------------------------
# phases and expressions


def test_phase_group_table() -> None:
    assert I_PHASE * I_PHASE == MINUS_ONE
    assert MINUS_ONE * MINUS_ONE == ONE
    assert I_PHASE * MINUS_I == ONE
    assert -I_PHASE == MINUS_I
    assert I_PHASE.inverse() == MINUS_I
    assert [str(Phase(k)) for k in range(4)] == ["+1", "+i", "-1", "-i"]


@given(st.integers(0, 3), st.integers(0, 3))
def test_phase_inverse_and_associativity(a: int, b: int) -> None:
    pa, pb = Phase(a), Phase(b)
    assert pa * pa.inverse() == ONE
    assert (pa * pb) * pa == pa * (pb * pa)


def test_field_symbol_dots() -> None:
    u = FieldSymbol("U")
    assert str(u.dot(2)) == "U''"
    assert u.dot().statistics == BOSON


def test_expr_rejects_inhomogeneous_terms() -> None:
    odd = FieldSymbol("psi", 0, FERMION)
    with pytest.raises(AdinkraError, match="should be"):
        SuperfieldExpr(1, BOSON, ((0, ((ONE, odd),)),))


def test_expr_add_cancels_exactly() -> None:
    u = generic_superfield(2)
    assert expr_sub(u, u).is_zero()
    doubled = expr_add(u, u)
    assert expr_sub(expr_sub(doubled, u), u).is_zero()


def test_expressions_are_immutable_values() -> None:
    u = generic_superfield(2)
    with pytest.raises(AttributeError):
        u.n_colors = 3
    copy = pickle.loads(pickle.dumps(u))
    assert copy == u and hash(copy) == hash(u) and str(copy) == str(u)
    op = D(1) * Q(2)
    assert pickle.loads(pickle.dumps(op)) == op


def test_constructor_sums_repeated_phases() -> None:
    x = FieldSymbol("x")
    e = SuperfieldExpr(1, BOSON, ((0, ((I_PHASE, x), (ONE, x), (I_PHASE, x), (MINUS_ONE, x))),))
    assert e.coeffs == {(0, x): (0, 2)}
    assert e.terms == ((0, ((I_PHASE, x), (I_PHASE, x))),)
    assert SuperfieldExpr(1, BOSON, e.terms) == e


def test_expr_add_rejects_mismatches() -> None:
    with pytest.raises(AdinkraError, match="color counts"):
        expr_add(generic_superfield(1), generic_superfield(2))
    with pytest.raises(AdinkraError, match="boson"):
        expr_add(generic_superfield(2, SCALAR), generic_superfield(2, SPINOR))


def test_expr_scale_has_order_four() -> None:
    u = generic_superfield(2)
    e = u
    for _ in range(4):
        e = expr_scale(e, I_PHASE)
    assert e == u


# ---------------------------------------------------------------------------
# theta algebra, on the repeated-summand reference that ref_apply rests on


@pytest.mark.parametrize("color", [1, 2, 3])
def test_theta_squares_to_zero(color: int) -> None:
    u = generic_superfield(3).terms
    assert ref_theta_times(ref_theta_times(u, color), color) == ()


def test_thetas_anticommute() -> None:
    u = generic_superfield(3).terms
    for c in (1, 2, 3):
        for d in (1, 2, 3):
            if c == d:
                continue
            lhs = ref_theta_times(ref_theta_times(u, c), d)
            rhs = ref_scale(ref_theta_times(ref_theta_times(u, d), c), MINUS_ONE)
            assert lhs == rhs != ()


@pytest.mark.parametrize("color", [1, 2, 3])
def test_deriv_theta_squares_to_zero(color: int) -> None:
    u = generic_superfield(3).terms
    assert ref_deriv_theta(ref_deriv_theta(u, color), color) == ()


@pytest.mark.parametrize("color", [1, 2])
def test_deriv_and_theta_anticommute_to_one(color: int) -> None:
    u = generic_superfield(2).terms
    got = ref_add(
        ref_deriv_theta(ref_theta_times(u, color), color),
        ref_theta_times(ref_deriv_theta(u, color), color),
    )
    assert got == u


def test_dtau_commutes_with_theta_ops() -> None:
    u = generic_superfield(2).terms
    assert ref_dtau(ref_theta_times(u, 1)) == ref_theta_times(ref_dtau(u), 1)
    assert ref_dtau(ref_deriv_theta(u, 2)) == ref_deriv_theta(ref_dtau(u), 2)


def test_color_range_is_checked() -> None:
    u = generic_superfield(2)
    with pytest.raises(AdinkraError, match="color 3 outside 1..2"):
        apply_op(D(3), u)
    with pytest.raises(AdinkraError, match="color 0 outside 1..2"):
        apply_op(Q(0), u)


@pytest.mark.parametrize("n", [MAX_CUBE_COLORS + 1, -1, True, 2.0])
def test_the_engine_refuses_a_color_count_outside_the_cube_cap(n, monkeypatch) -> None:
    built = []
    monkeypatch.setattr("adinkra.superspace.FieldSymbol", lambda *args: built.append(args))
    refusal = rf"^a superfield needs 0\.\.{MAX_CUBE_COLORS} colors \(the cube cap\), got {re.escape(repr(n))}$"
    with pytest.raises(AdinkraError, match=refusal):
        generic_superfield(n)
    with pytest.raises(AdinkraError, match=refusal):
        check_identity(D(1), D(1), n)
    with pytest.raises(AdinkraError, match=refusal):
        identity_residual(D(1), D(1), n)
    assert built == []  # refused before any term is built


# ---------------------------------------------------------------------------
# operators


def test_superop_cancellation() -> None:
    assert D(1) - D(1) == SuperOp.zero()
    assert (D(1) + D(1)) - D(1) - D(1) == SuperOp.zero()
    assert str(SuperOp.zero()) == "0"
    assert str(D(2) * D(1)) == "+1*D2D1"


def test_descending_product_word_order() -> None:
    op = descending_product([1, 2, 3])
    assert op.terms == ((ONE, (("D", 3), ("D", 2), ("D", 1))),)
    assert descending_product([]) == SuperOp.identity()


@example([])
@example([3, 1, 3, 2])
@given(st.lists(st.integers(1, 5), max_size=6))
def test_descending_product_is_the_repeated_product(colors) -> None:
    # unsorted and repeated colors too: the product only concatenates formal words
    old = reduce(lambda op, c: D(c) * op, colors, SuperOp.identity())
    new = descending_product(colors)
    assert new == old and new.terms == old.terms and str(new) == str(old)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_superalgebra_identities(n: int) -> None:
    two_i_dtau = DTAU.scaled(I_PHASE) + DTAU.scaled(I_PHASE)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            expected = two_i_dtau if a == b else SuperOp.zero()
            assert check_identity(anticommutator(D(a), D(b)), expected, n)
            assert check_identity(anticommutator(Q(a), Q(b)), expected, n)
            assert check_identity(anticommutator(Q(a), D(b)), SuperOp.zero(), n)


def test_d_squared_is_i_dtau() -> None:
    u = generic_superfield(2)
    for c in (1, 2):
        assert apply_op(D(c) * D(c), u) == expr_scale(dtau_expr(u), I_PHASE)
        assert apply_op(Q(c) * Q(c), u) == expr_scale(dtau_expr(u), I_PHASE)


def test_check_identity_detects_failure() -> None:
    assert not check_identity(anticommutator(D(1), D(1)), SuperOp.zero(), 1)


def test_distinct_descending_orders_antisymmetrize() -> None:
    u = generic_superfield(2)
    assert expr_add(apply_op(D(2) * D(1), u), apply_op(D(1) * D(2), u)).is_zero()


def test_mixed_parity_operator_is_rejected() -> None:
    with pytest.raises(AdinkraError, match="parities"):
        apply_op(D(1) + DTAU, generic_superfield(1))


# ---------------------------------------------------------------------------
# the engine against the repeated-summand reference (tests/oracles.py)

_atoms = st.one_of(
    st.tuples(st.sampled_from(["D", "Q"]), st.integers(1, 4)), st.just(("dt",))
)


def _odd_count(word) -> int:
    return sum(1 for a in word if a[0] != "dt") % 2


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.sampled_from([SCALAR, SPINOR]),
    st.lists(st.tuples(st.integers(0, 3), st.lists(_atoms, max_size=4)), min_size=1, max_size=3),
)
def test_apply_op_matches_the_reference_engine(n: int, kind: str, raw) -> None:
    summands = []
    for k, word in raw:
        word = [(a[0], (a[1] - 1) % n + 1) if a[0] != "dt" else a for a in word]
        # every word of one operator must share its Grassmann parity
        if summands and _odd_count(word) != _odd_count(summands[0][1]):
            word.append(("D", 1))
        summands.append((Phase(k), tuple(word)))
    op = SuperOp.zero()
    for summand in summands:
        op = op + SuperOp((summand,))
    assert op.terms == ref_op_canon(summands)
    u = generic_superfield(n, kind)
    got = apply_op(op, u)
    want = ref_apply(summands, u.terms)
    assert got.terms == want
    assert str(got) == ref_str(n, want)
    for mask in range(1 << n):
        assert got.component(mask) == dict(want).get(mask, ())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.sampled_from([SCALAR, SPINOR]),
    st.lists(
        st.tuples(st.sampled_from(["D", "Q", "dtau", "scale", "add"]), st.integers(0, 7)),
        max_size=6,
    ),
)
def test_expression_primitives_match_the_reference_engine(n: int, kind: str, steps) -> None:
    e = generic_superfield(n, kind)
    ref = e.terms
    for name, x in steps:
        if name in ("D", "Q"):
            op = (D if name == "D" else Q)(x % n + 1)
            e, ref = apply_op(op, e), ref_apply(op.terms, ref)
        elif name == "dtau":
            e, ref = dtau_expr(e, x % 3), ref_dtau(ref, x % 3)
        elif name == "scale":
            e, ref = expr_scale(e, Phase(x)), ref_scale(ref, Phase(x))
        else:  # add a rotated copy: doubles, cancels or mixes coefficients
            e, ref = expr_add(e, expr_scale(e, Phase(x))), ref_add(ref, ref_scale(ref, Phase(x)))
        assert e.terms == ref
        assert str(e) == ref_str(n, ref)


# ---------------------------------------------------------------------------
# generic superfields and projection


def test_generic_scalar_expansion_n2() -> None:
    assert str(generic_superfield(2)) == "+1*U +i*th1*U1 +i*th2*U2 +i*th1th2*U12"


def test_generic_spinor_expansion_n2() -> None:
    assert str(generic_superfield(2, SPINOR)) == "+1*U +1*th1*U1 +1*th2*U2 +i*th1th2*U12"


def test_generic_superfield_prefix_and_kind() -> None:
    e = generic_superfield(1, SPINOR, prefix="W")
    names = {sym.name for _, summands in e.terms for _, sym in summands}
    assert names == {"W", "W1"}
    with pytest.raises(AdinkraError, match="kind"):
        generic_superfield(1, "vector")


@pytest.mark.parametrize("kind", [SCALAR, SPINOR])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_projection_returns_stored_coefficients(n: int, kind: str) -> None:
    # the descending product must not pick up k! copies or stray signs
    u = generic_superfield(n, kind)
    for mask in range(1 << n):
        assert project(u, mask) == u.component(mask)


def test_projection_checks_mask_range() -> None:
    with pytest.raises(AdinkraError, match="outside"):
        project(generic_superfield(1), 2)


def test_adinkra_of_superfield_counts_heights() -> None:
    a = adinkra_of_superfield(3)
    assert a.heights_by_vertex() == {v: hgt0(v) for v in range(8)}


# ---------------------------------------------------------------------------
# transformation rules and closure


def test_rules_on_one_color_cube() -> None:
    rs = transformation_rules(base_adinkra(adinkra_of_superfield(1).topology))
    assert rs.name_map() == {0: "phi0", 1: "psi1"}
    assert rs.rule_map() == {
        0: (RuleTerm(I_PHASE, 1, 1, False),),
        1: (RuleTerm(ONE, 1, 0, True),),
    }


def test_rules_accept_custom_names() -> None:
    a = base_adinkra(adinkra_of_superfield(1).topology)
    rs = transformation_rules(a, {0: "u", 1: "chi"})
    assert rs.name_map() == {0: "u", 1: "chi"}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closure_holds_across_families(n: int) -> None:
    fam = enumerate_family(adinkra_of_superfield(n).topology)
    for member in fam.members.values():
        assert closure_violations(transformation_rules(member)) == []


def test_closure_detects_a_wrong_sign() -> None:
    a = adinkra_of_superfield(2)
    rs = transformation_rules(a)
    rules = dict(rs.rules)
    first = rules[0]
    rules[0] = (RuleTerm(-first[0].phase, first[0].color, first[0].source, first[0].dotted),) + first[1:]
    corrupted = RuleSet(rs.adinkra, rs.names, tuple(sorted(rules.items())))
    assert closure_violations(corrupted) != []


def test_closure_failure_lists_the_terms_left() -> None:
    a = adinkra_of_superfield(2)
    rs = transformation_rules(a)
    rules = dict(rs.rules)
    first = rules[0]
    # Q1 phi0 = -i psi1 instead of +i psi1
    rules[0] = (RuleTerm(-first[0].phase, first[0].color, first[0].source, first[0].dotted),) + first[1:]
    corrupted = RuleSet(rs.adinkra, rs.names, tuple(sorted(rules.items())))
    assert closure_violations(corrupted) == [
        # {Q1,Q1} phi0 = 2 Q1 (-i psi1) = -2i phi0', and Q1 Q2 phi0 = Q2 Q1 phi0 = i phi3
        "closure fails on component phi0 (vertex 0): {Q1,Q1} leaves (0-4i) phi0'; {Q1,Q2} leaves (0+2i) phi3",
        "closure fails on component psi1 (vertex 1): {Q1,Q1} leaves (0-4i) psi1'",
        "closure fails on component psi2 (vertex 2): {Q1,Q2} leaves (0-2i) psi1'",
    ]


# tracemalloc peaks in bytes on the largest cube, each call's input built outside the trace,
# measured with Python 3.11.7; the bound is 1.25x.  RULES_PEAK was measured with the rules and
# the closure traced together, which the rules alone set; CLOSURE_PEAK is the closure alone.
RULES_PEAK = 1_964_714
CLOSURE_PEAK = 153_552


def test_rules_on_the_largest_cube_stay_within_their_memory() -> None:
    a = adinkra_of_superfield(MAX_CUBE_COLORS)
    tracemalloc.start()
    try:
        transformation_rules(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= RULES_PEAK * 5 // 4


def test_closure_on_the_largest_cube_stays_within_its_memory() -> None:
    rules = transformation_rules(adinkra_of_superfield(MAX_CUBE_COLORS))
    tracemalloc.start()
    try:
        found = closure_violations(rules)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == []
    assert peak <= CLOSURE_PEAK * 5 // 4


@lru_cache(maxsize=None)
def _family_rules(n: int, kind: str) -> tuple[RuleSet, ...]:
    topo = antipodal_quotient() if n == 0 else cube_topology(n, kind)
    return tuple(transformation_rules(m) for m in enumerate_family(topo).members.values())


@pytest.mark.parametrize("n, kind", [(n, k) for n in (1, 2, 3) for k in (SCALAR, SPINOR)] + [(0, SCALAR)])
def test_closure_matches_the_walks_on_whole_families(n: int, kind: str) -> None:
    for rs in _family_rules(n, kind):
        assert closure_violations(rs) == walk_closure_violations(rs) == []


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([SCALAR, SPINOR]), st.integers(0, 989))
def test_closure_matches_the_walks_on_four_colors(kind: str, index: int) -> None:
    rs = _family_rules(4, kind)[index]
    assert closure_violations(rs) == walk_closure_violations(rs) == []


_CORRUPTIONS = ("rotate", "drop", "dot", "duplicate", "source")


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(1, SCALAR), (2, SPINOR), (3, SCALAR), (3, SPINOR), (0, SCALAR)]),
    st.data(),
)
def test_closure_matches_the_walks_on_corrupted_rules(family, data) -> None:
    members = _family_rules(*family)
    rs = members[data.draw(st.integers(0, len(members) - 1))]
    rules = dict(rs.rules)
    vertex = data.draw(st.sampled_from(sorted(rules)))
    terms = list(rules[vertex])
    j = data.draw(st.integers(0, len(terms) - 1))
    r = terms[j]
    how = data.draw(st.sampled_from(_CORRUPTIONS))
    if how == "rotate":
        terms[j] = RuleTerm(Phase(r.phase.k + data.draw(st.integers(1, 3))), r.color, r.source, r.dotted)
    elif how == "drop":
        del terms[j]
    elif how == "dot":
        terms[j] = RuleTerm(r.phase, r.color, r.source, not r.dotted)
    elif how == "duplicate":
        terms.append(r)
    else:
        other = data.draw(st.sampled_from([v for v in sorted(rules) if v != r.source]))
        terms[j] = RuleTerm(r.phase, r.color, other, r.dotted)
    rules[vertex] = tuple(terms)
    corrupted = RuleSet(rs.adinkra, rs.names, tuple(sorted(rules.items())))
    found = closure_violations(corrupted)
    assert found == walk_closure_violations(corrupted)
    assert found
