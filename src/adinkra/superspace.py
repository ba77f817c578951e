"""Exact superspace engine over one time dimension and n odd directions.

Everything is computed exactly.  An expression is one sparse map from
(theta monomial, component field) to a nonzero Gaussian-integer coefficient
(a, b) = a + b i, so 2i*x is the single entry (0, 2).  Theta monomials are
subset bitmasks stored to the left of component fields.  Operators are
formal words in D_c, Q_c and d_tau, kept as the same kind of map from word
to coefficient.  A phase i^k acts on a coefficient through one rotation,
with k an int mod 4.  The ``terms`` view of either object spells each
coefficient out in unit phases (2i*x reads as two copies of +i*x); str()
and component() show that view.  With the conventions

    D_c = d/d(theta^c) + i theta^c d_tau
    Q_c = i d/d(theta^c) + theta^c d_tau

one gets {D_a, D_b} = {Q_a, Q_b} = 2i delta_ab d_tau and {Q_a, D_b} = 0,
which the test-suite verifies symbolically rather than assuming.  D_c and
Q_c act on an expression only through apply_op, which walks each term
through a whole word on ints; there is no separate theta action.

The second half of the module turns a height-and-parity decorated graph into
component transformation rules and checks the supersymmetry algebra closes on
them: for every component X, [delta(eps1), delta(eps2)] X must equal
2i (eps1 . eps2) dX/dtau.  A failure names every term left over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .core import BOSON, FERMION, Adinkra, AdinkraError
from .cube import MAX_CUBE_COLORS, SCALAR, SPINOR, cube_topology, hgt0, standard_parity

__all__ = [
    "Phase",
    "ONE",
    "I_PHASE",
    "MINUS_ONE",
    "MINUS_I",
    "FieldSymbol",
    "SuperfieldExpr",
    "SuperOp",
    "D",
    "Q",
    "DTAU",
    "anticommutator",
    "apply_op",
    "generic_superfield",
    "component_name",
    "project",
    "check_identity",
    "identity_residual",
    "adinkra_of_superfield",
    "RuleTerm",
    "RuleSet",
    "transformation_rules",
    "closure_violations",
]


@dataclass(frozen=True, order=True)
class Phase:
    """A fourth root of unity, stored as the exponent of i (mod 4)."""

    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", self.k % 4)

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.k + other.k)

    def __neg__(self) -> "Phase":
        return Phase(self.k + 2)

    def inverse(self) -> "Phase":
        return Phase(-self.k)

    def __str__(self) -> str:
        return {0: "+1", 1: "+i", 2: "-1", 3: "-i"}[self.k]


ONE = Phase(0)
I_PHASE = Phase(1)
MINUS_ONE = Phase(2)
MINUS_I = Phase(3)

# Gaussian-integer coefficient (a + b i) as a pair; phase action permutes it.
Gauss = tuple[int, int]


def _rot(g: Gauss, k: int) -> Gauss:
    """g times i^k, for any int k."""
    a, b = g
    k &= 3
    if k == 0:
        return g
    if k == 1:
        return (-b, a)
    if k == 2:
        return (-a, -b)
    return (b, -a)


def _times(g: Gauss, h: Gauss) -> Gauss:
    a, b = g
    c, d = h
    return (a * c - b * d, a * d + b * c)


def _accumulate(out: dict, key, g: Gauss) -> None:
    """Add g to out[key], dropping the entry when it cancels."""
    old = out.get(key)
    if old is None:
        out[key] = g
        return
    v = (old[0] + g[0], old[1] + g[1])
    if v == (0, 0):
        del out[key]
    else:
        out[key] = v


def _unit_phases(g: Gauss) -> list[Phase]:
    """g as a sum of unit phases: real units first, then imaginary ones."""
    a, b = g
    return [ONE if a > 0 else MINUS_ONE] * abs(a) + [I_PHASE if b > 0 else MINUS_I] * abs(b)


@dataclass(frozen=True, order=True)
class FieldSymbol:
    """A named component field, possibly time-differentiated."""

    name: str
    derivative_order: int = 0
    statistics: str = BOSON

    def dot(self, k: int = 1) -> "FieldSymbol":
        return FieldSymbol(self.name, self.derivative_order + k, self.statistics)

    def __str__(self) -> str:
        return self.name + "'" * self.derivative_order


def _flip(statistics: str) -> str:
    return FERMION if statistics == BOSON else BOSON


Summand = tuple[Phase, FieldSymbol]
Term = tuple[int, tuple[Summand, ...]]
Key = tuple[int, FieldSymbol]


@dataclass(frozen=True, init=False)
class SuperfieldExpr:
    """A finite theta expansion: (monomial bitmask, field) -> Gaussian integer.

    coeffs is the one stored form and holds only nonzero coefficients.  The
    expression is homogeneous: every field's statistics equals the overall
    statistics flipped by the monomial degree; statistics is the Grassmann
    parity of the whole expression.

    The constructor takes the ``terms`` view, checks it and sums it into the
    map.  ``terms`` is derived from the map on first read: ascending
    monomials, each with its summands sorted by field then phase, every
    coefficient written as repeated unit phases.
    """

    n_colors: int
    statistics: str
    coeffs: dict[Key, Gauss]

    def __init__(self, n_colors: int, statistics: str, terms: Iterable[Term]) -> None:
        if statistics not in (BOSON, FERMION):
            raise AdinkraError(f"unknown statistics {statistics!r}")
        coeffs: dict[Key, Gauss] = {}
        for mask, summands in terms:
            if not 0 <= mask < 1 << n_colors:
                raise AdinkraError(f"theta monomial {mask:#b} outside color range")
            want = statistics if hgt0(mask) % 2 == 0 else _flip(statistics)
            for phase, sym in summands:
                if sym.statistics != want:
                    raise AdinkraError(f"field {sym} at monomial {mask:#b} should be a {want}")
                _accumulate(coeffs, (mask, sym), _rot((1, 0), phase.k))
        _init_expr(self, n_colors, statistics, coeffs)

    @classmethod
    def _of(cls, n_colors: int, statistics: str, coeffs: dict[Key, Gauss]) -> "SuperfieldExpr":
        """Wrap a map the engine built; it is homogeneous by construction."""
        self = object.__new__(cls)
        _init_expr(self, n_colors, statistics, coeffs)
        return self

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        by_mask: dict[int, list[tuple[FieldSymbol, Gauss]]] = {}
        for (mask, sym), g in self.coeffs.items():
            by_mask.setdefault(mask, []).append((sym, g))
        return tuple((m, _summands(by_mask[m])) for m in sorted(by_mask))

    def is_zero(self) -> bool:
        return not self.coeffs

    def component(self, mask: int) -> tuple[Summand, ...]:
        return _summands([(sym, g) for (m, sym), g in self.coeffs.items() if m == mask])

    def __hash__(self) -> int:
        return hash((self.n_colors, self.statistics, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        return (
            f"SuperfieldExpr(n_colors={self.n_colors!r}, statistics={self.statistics!r},"
            f" terms={self.terms!r})"
        )

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for mask, summands in self.terms:
            theta = "".join(f"th{c + 1}" for c in range(self.n_colors) if mask >> c & 1)
            for phase, sym in summands:
                bits.append(f"{phase}*{theta + '*' if theta else ''}{sym}")
        return " ".join(bits)


def _init_expr(self: SuperfieldExpr, n_colors: int, statistics: str, coeffs) -> None:
    setattr_ = object.__setattr__
    setattr_(self, "n_colors", n_colors)
    setattr_(self, "statistics", statistics)
    setattr_(self, "coeffs", coeffs)


def _summands(items: list[tuple[FieldSymbol, Gauss]]) -> tuple[Summand, ...]:
    items.sort(key=lambda t: t[0])
    return tuple((phase, sym) for sym, g in items for phase in sorted(_unit_phases(g)))


def expr_add(e1: SuperfieldExpr, e2: SuperfieldExpr) -> SuperfieldExpr:
    if e1.n_colors != e2.n_colors:
        raise AdinkraError("cannot add expressions with different color counts")
    if e1.is_zero():
        return e2
    if e2.is_zero():
        return e1
    if e1.statistics != e2.statistics:
        raise AdinkraError("cannot add a boson expression to a fermion expression")
    out = dict(e1.coeffs)
    for key, g in e2.coeffs.items():
        _accumulate(out, key, g)
    return SuperfieldExpr._of(e1.n_colors, e1.statistics, out)


def expr_sub(e1: SuperfieldExpr, e2: SuperfieldExpr) -> SuperfieldExpr:
    return expr_add(e1, expr_scale(e2, MINUS_ONE))


def expr_scale(expr: SuperfieldExpr, phase: Phase) -> SuperfieldExpr:
    k = phase.k
    out = {key: _rot(g, k) for key, g in expr.coeffs.items()}
    return SuperfieldExpr._of(expr.n_colors, expr.statistics, out)


def dtau_expr(expr: SuperfieldExpr, k: int = 1) -> SuperfieldExpr:
    out = {(mask, sym.dot(k)): g for (mask, sym), g in expr.coeffs.items()}
    return SuperfieldExpr._of(expr.n_colors, expr.statistics, out)


# -- formal operators ------------------------------------------------------

Atom = tuple
Word = tuple[Atom, ...]


@dataclass(frozen=True, init=False)
class SuperOp:
    """A Gaussian-integer combination of formal words over {D_c, Q_c, d_tau}.

    coeffs maps each word to its nonzero coefficient.  The constructor takes
    the ``terms`` view, (phase, word) summands; ``terms`` is derived from the
    map on first read: ascending words, each coefficient's real units before
    its imaginary ones.
    """

    coeffs: dict[Word, Gauss]

    def __init__(self, terms: Iterable[tuple[Phase, Word]]) -> None:
        coeffs: dict[Word, Gauss] = {}
        for phase, word in terms:
            _accumulate(coeffs, tuple(word), _rot((1, 0), phase.k))
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _of(cls, coeffs: dict[Word, Gauss]) -> "SuperOp":
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @classmethod
    def zero(cls) -> "SuperOp":
        return cls._of({})

    @classmethod
    def identity(cls) -> "SuperOp":
        return cls._of({(): (1, 0)})

    @cached_property
    def terms(self) -> tuple[tuple[Phase, Word], ...]:
        return tuple(
            (phase, word) for word in sorted(self.coeffs) for phase in _unit_phases(self.coeffs[word])
        )

    def __mul__(self, other: "SuperOp") -> "SuperOp":
        out: dict[Word, Gauss] = {}
        for w1, g1 in self.coeffs.items():
            for w2, g2 in other.coeffs.items():
                _accumulate(out, w1 + w2, _times(g1, g2))
        return SuperOp._of(out)

    def __add__(self, other: "SuperOp") -> "SuperOp":
        out = dict(self.coeffs)
        for word, g in other.coeffs.items():
            _accumulate(out, word, g)
        return SuperOp._of(out)

    def __sub__(self, other: "SuperOp") -> "SuperOp":
        return self + (-other)

    def __neg__(self) -> "SuperOp":
        return self.scaled(MINUS_ONE)

    def scaled(self, phase: Phase) -> "SuperOp":
        return SuperOp._of({w: _rot(g, phase.k) for w, g in self.coeffs.items()})

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        return f"SuperOp(terms={self.terms!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        def word_str(w: Word) -> str:
            return "".join(
                f"{a[0]}{a[1]}" if a[0] in ("D", "Q") else "dt" for a in w
            ) or "1"
        return " ".join(f"{p}*{word_str(w)}" for p, w in self.terms)


def D(color: int) -> SuperOp:
    return SuperOp._of({(("D", color),): (1, 0)})


def Q(color: int) -> SuperOp:
    return SuperOp._of({(("Q", color),): (1, 0)})


DTAU = SuperOp._of({(("dt",),): (1, 0)})


def anticommutator(a: SuperOp, b: SuperOp) -> SuperOp:
    return a * b + b * a


def _word_steps(word: Word, n_colors: int) -> list[tuple[int, int, int]]:
    """The word's atoms, rightmost first, as (bit, lower bits, phase exponent).

    bit 0 marks d_tau.  Otherwise the exponent is the i-power the atom
    contributes when it adds theta^c (1 for D_c); the derivative branch
    contributes the complementary power (1 for Q_c).
    """
    steps = []
    for atom in reversed(word):
        if atom[0] in ("D", "Q"):
            if not 1 <= atom[1] <= n_colors:
                raise AdinkraError(f"color {atom[1]} outside 1..{n_colors}")
            bit = 1 << (atom[1] - 1)
            steps.append((bit, bit - 1, 1 if atom[0] == "D" else 0))
        elif atom[0] == "dt":
            steps.append((0, 0, 0))
        else:  # pragma: no cover
            raise AdinkraError(f"unknown operator atom {atom!r}")
    return steps


def _walk(steps: list[tuple[int, int, int]], mask: int) -> tuple[int, int, int]:
    """One term's theta monomial through a word's steps: the monomial, time derivatives and i-power k it ends with."""
    k = dots = 0
    for bit, below, add_k in steps:
        if not bit:
            dots += 1
            continue
        k += 2 * (mask & below).bit_count()
        if mask & bit:
            mask ^= bit
            k += 1 - add_k
        else:
            mask |= bit
            dots += 1
            k += add_k
    return mask, dots, k


def apply_op(op: SuperOp, expr: SuperfieldExpr) -> SuperfieldExpr:
    """Apply a formal operator to an expression, rightmost word atom first.

    Each atom sends one term to one term: D_c strips theta^c from a monomial
    that holds it and otherwise adds it along with a time derivative and a
    factor i (Q_c puts the i on the other branch); both branches carry the
    sign (-1)^(number of lower thetas in the monomial).  A word is therefore
    walked term by term on ints, and only terms from different words can
    cancel.
    """
    statistics = _op_output_stat(op, expr.statistics)
    out: dict[Key, Gauss] = {}
    for word, g_op in op.coeffs.items():
        steps = _word_steps(word, expr.n_colors)
        for (mask, sym), g in expr.coeffs.items():
            mask, dots, k = _walk(steps, mask)
            if g_op != (1, 0):
                g = _times(g_op, g)
            _accumulate(out, (mask, sym.dot(dots) if dots else sym), _rot(g, k))
    return SuperfieldExpr._of(expr.n_colors, statistics, out)


def _op_output_stat(op: SuperOp, statistics: str) -> str:
    # all words in a canonical combination must agree on Grassmann parity
    flips = {sum(1 for a in w if a[0] in ("D", "Q")) % 2 for w in op.coeffs}
    if len(flips) > 1:
        raise AdinkraError("operator mixes Grassmann parities")
    flip = next(iter(flips), 0)
    return _flip(statistics) if flip else statistics


# -- generic superfields and components ------------------------------------


def component_name(prefix: str, mask: int) -> str:
    return prefix + "".join(str(c + 1) for c in range(mask.bit_length()) if mask >> c & 1)


def generic_superfield(n_colors: int, kind: str = SCALAR, prefix: str = "U") -> SuperfieldExpr:
    """A fresh superfield with one independent component per theta monomial.

    Component phases follow the convention i^floor((k + s)/2) at theta degree
    k, with s = 1 for the scalar kind and s = 0 for the spinor kind.  This
    reproduces the familiar low-N expansions, e.g. for two colors the scalar
    reads  U + i th1 U1 + i th2 U2 + i th1 th2 U12.  The color count is
    capped at MAX_CUBE_COLORS before any term is built, so check_identity,
    identity_residual and check_annihilation are capped with it.
    """
    if type(n_colors) is not int or not 0 <= n_colors <= MAX_CUBE_COLORS:
        raise AdinkraError(f"a superfield needs 0..{MAX_CUBE_COLORS} colors (the cube cap), got {n_colors!r}")
    if kind not in (SCALAR, SPINOR):
        raise AdinkraError(f"superfield kind must be scalar or spinor, got {kind!r}")
    overall = BOSON if kind == SCALAR else FERMION
    s = 1 if kind == SCALAR else 0
    coeffs: dict[Key, Gauss] = {}
    for mask in range(1 << n_colors):
        k = hgt0(mask)
        stat = overall if k % 2 == 0 else _flip(overall)
        sym = FieldSymbol(component_name(prefix, mask), 0, stat)
        coeffs[(mask, sym)] = _rot((1, 0), (k + s) // 2)
    return SuperfieldExpr._of(n_colors, overall, coeffs)


def descending_product(colors: Sequence[int]) -> SuperOp:
    """D_{c_k} ... D_{c_1} as one word: the first color is rightmost, applied first."""
    return SuperOp._of({tuple(("D", c) for c in reversed(colors)): (1, 0)})


def _descending_word(mask: int, n_colors: int) -> Word:
    """The word of descending_product over the colors of mask in ascending order."""
    return tuple(("D", c + 1) for c in reversed(range(n_colors)) if mask >> c & 1)


def project(expr: SuperfieldExpr, mask: int) -> tuple[Summand, ...]:
    """Component extraction: apply the descending D product, then set theta = 0.

    For distinct colors the D's anticommute exactly, so the descending product
    equals the antisymmetrized one and the projection returns exactly the
    stored coefficient of the theta monomial.
    """
    if not 0 <= mask < 1 << expr.n_colors:
        raise AdinkraError(f"subset {mask:#b} outside color range")
    colors = [c + 1 for c in range(expr.n_colors) if mask >> c & 1]
    return apply_op(descending_product(colors), expr).component(0)


def identity_residual(lhs: SuperOp, rhs: SuperOp, n_colors: int) -> dict[str, SuperfieldExpr]:
    """Difference of both operators applied to a generic scalar and spinor."""
    out = {}
    for kind in (SCALAR, SPINOR):
        e = generic_superfield(n_colors, kind)
        out[kind] = expr_sub(apply_op(lhs, e), apply_op(rhs, e))
    return out


def check_identity(lhs: SuperOp, rhs: SuperOp, n_colors: int) -> bool:
    """Operator identity test on generic superfields of both kinds."""
    return all(r.is_zero() for r in identity_residual(lhs, rhs, n_colors).values())


def adinkra_of_superfield(n_colors: int, kind: str = SCALAR) -> Adinkra:
    """The cube Adinkra of an unconstrained superfield: height = subset size.

    Equivalently the one-hooked hanging from the all-colors vertex at height
    n, with the standard cube parity attached.
    """
    topo = cube_topology(n_colors, kind)
    heights = {v: hgt0(v) for v in topo.vertex_ids}
    return Adinkra.from_maps(topo, heights, standard_parity(topo))


# -- component transformation rules and closure -----------------------------


@dataclass(frozen=True)
class RuleTerm:
    """One summand of delta(eps) applied to a component: phase * eps^color * field.

    source is the vertex whose field appears; dotted marks a time derivative.
    """

    phase: Phase
    color: int
    source: int
    dotted: bool


@dataclass(frozen=True)
class RuleSet:
    """Supersymmetry variation rules read off an Adinkra, one entry per vertex."""

    adinkra: Adinkra
    names: tuple[tuple[int, str], ...]
    rules: tuple[tuple[int, tuple[RuleTerm, ...]], ...]

    def rule_map(self) -> dict[int, tuple[RuleTerm, ...]]:
        return dict(self.rules)

    def name_map(self) -> dict[int, str]:
        return dict(self.names)


def transformation_rules(adinkra: Adinkra, names: Mapping[int, str] | None = None) -> RuleSet:
    """Emit the component variation rules encoded by heights and parity.

    Per edge of color c with parity p, lower vertex v and upper vertex w:
    when v is a boson,  delta v gains i(-1)^p eps^c w  and  delta w gains
    (-1)^p eps^c v';  when v is a fermion,  delta v gains (-1)^p eps^c w  and
    delta w gains i(-1)^p eps^c v'.
    """
    t = adinkra.topology
    if names is None:
        names = {
            v: ("phi" if t.statistics_of(v) == BOSON else "psi") + str(v)
            for v in t.vertex_ids
        }
    rules: dict[int, list[RuleTerm]] = {v: [] for v in t.vertex_ids}
    for (u, v, color), p in zip(t.edges, adinkra.parity):
        lo, hi = (u, v) if adinkra.height_of(u) < adinkra.height_of(v) else (v, u)
        sign = MINUS_ONE if p else ONE
        if t.statistics_of(lo) == BOSON:
            rules[lo].append(RuleTerm(I_PHASE * sign, color, hi, False))
            rules[hi].append(RuleTerm(sign, color, lo, True))
        else:
            rules[lo].append(RuleTerm(sign, color, hi, False))
            rules[hi].append(RuleTerm(I_PHASE * sign, color, lo, True))
    return RuleSet(
        adinkra,
        tuple(sorted(names.items())),
        tuple((v, tuple(sorted(rules[v], key=lambda r: r.color))) for v in t.vertex_ids),
    )


# epsilon-algebra terms: (sorted (label, color) monomial, vertex, dots) -> Gauss
EpsTerm = tuple[tuple[tuple[int, int], ...], int, int]


def _apply_delta(
    label: int, rules: Mapping[int, tuple[RuleTerm, ...]], terms: Mapping[EpsTerm, Gauss]
) -> dict[EpsTerm, Gauss]:
    out: dict[EpsTerm, Gauss] = {}
    for (mono, vertex, dots), g in terms.items():
        # the variation's odd generator anticommutes past the monomial
        base = 2 * len(mono)
        for rt in rules[vertex]:
            sym = (label, rt.color)
            if sym in mono:
                continue
            # new symbol appends at the right, then bubbles left into place
            crossings = sum(1 for s in mono if s > sym)
            key = (tuple(sorted(mono + (sym,))), rt.source, dots + rt.dotted)
            _accumulate(out, key, _rot(g, base + rt.phase.k + 2 * crossings))
    return out


def closure_violations(ruleset: RuleSet) -> list[str]:
    """Check [delta(eps1), delta(eps2)] = 2i (eps1 . eps2) d_tau on every field.

    The coefficient of eps1^a eps2^b in the commutator is the {Q_a, Q_b}
    entry of the algebra.  Returns one message per failing component, listing
    every term of the commutator less the expected 2i delta_ab x' that is
    left: its color pair (a <= b), its field with one prime per dot and its
    Gaussian coefficient.  Empty means the algebra closes.
    """
    t = ruleset.adinkra.topology
    rules = ruleset.rule_map()
    names = ruleset.name_map()
    bad = []
    for x in t.vertex_ids:
        start: dict[EpsTerm, Gauss] = {((), x, 0): (1, 0)}
        one_two = _apply_delta(1, rules, _apply_delta(2, rules, start))
        two_one = _apply_delta(2, rules, _apply_delta(1, rules, start))
        left: dict[EpsTerm, Gauss] = dict(one_two)
        for key, g in two_one.items():
            _accumulate(left, key, _rot(g, 2))
        for c in range(1, t.n_colors + 1):
            _accumulate(left, (((1, c), (2, c)), x, 1), (0, -2))
        if left:
            evidence = "; ".join(
                f"{{Q{a},Q{b}}} leaves ({re}{im:+d}i) {FieldSymbol(str(names.get(z, z)), dots)}"
                for (((_, a), (_, b)), z, dots), (re, im) in sorted(left.items())
                if a <= b
            )
            bad.append(f"closure fails on component {names.get(x, x)} (vertex {x}): {evidence}")
    return bad
