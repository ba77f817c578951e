"""Derivative batteries: images, kernels, and constraint systems of D-maps.

A source spec is a battery of derivative dressings applied to one
unconstrained superfield: entries (I_alpha, l_alpha) stand for the superfields
F_alpha = d_tau^l_alpha D_{I_alpha} U.  The battery determines

* a kernel order per component (how many time derivatives annihilate it),
* an image Adinkra (heights hgt0 + 2 mu on the color cube), and
* a redundant system of first-order constraints tying the F_alpha together,
  with phases computed by the symbolic engine rather than guessed.

Every projection P_(c,alpha) F_alpha is a unit phase times d_tau^m D_c U with
m = m_alpha(c) = l_alpha + |I_alpha \\ c|, so whether D_k carries one equation
onto another up to a phase is decided by derivative orders alone: the
equation of a pair at c is redundant exactly when some color k in c leaves
the pair's larger m_alpha unchanged at c - 2^(k-1).  The battery's entries
must be mutually extreme (see ehgt_violations); emit_constraints,
verify_presentation and image_adinkra all refuse one that is not.

P_(c,alpha) F_alpha is the one word D_{c xor I_alpha} d_tau^l_alpha D_{I_alpha},
so it sends each term U_d of U to one term at monomial d xor c.  No two terms
share a key and nothing cancels, so verify_presentation compares the two sides
of an equation term by term.  It walks U once through each entry's own word and
once through each D_w, and reads every projection off those two tables;
emit_constraints walks only U_c, the one term that reaches theta = 0.

identify() inverts the construction: given a cube Adinkra it recovers a
battery presenting it, by lowering onto the all-colors vertex and counting
how often each source vertex descends.  Neither it nor verify_presentation
builds the image Adinkra: its heights are hgt0 + 2 mu on an already checked
cube, so they compare those heights, or the orders behind them, directly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import Adinkra, AdinkraError
from .cube import (
    MAX_CUBE_COLORS,
    SCALAR,
    SPINOR,
    cube_signature,
    cube_topology,
    dist0,
    hgt0,
    standard_parity,
    subset_label,
)
from .mutation import lowering_sequence_to_one_hooked, sources
from .superspace import (
    D,
    FieldSymbol,
    Phase,
    SuperOp,
    SuperfieldExpr,
    Word,
    _unit_phases,
    _walk,
    _word_steps,
    apply_op,
    descending_product,
    expr_add,
    generic_superfield,
)

__all__ = [
    "MAX_BATTERY_TERMS",
    "SourceSpec",
    "ehgt_violations",
    "mu",
    "kernel_orders",
    "image_adinkra",
    "Identification",
    "identify",
    "projector",
    "m_alpha",
    "Constraint",
    "ConstraintSystem",
    "emit_constraints",
    "VerificationReport",
    "verify_presentation",
    "AnnihilationCounterexample",
    "check_annihilation",
    "dimension_vector",
    "format_dimension_vector",
    "gradient_column",
    "N2_DOUBLET_ANNIHILATOR",
    "N3_TRIPLET_ANNIHILATOR",
    "N3_QUINTET_ANNIHILATOR",
]


# bounds the 2^n terms of U in each of verify_presentation's 2^n x m projections and its m(m-1)/2
# equation sides per component; emit_constraints walks one term per projection but refuses the same batteries
MAX_BATTERY_TERMS = 1 << 18


@dataclass(frozen=True)
class SourceSpec:
    """A battery of derivative dressings: entries are (subset mask, extra d_tau order)."""

    n_colors: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.n_colors  # the battery lives on the n-cube, so the cube cap applies
        if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_CUBE_COLORS:
            raise AdinkraError(f"a source spec needs 1..{MAX_CUBE_COLORS} colors (the cube cap), got {n!r}")
        if not isinstance(self.entries, tuple):  # a frozen spec hashes its entries
            raise AdinkraError(f"a source spec needs a tuple of entries, got {type(self.entries).__name__}")
        if not self.entries:
            raise AdinkraError("a source spec needs at least one entry")
        seen = set()
        for entry in self.entries:
            if not (isinstance(entry, tuple) and len(entry) == 2 and all(type(x) is int for x in entry)):
                raise AdinkraError(f"a source spec entry must be a (subset, shift) pair of ints, got {entry!r}")
            mask, shift = entry
            if not 0 <= mask < 1 << self.n_colors:
                raise AdinkraError(f"subset {mask:#b} outside color range")
            if shift < 0:
                raise AdinkraError(f"entry {subset_label(mask)} has negative derivative order")
            if mask in seen:
                raise AdinkraError(f"subset {subset_label(mask)} appears twice")
            seen.add(mask)


def ehgt_violations(spec: SourceSpec) -> list[str]:
    """Pairs of entries too close for both to stay extreme in the image."""
    out = []
    es = spec.entries
    for a in range(len(es)):
        for b in range(len(es)):
            if a == b:
                continue
            (ia, la), (ib, lb) = es[a], es[b]
            gap = hgt0(ia) - hgt0(ib) + 2 * (la - lb)
            if gap >= dist0(ia, ib):
                out.append(
                    f"entries {subset_label(ia)} and {subset_label(ib)}: height gap {gap}"
                    f" reaches distance {dist0(ia, ib)}"
                )
    return out


def _require_extreme(spec: SourceSpec) -> None:
    bad = ehgt_violations(spec)
    if bad:
        raise AdinkraError("spec entries not mutually extreme: " + "; ".join(bad))


def m_alpha(spec: SourceSpec, component: int, alpha: int) -> int:
    """Derivative order of the component as seen through entry alpha."""
    mask, shift = spec.entries[alpha]
    return shift + hgt0(mask & ~component)


def mu(spec: SourceSpec, component: int) -> int:
    """Least time-derivative order at which the component survives in the image."""
    return min(m_alpha(spec, component, a) for a in range(len(spec.entries)))


def kernel_orders(spec: SourceSpec) -> dict[int, int]:
    """mu per component: d_tau^mu(c) annihilates component c of the battery kernel."""
    return {c: mu(spec, c) for c in range(1 << spec.n_colors)}


def image_adinkra(spec: SourceSpec, kind: str = SCALAR) -> Adinkra:
    """The Adinkra presented by the battery: heights hgt0 + 2 mu on the standard-parity cube.

    Raises when the spec fails the extremality condition (see
    :func:`ehgt_violations`).  The battery entries come out as the sources,
    at heights hgt0(I_alpha) + 2 l_alpha.
    """
    _require_extreme(spec)
    topo = cube_topology(spec.n_colors, kind)
    heights = {c: hgt0(c) + 2 * mu(spec, c) for c in topo.vertex_ids}
    return Adinkra.from_maps(topo, heights, standard_parity(topo))


@dataclass(frozen=True)
class Identification:
    """A battery presenting a given cube Adinkra, plus how it was found."""

    spec: SourceSpec
    kind: str
    moves: tuple[int, ...]  # lowering order used for the descent


def identify(adinkra: Adinkra) -> Identification:
    """Recover a source spec presenting a cube Adinkra.

    Works on full color cubes only (quotients and other topologies are
    rejected; their components do not correspond to subsets of one
    superfield).  The Adinkra is lowered onto the all-colors vertex; each
    source vertex v becomes an entry (v, times v was lowered).  The battery
    must be mutually extreme, and its image heights hgt0 + 2 mu, set on the
    input's own (already validated) topology, must normalize to the input's
    (parity does not enter the identification); a mismatch is a hard error.
    """
    sig = cube_signature(adinkra.topology)
    if sig is None:
        raise AdinkraError("identification needs a full color-cube topology")
    n, convention = sig
    full = (1 << n) - 1
    moves = lowering_sequence_to_one_hooked(adinkra, full)
    counts = Counter(moves)
    entries = tuple((v, counts[v]) for v in sources(adinkra))
    spec = SourceSpec(n, entries)
    _require_extreme(spec)
    # the unchecked image never escapes: if it normalizes to the checked input, it meets every gap
    image = tuple(hgt0(v) + 2 * mu(spec, v) for v in adinkra.topology.vertex_ids)
    if Adinkra._trusted(adinkra.topology, image, adinkra.parity).normalized().heights != adinkra.normalized().heights:
        raise AdinkraError(
            "identification failed: battery image does not reproduce the input heights"
        )
    return Identification(spec, convention, tuple(moves))


def _descending_word(mask: int, n_colors: int) -> Word:
    """D_{c_k} ... D_{c_1} over the colors c_1 < ... < c_k of mask, as one word."""
    return tuple(("D", c + 1) for c in reversed(range(n_colors)) if mask >> c & 1)


def projector(spec: SourceSpec, component: int, alpha: int) -> SuperOp:
    """The descending D word mapping entry alpha onto the given component."""
    mask, _ = spec.entries[alpha]
    k = component ^ mask
    return descending_product([c + 1 for c in range(spec.n_colors) if k >> c & 1])


def _check_battery(spec: SourceSpec) -> None:
    """Refuse a battery over MAX_BATTERY_TERMS, then one whose entries are not mutually extreme."""
    m = len(spec.entries)
    terms = 4**spec.n_colors * m * (m + 1) // 2
    if terms > MAX_BATTERY_TERMS:
        raise AdinkraError(f"the battery would hold {terms} superfield terms, over the cap of {MAX_BATTERY_TERMS}")
    _require_extreme(spec)


@dataclass(frozen=True)
class Constraint:
    """P_(c,alpha) F_alpha = phase * d_tau^gap P_(c,beta) F_beta at one component."""

    component: int
    alpha: int
    beta: int
    gap: int
    phase: Phase
    redundant: bool


@dataclass(frozen=True)
class ConstraintSystem:
    spec: SourceSpec
    kind: str
    equations: tuple[Constraint, ...]


Lowest = dict[tuple[int, int], tuple[int, int]]  # (component, alpha) -> phase k, order
# (component, alpha) -> each U_d walked, by d: monomial, time derivatives, phase k mod 4
Walks = dict[tuple[int, int], list[tuple[int, int, int]]]


def _equations(spec: SourceSpec, lowest: Lowest) -> tuple[Constraint, ...]:
    """Relate each entry pair at every component, with phases and orders read off the lowest components."""
    m = len(spec.entries)
    equations = []
    for c in range(1 << spec.n_colors):
        for a in range(m):
            for b in range(a + 1, m):
                ma, mb = lowest[(c, a)][1], lowest[(c, b)][1]
                hi, lo = (a, b) if (ma, a) >= (mb, b) else (b, a)
                (ka, da), (kb, db) = lowest[(c, hi)], lowest[(c, lo)]
                redundant = any(
                    c >> k & 1 and max(lowest[(c ^ 1 << k, a)][1], lowest[(c ^ 1 << k, b)][1]) == max(ma, mb)
                    for k in range(spec.n_colors)
                )
                equations.append(Constraint(c, hi, lo, da - db, Phase(ka - kb), redundant))
    return tuple(equations)


def _project(spec: SourceSpec, kind: str, every_term: bool) -> tuple[list[FieldSymbol], Walks, Lowest]:
    """U's fields U_d, each U_d (or only U_c) walked from its phase through each projection, and the lowest terms.

    P_(c,alpha) is D_w d_tau^l_alpha D_{I_alpha} with w = c xor I_alpha, and
    each descending word is walked over each monomial at most once: the
    entry's own word over U once per entry, then each D_w over every
    monomial once, finishing the m projections with c = w xor I_alpha.  That
    is m * 2^n + 4^n walks of at most n atoms.  The one-term path walks U_c
    through D_{I_alpha} to theta^w, and D_w once from there: 2^n * (m + 1)
    walks.
    """
    n = spec.n_colors
    terms = sorted(generic_superfield(n, kind).coeffs.items())
    syms = [sym for (_, sym), _ in terms]
    phases = [_unit_phases(g)[0].k for _, g in terms]
    domain = range(1 << n)
    entry_words = [_word_steps(_descending_word(mask, n), n) for mask, _ in spec.entries]

    def through_entry(alpha: int, d: int) -> tuple[int, int, int]:
        # d_tau^l_alpha commutes with every D and only adds l_alpha time derivatives
        mid, dots, k = _walk(entry_words[alpha], d)
        return mid, dots + spec.entries[alpha][1], k + phases[d]

    firsts = [[through_entry(alpha, d) for d in domain] for alpha in range(len(spec.entries))] if every_term else None
    projections, lowest = {}, {}
    for w in domain:
        # only one table of D_w is live at a time; U_c always meets it at theta^w
        word = _word_steps(_descending_word(w, n), n)
        second = [_walk(word, d) for d in domain] if every_term else {w: _walk(word, w)}
        for alpha, (mask, _) in enumerate(spec.entries):
            c = w ^ mask
            first = firsts[alpha] if every_term else (through_entry(alpha, c),)
            walked = [
                (landed, dots + more, (k + more_k) & 3)
                for mid, dots, k in first
                for landed, more, more_k in (second[mid],)
            ]
            # the word toggles every theta in c once, so U_d lands on d xor c and only U_c reaches theta = 0
            landed, dots, k = walked[c if every_term else 0]
            if landed:
                raise AdinkraError(f"projection of entry {alpha} onto {subset_label(c)} is not a single term")
            order = m_alpha(spec, c, alpha)
            if dots != order:
                raise AdinkraError(
                    f"projection of entry {alpha} onto {subset_label(c)} carries {dots} time derivatives,"
                    f" not m_alpha = {order}"
                )
            projections[(c, alpha)], lowest[(c, alpha)] = walked, (k, dots)
    return syms, projections, lowest


def emit_constraints(spec: SourceSpec, kind: str = SCALAR) -> ConstraintSystem:
    """The full (redundant) first-order system tying the battery together.

    For every component c and entry pair, the side with more derivatives is
    expressed through the other; the relating phase is computed by walking
    the one term of U that reaches theta = 0 through each projection's two
    words, each D_w once: 2^n * (m + 1) walks of at most n atoms.
    An equation is flagged redundant (but kept) when, for some color k in c,
    D_k maps the same pair's equation at c - 2^(k-1) onto it up to a phase.
    Both sides at any component d are a unit times d_tau^M D_d U, with M the
    pair's larger m_alpha at d, so this holds exactly when M is the same at
    both components.  A battery whose entries are not mutually extreme is
    refused, as :func:`image_adinkra` refuses it.
    """
    _check_battery(spec)
    _, _, lowest = _project(spec, kind, every_term=False)
    return ConstraintSystem(spec, kind, _equations(spec, lowest))


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    checked_equations: int
    failures: tuple[str, ...]
    rederived_matches_image: bool


def verify_presentation(spec: SourceSpec, kind: str = SCALAR) -> VerificationReport:
    """Substitute the battery into every emitted constraint and re-derive heights.

    All equations must vanish identically on a generic superfield, and the
    engine's least order at each component must be mu (the image heights are
    hgt0 + 2 mu).  Each term of U is walked once through each entry's own
    word and once through each D_w, m * 2^n + 4^n walks of at most n atoms,
    and every projection is read off those two tables; an equation that does
    not vanish is a failure naming its residual lhs - rhs.
    """
    _check_battery(spec)
    n, m = spec.n_colors, len(spec.entries)
    syms, projections, lowest = _project(spec, kind, every_term=True)
    equations = _equations(spec, lowest)
    failures = []
    for eq in equations:
        c, gap, k = eq.component, eq.gap, eq.phase.k
        lhs, rhs = projections[(c, eq.alpha)], projections[(c, eq.beta)]
        # each side holds U_d once, at monomial d xor c with a unit coefficient, so no two
        # terms share a key and the sides are equal maps exactly when they agree at every d
        if any(l != (landed, dots + gap, (t + k) & 3) for l, (landed, dots, t) in zip(lhs, rhs)):
            # lhs - i^k d_tau^gap rhs; U_c lands at theta = 0, so its statistics are both sides'
            residual = SuperfieldExpr(n, syms[c].statistics, [
                (landed, ((Phase(t + side_k), sym.dot(dots + side_gap)),))
                for side, side_gap, side_k in ((lhs, 0, 0), (rhs, gap, k + 2))
                for sym, (landed, dots, t) in zip(syms, side)
            ])
            failures.append(
                f"component {subset_label(c)}: entries {eq.alpha}/{eq.beta}"
                f" do not satisfy the emitted relation; residual {residual}"
            )
    matches = all(min(lowest[(c, a)][1] for a in range(m)) == mu(spec, c) for c in range(1 << n))
    return VerificationReport(not failures and matches, len(equations), tuple(failures), matches)


@dataclass(frozen=True)
class AnnihilationCounterexample:
    row: int
    kind: str
    residual: SuperfieldExpr


Matrix = tuple[tuple[SuperOp, ...], ...]


def check_annihilation(a: Matrix, b: Matrix, n_colors: int) -> AnnihilationCounterexample | None:
    """Does the operator-matrix product A.B vanish on generic superfields?

    B is applied to a vector of independent generic superfields (one per
    column, both kinds tried), then A; the first nonzero entry is returned as
    a counterexample, None means exact annihilation.
    """
    rows_a, cols_a = len(a), len(a[0])
    rows_b, cols_b = len(b), len(b[0])
    if any(len(r) != cols_a for r in a) or any(len(r) != cols_b for r in b):
        raise AdinkraError("ragged operator matrix")
    if cols_a != rows_b:
        raise AdinkraError(f"cannot multiply {rows_a}x{cols_a} by {rows_b}x{cols_b}")
    for kind in (SCALAR, SPINOR):
        vec = [generic_superfield(n_colors, kind, prefix=f"F{j + 1}_") for j in range(cols_b)]
        mid = []
        for k in range(rows_b):
            acc = apply_op(b[k][0], vec[0])
            for j in range(1, cols_b):
                acc = expr_add(acc, apply_op(b[k][j], vec[j]))
            mid.append(acc)
        for r in range(rows_a):
            acc = apply_op(a[r][0], mid[0])
            for k in range(1, cols_a):
                acc = expr_add(acc, apply_op(a[r][k], mid[k]))
            if not acc.is_zero():
                return AnnihilationCounterexample(r, kind, acc)
    return None


def dimension_vector(adinkra: Adinkra) -> tuple[int, ...]:
    """Component counts per height of the normalized Adinkra, lowest first."""
    h = adinkra.normalized().heights
    counts = Counter(h)
    return tuple(counts.get(level, 0) for level in range(max(h) + 1))


def format_dimension_vector(dims: tuple[int, ...]) -> str:
    return "(" + "|".join(str(d) for d in dims) + ")"


def gradient_column(n_colors: int) -> Matrix:
    """The column (D_1, ..., D_n)^T as an operator matrix."""
    return tuple((D(c),) for c in range(1, n_colors + 1))


_Z = SuperOp.zero()

# Maximal-rank first-order matrix annihilating the two-color gradient column;
# it is also nilpotent (squares to zero).
N2_DOUBLET_ANNIHILATOR: Matrix = (
    (D(1), -D(2)),
    (D(2), D(1)),
)

# Maximal-rank first-order matrix annihilating the three-color gradient column.
N3_TRIPLET_ANNIHILATOR: Matrix = (
    (D(2), D(1), _Z),
    (D(3), _Z, D(1)),
    (_Z, D(3), D(2)),
    (D(1), -D(2), _Z),
    (_Z, D(2), -D(3)),
)

# Maximal-rank first-order matrix annihilating N3_TRIPLET_ANNIHILATOR.
N3_QUINTET_ANNIHILATOR: Matrix = (
    (D(1), _Z, _Z, D(2), _Z),
    (D(2), _Z, _Z, -D(1), _Z),
    (D(3), D(2), D(1), _Z, _Z),
    (_Z, D(1), _Z, D(3), D(3)),
    (_Z, -D(3), _Z, D(1), D(1)),
    (_Z, _Z, D(2), _Z, D(3)),
    (_Z, _Z, D(3), _Z, -D(2)),
)
