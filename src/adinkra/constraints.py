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
of an equation term by term: where the terms land as two lists, and their
time derivatives and phases as two byte strings, one byte a term, the lower
side's moved by one bytes.translate.  It reads every projection off the word
table of its color count, every D_w applied to every monomial once (4^n
steps, each row one D step from a shorter word's row, kept compactly), and
makes no walk per call; emit_constraints walks only U_c, the one term that
reaches theta = 0, 2^n * (m + 1) walks, and builds no word table.  U's fields
and phases and every descending word's steps depend only on the color count
and kind, and are built once for each.

identify() inverts the construction: given a cube Adinkra it recovers a
battery presenting it, by lowering onto the all-colors vertex and counting
how often each source vertex descends.  Neither it nor verify_presentation
builds the image Adinkra: its heights are hgt0 + 2 mu on an already checked
cube, so they compare those heights, or the orders behind them, directly.
A spec works out its mu per component and its ehgt_violations report once
each, on first use, and keeps them, so a battery that identify returns
reaches verify_presentation with both already known.

The superspace engine is imported only by the functions that project or
expand, and the mutation walk only by identify(), so reading a battery off
the heights loads no engine and emitting or checking one loads no walk.  The
annihilator matrices are built on first access.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    from .superspace import FieldSymbol, Phase, SuperfieldExpr, SuperOp

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
        if type(n) is not int or not 1 <= n <= MAX_CUBE_COLORS:
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

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        """The ehgt_violations report, worked out on first use."""
        out = []
        es = self.entries
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
        return tuple(out)

    @cached_property
    def _orders(self) -> tuple[int, ...]:
        """mu of every component, by component, worked out on first use: the least m_alpha over the entries."""
        return tuple(min(_m_alpha(self, c, a) for a in range(len(self.entries))) for c in range(1 << self.n_colors))


def ehgt_violations(spec: SourceSpec) -> list[str]:
    """Pairs of entries too close for both to stay extreme in the image."""
    return list(spec._violations)


def _require_extreme(spec: SourceSpec) -> None:
    bad = spec._violations
    if bad:
        raise AdinkraError("spec entries not mutually extreme: " + "; ".join(bad))


def _check_indices(spec: SourceSpec, component: int, alpha: int = 0) -> None:
    """Refuse a component off the cube or an entry off the battery (every battery has entry 0); ints only."""
    if type(component) is not int or not 0 <= component < 1 << spec.n_colors:
        raise AdinkraError(f"component {component!r} outside color range")
    if type(alpha) is not int or not 0 <= alpha < len(spec.entries):
        raise AdinkraError(f"entry {alpha!r} outside the battery's entries 0..{len(spec.entries) - 1}")


def m_alpha(spec: SourceSpec, component: int, alpha: int) -> int:
    """Derivative order of the component as seen through entry alpha."""
    _check_indices(spec, component, alpha)
    return _m_alpha(spec, component, alpha)


def _m_alpha(spec: SourceSpec, component: int, alpha: int) -> int:
    """m_alpha unchecked, for the spec's own loops over its components and entries."""
    mask, shift = spec.entries[alpha]
    return shift + hgt0(mask & ~component)


def mu(spec: SourceSpec, component: int) -> int:
    """Least time-derivative order at which the component survives in the image."""
    _check_indices(spec, component)
    return spec._orders[component]


def kernel_orders(spec: SourceSpec) -> dict[int, int]:
    """mu per component: d_tau^mu(c) annihilates component c of the battery kernel."""
    return dict(enumerate(spec._orders))


def image_adinkra(spec: SourceSpec, kind: str = SCALAR) -> Adinkra:
    """The Adinkra presented by the battery: heights hgt0 + 2 mu on the standard-parity cube.

    Raises when the spec fails the extremality condition (see
    :func:`ehgt_violations`).  The battery entries come out as the sources,
    at heights hgt0(I_alpha) + 2 l_alpha.
    """
    _require_extreme(spec)
    topo = cube_topology(spec.n_colors, kind)
    heights = {c: hgt0(c) + 2 * mu_c for c, mu_c in enumerate(spec._orders)}
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
    The cube is recognized once per topology object, and the returned spec
    keeps the mu per component and the extremality report worked out here.
    """
    from .mutation import lowering_sequence_to_one_hooked, sources

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
    image = tuple(hgt0(v) + 2 * mu_v for v, mu_v in enumerate(spec._orders))
    if Adinkra._trusted(adinkra.topology, image, adinkra.parity).normalized().heights != adinkra.normalized().heights:
        raise AdinkraError(
            "identification failed: battery image does not reproduce the input heights"
        )
    return Identification(spec, convention, tuple(moves))


def projector(spec: SourceSpec, component: int, alpha: int) -> SuperOp:
    """The descending D word mapping entry alpha onto the given component."""
    from .superspace import descending_product

    _check_indices(spec, component, alpha)
    mask, _ = spec.entries[alpha]
    k = component ^ mask
    return descending_product([c + 1 for c in range(spec.n_colors) if k >> c & 1])


def _check_battery(spec: SourceSpec, kind: str) -> None:
    """Refuse a battery over MAX_BATTERY_TERMS, then one that is not mutually extreme, then an unknown kind.

    The kind is checked before it keys the engine table's cache, so an unhashable one is refused like any other.
    """
    m = len(spec.entries)
    terms = 4**spec.n_colors * m * (m + 1) // 2
    if terms > MAX_BATTERY_TERMS:
        raise AdinkraError(f"the battery would hold {terms} superfield terms, over the cap of {MAX_BATTERY_TERMS}")
    _require_extreme(spec)
    if kind not in (SCALAR, SPINOR):
        raise AdinkraError(f"superfield kind must be scalar or spinor, got {kind!r}")


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
# (component, alpha) -> where each U_d lands, by d, and one byte 8 * dots + k per U_d, by d: its time
# derivatives without the entry's shift (at most 2n <= 20, so a byte never wraps) and its phase exponent mod 4
Projections = dict[tuple[int, int], tuple[list[int], bytes]]
EngineTable = tuple[tuple["FieldSymbol", ...], tuple[int, ...], tuple[tuple[tuple[int, int, int], ...], ...]]
# by word w, then monomial e: landed monomials, time derivatives, phase exponents mod 4
WordTable = tuple[tuple[array, ...], tuple[bytes, ...], tuple[bytes, ...]]


def _relations(spec: SourceSpec, lowest: Lowest) -> Iterator[tuple[int, int, int, int, int]]:
    """(c, hi, lo, gap, k) per entry pair at every component: P_(c,hi) F_hi = i^k d_tau^gap P_(c,lo) F_lo.

    hi is the side with more derivatives; the gap and the phase exponent k are
    read off the two lowest components.
    """
    m = len(spec.entries)
    for c in range(1 << spec.n_colors):
        for a in range(m):
            for b in range(a + 1, m):
                (ka, da), (kb, db) = lowest[(c, a)], lowest[(c, b)]
                if (da, a) >= (db, b):
                    yield c, a, b, da - db, (ka - kb) & 3
                else:
                    yield c, b, a, db - da, (kb - ka) & 3


def _equations(spec: SourceSpec, lowest: Lowest) -> tuple[Constraint, ...]:
    """Each relation as a Constraint, flagged redundant when some D_k carries the pair's equation onto it."""
    from .superspace import Phase

    n = spec.n_colors
    return tuple(
        Constraint(c, hi, lo, gap, Phase(k), any(
            c >> j & 1 and max(lowest[(c ^ 1 << j, hi)][1], lowest[(c ^ 1 << j, lo)][1]) == lowest[(c, hi)][1]
            for j in range(n)
        ))
        for c, hi, lo, gap, k in _relations(spec, lowest)
    )


@cache
def _engine_table(n: int, kind: str) -> EngineTable:
    """U's fields U_d and their phase exponents by d, and the steps of the descending word D_w of every w.

    Depends only on the color count and the kind, so it is built once for
    each: at most 2 * MAX_CUBE_COLORS tables, each of 2^n symbols, 2^n phases
    and 2^n words of at most n steps.
    """
    from .superspace import _descending_word, _unit_phases, _word_steps, generic_superfield

    terms = sorted(generic_superfield(n, kind).coeffs.items())
    return (
        tuple(sym for (_, sym), _ in terms),
        tuple(_unit_phases(g)[0].k for _, g in terms),
        tuple(tuple(_word_steps(_descending_word(w, n), n)) for w in range(1 << n)),
    )


@cache
def _word_table(n: int) -> WordTable:
    """Every descending word D_w applied to every monomial: its landed monomials, time derivatives and phases mod 4.

    Depends only on the color count, so it is built once for each.  Row w
    is row w xor h, with h the highest color bit of w, taken one D_h step
    further, since D_w = D_h D_{w xor h}: D_h gives i^2 for each theta of
    the monomial below theta^h, then strips theta^h or adds it with one time
    derivative and one more i.  Each row holds its 2^n cells in three compact
    strings, about 4 bytes a cell: about 1 MB at n = 9, where a tuple per
    cell would take about 17 MB.
    """
    landed, dots, phases = [array("H", range(1 << n))], [bytes(1 << n)], [bytes(1 << n)]
    for w in range(1, 1 << n):
        h = 1 << (w.bit_length() - 1)
        below, row = h - 1, w ^ h
        landed.append(array("H", [mask ^ h for mask in landed[row]]))
        dots.append(bytes([more + (not mask & h) for mask, more in zip(landed[row], dots[row])]))
        phases.append(bytes([
            (k + 2 * (mask & below).bit_count() + (not mask & h)) & 3 for mask, k in zip(landed[row], phases[row])
        ]))
    return tuple(landed), tuple(dots), tuple(phases)


def _project(spec: SourceSpec, kind: str, every_term: bool) -> tuple[tuple[FieldSymbol, ...], Projections, Lowest]:
    """U's fields U_d, each U_d (or only U_c) carried from its phase through each projection, and the lowest terms.

    P_(c,alpha) is D_w d_tau^l_alpha D_{I_alpha} with w = c xor I_alpha.
    Every term of U goes through it by two reads of the color count's word
    table: row I_alpha at d, with U_d's phase, then row w at the monomial
    reached; no walk is made per call.  Each projection keeps where its
    terms land as one list and their derivatives and phases as one byte
    string, 8 * dots + k a term, with dots not counting l_alpha (d_tau^l_alpha
    commutes with every D), so a byte holds any entry's terms.  The one-term
    path walks U_c through D_{I_alpha} to theta^w, and D_w once from there:
    2^n * (m + 1) walks of at most n atoms, and it builds no word table.
    U's fields, phases and every word's steps come from the (n, kind)
    engine table, built on first use.
    """
    from .superspace import _walk

    syms, phases, words = _engine_table(spec.n_colors, kind)
    if every_term:
        landed_rows, dots_rows, phase_rows = _word_table(spec.n_colors)
        # row I_alpha is the entry's own word over every U_d: where U_d lands, and 8 * dots + k with U_d's phase in k
        firsts = [
            (
                landed_rows[mask],
                [8 * dots + ((k + phase) & 3) for dots, k, phase in zip(dots_rows[mask], phase_rows[mask], phases)],
            )
            for mask, _ in spec.entries
        ]
    projections, lowest = {}, {}
    for w in range(1 << spec.n_colors):
        if every_term:  # only one row of D_w is live at a time
            row_landed = landed_rows[w].tolist()
            row_codes = [8 * more + k for more, k in zip(dots_rows[w], phase_rows[w])]
        else:  # U_c always meets D_w at theta^w
            low_w, more_w, k_w = _walk(words[w], w)
        for alpha, (mask, shift) in enumerate(spec.entries):
            c = w ^ mask
            if every_term:
                mids, starts = firsts[alpha]
                landed = [row_landed[mid] for mid in mids]
                # the two phase exponents add in the low three bits, so clearing bit 2 takes their sum mod 4
                codes = bytes([(start + row_codes[mid]) & ~4 for mid, start in zip(mids, starts)])
                # the word toggles every theta in c once, so U_d lands on d xor c and only U_c reaches theta = 0
                low, code = landed[c], codes[c]
            else:
                _, dots, k = _walk(words[mask], c)
                code = 8 * (dots + more_w) + ((k + phases[c] + k_w) & 3)
                low, landed, codes = low_w, [low_w], bytes([code])
            if low:
                raise AdinkraError(f"projection of entry {alpha} onto {subset_label(c)} is not a single term")
            dots, order = (code >> 3) + shift, _m_alpha(spec, c, alpha)
            if dots != order:
                raise AdinkraError(
                    f"projection of entry {alpha} onto {subset_label(c)} carries {dots} time derivatives,"
                    f" not m_alpha = {order}"
                )
            projections[(c, alpha)], lowest[(c, alpha)] = (landed, codes), (code & 3, dots)
    return syms, projections, lowest


@cache
def _shift_table(delta: int, k: int) -> bytes:
    """The bytes.translate table adding delta time derivatives and i^k to every code 8 * dots + phase.

    A code pushed outside 0..30 derivatives goes to 255, which no projection
    holds (every held code has a phase below 4).  delta stays within
    -n..n on every relation, so the cache holds at most 4 * 21 tables.
    """
    return bytes(
        8 * (dots + delta) + ((code + k) & 3) if 0 <= dots + delta <= 30 else 255
        for code in range(256)
        for dots in (code >> 3,)
    )


def emit_constraints(spec: SourceSpec, kind: str = SCALAR) -> ConstraintSystem:
    """The full (redundant) first-order system tying the battery together.

    For every component c and entry pair, the side with more derivatives is
    expressed through the other; the relating phase is computed by walking
    the one term of U that reaches theta = 0 through each projection's two
    words, each D_w once: 2^n * (m + 1) walks of at most n atoms.  The
    relations are the ones :func:`verify_presentation` checks; only here does
    each become a :class:`Constraint` with a :class:`Phase` and a flag.
    An equation is flagged redundant (but kept) when, for some color k in c,
    D_k maps the same pair's equation at c - 2^(k-1) onto it up to a phase.
    Both sides at any component d are a unit times d_tau^M D_d U, with M the
    pair's larger m_alpha at d, so this holds exactly when M is the same at
    both components.  A battery whose entries are not mutually extreme is
    refused, as :func:`image_adinkra` refuses it.
    """
    _check_battery(spec, kind)
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
    hgt0 + 2 mu).  Every projection is read off the word table of the color
    count, two reads per term of U, so a call makes no walk: only the first
    call for a color count builds the table (4^n cells, each one D step from
    a cell of a shorter word), and only the first for a color count and kind
    builds a generic superfield.  The equations are the
    relations :func:`emit_constraints` emits, read as plain (component, pair,
    gap, phase exponent) tuples: no Constraint, Phase or redundant flag is
    built.  Each projection holds its landed monomials as one list and one
    byte 8 * dots + k per term, dots without the entry's shift.  An equation
    holds when the two landed lists are equal and the higher side's bytes
    equal the lower side's after one bytes.translate through a cached table
    adding gap + l_lo - l_hi to every term's derivatives and the phase
    exponent to every phase, so every term's landed monomial, time
    derivatives and phase are checked.  An equation that does not vanish is
    a failure naming its residual lhs - rhs, built from the same list and bytes.
    """
    _check_battery(spec, kind)
    n, m = spec.n_colors, len(spec.entries)
    syms, projections, lowest = _project(spec, kind, every_term=True)
    shifts = [shift for _, shift in spec.entries]
    checked, failures = 0, []
    for c, hi, lo, gap, k in _relations(spec, lowest):
        checked += 1
        (lhs, lhs_codes), (rhs, rhs_codes) = projections[(c, hi)], projections[(c, lo)]
        # each side holds U_d once, at monomial d xor c with a unit coefficient, so no two terms
        # share a key and the sides are equal maps exactly when they agree at every d; the codes
        # leave out each entry's shift, so the lower side gains gap + l_lo - l_hi derivatives
        if lhs != rhs or lhs_codes != rhs_codes.translate(_shift_table(gap + shifts[lo] - shifts[hi], k)):
            from .superspace import Phase, SuperfieldExpr

            # lhs - i^k d_tau^gap rhs; U_c lands at theta = 0, so its statistics are both sides'
            sides = ((lhs, lhs_codes, shifts[hi], 0), (rhs, rhs_codes, shifts[lo] + gap, k + 2))
            residual = SuperfieldExpr(n, syms[c].statistics, [
                (landed, ((Phase((code & 3) + side_k), sym.dot((code >> 3) + side_dots)),))
                for side, codes, side_dots, side_k in sides
                for sym, landed, code in zip(syms, side, codes)
            ])
            failures.append(
                f"component {subset_label(c)}: entries {hi}/{lo}"
                f" do not satisfy the emitted relation; residual {residual}"
            )
    matches = all(min(lowest[(c, a)][1] for a in range(m)) == mu_c for c, mu_c in enumerate(spec._orders))
    return VerificationReport(not failures and matches, checked, tuple(failures), matches)


@dataclass(frozen=True)
class AnnihilationCounterexample:
    row: int
    kind: str
    residual: SuperfieldExpr


Matrix = "tuple[tuple[SuperOp, ...], ...]"


def check_annihilation(a: Matrix, b: Matrix, n_colors: int) -> AnnihilationCounterexample | None:
    """Does the operator-matrix product A.B vanish on generic superfields?

    B is applied to a vector of independent generic superfields (one per
    column, both kinds tried), then A; the first nonzero entry is returned as
    a counterexample, None means exact annihilation.
    """
    from .superspace import apply_op, expr_add, generic_superfield

    if not (a and a[0] and b and b[0]):
        raise AdinkraError("an operator matrix needs at least one row and one column")
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
    return tuple(counts.get(level, 0) for level in range(max(h, default=-1) + 1))


def format_dimension_vector(dims: tuple[int, ...]) -> str:
    return "(" + "|".join(str(d) for d in dims) + ")"


def gradient_column(n_colors: int) -> Matrix:
    """The column (D_1, ..., D_n)^T as an operator matrix."""
    from .superspace import D

    return tuple((D(c),) for c in range(1, n_colors + 1))


_LAZY = ("N2_DOUBLET_ANNIHILATOR", "N3_TRIPLET_ANNIHILATOR", "N3_QUINTET_ANNIHILATOR")


def __getattr__(name: str):
    # the annihilator matrices are built on first access, all three at once, and then read as plain globals
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .superspace import D, SuperOp

    z = SuperOp.zero()
    globals().update(
        # Maximal-rank first-order matrix annihilating the two-color gradient column;
        # it is also nilpotent (squares to zero).
        N2_DOUBLET_ANNIHILATOR=(
            (D(1), -D(2)),
            (D(2), D(1)),
        ),
        # Maximal-rank first-order matrix annihilating the three-color gradient column.
        N3_TRIPLET_ANNIHILATOR=(
            (D(2), D(1), z),
            (D(3), z, D(1)),
            (z, D(3), D(2)),
            (D(1), -D(2), z),
            (z, D(2), -D(3)),
        ),
        # Maximal-rank first-order matrix annihilating N3_TRIPLET_ANNIHILATOR.
        N3_QUINTET_ANNIHILATOR=(
            (D(1), z, z, D(2), z),
            (D(2), z, z, -D(1), z),
            (D(3), D(2), D(1), z, z),
            (z, D(1), z, D(3), D(3)),
            (z, -D(3), z, D(1), D(1)),
            (z, z, D(2), z, D(3)),
            (z, z, D(3), z, -D(2)),
        ),
    )
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
