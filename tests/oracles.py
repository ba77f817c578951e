"""Independent oracles the tests compare the package against.

Everything here recomputes expected values by a different route than the
implementation under test: potentials over a spanning forest instead of the
BFS conflict search, direct height-pattern enumeration instead of move
closure, a closed-form ladder count for the equivariant sequences, pairwise
vertex matching and a Burnside count instead of canonical isomorphism keys,
a superspace engine that keeps coefficients as repeated unit-phase
summands instead of Gaussian integers, and a closure check by the walks of
{Q_a, Q_b} instead of an epsilon-Grassmann algebra, and an odd-square
parity solve that eliminates column by column, the doubly-even-code
theorem for which cube quotients carry an odd-square parity at all, and a
search that applies D_k to each equation's neighbour and compares it with
the equation under every phase instead of reading redundancy off derivative
orders, and presentations verified by substitution: the whole battery
projected as expressions, each equation's sides built and compared as maps,
instead of each term of U walked once through each projection and the sides
compared term by term, the one-hooked descent lowered one checked vertex at
a time instead of read off the landing heights, the kinship distance by a
breadth-first walk of the family instead of the height gaps about their
median, and mu as half a cube distance instead
of the least m_alpha, the two-color squares by walking every two-colored
cycle, or four steps from every vertex for every color pair, instead of
pairing only colors that lead to distinct higher neighbours, and each term of U
walked through the whole two-part word of each projection instead of each
descending word walked once and every projection read from two tables, and
engineerability by a deque BFS over neighbour lists, keyed by vertex id, with
its heights normalized through the checked public route, instead of the
adjacency-table walk by vertex position, and the family walk over Adinkras,
each orbit moved by the checked raise or lower and the result normalized
whole, instead of the walk over height tuples by position, and every
topology, Adinkra, family and trace document built as plain dicts and lists
for json.dumps to write, instead of each vertex, edge, member, move and step
written at its indent.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import reduce
from itertools import permutations, product
from typing import Iterable, Iterator, Sequence

from adinkra import mutation
from adinkra.constraints import (
    Constraint,
    Lowest,
    SourceSpec,
    VerificationReport,
    Walks,
    emit_constraints,
    image_adinkra,
    m_alpha,
)
from adinkra.core import (
    BOSON,
    Adinkra,
    AdinkraError,
    Edge,
    EngineerResult,
    ParityResult,
    Topology,
    normalize_heights,
)
from adinkra.cube import dist0, hgt0, subset_label
from adinkra.document import FORMAT_NAME, FORMAT_VERSION, document_kind
from adinkra.mutation import FamilyGraph, SequenceTrace, lower_vertex, raise_vertex, targets
from adinkra.superspace import (
    I_PHASE,
    MINUS_ONE,
    ONE,
    D,
    FieldSymbol,
    Phase,
    RuleSet,
    SuperfieldExpr,
    _accumulate,
    _descending_word,
    _rot,
    _unit_phases,
    _walk,
    _word_steps,
    apply_op,
    component_name,
    descending_product,
    dtau_expr,
    expr_scale,
    expr_sub,
    generic_superfield,
)


def all_orientations(topology: Topology):
    """Every assignment of a direction to every edge."""
    edges = topology.edges
    for bits in range(1 << len(edges)):
        yield {
            (u, v, c): ((u, v) if bits >> i & 1 else (v, u))
            for i, (u, v, c) in enumerate(edges)
        }


def cycle_space_engineerable(topology: Topology, orientation: dict[Edge, tuple[int, int]]) -> bool:
    """Zero net ascent around every cycle, decided through forest potentials.

    A spanning forest fixes a potential per vertex; the orientation is
    engineerable exactly when every non-forest edge agrees with the
    potentials, because the fundamental cycles span the cycle space.
    """
    pot: dict[int, int] = {}
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while parent.get(v, v) != v:
            parent[v] = parent.get(parent[v], parent[v])
            v = parent[v]
        return v

    rises: list[Edge] = []
    for e in topology.edges:
        u, v, _ = e
        pot.setdefault(u, None)
        pot.setdefault(v, None)
        if find(u) != find(v):
            parent[find(u)] = find(v)
            rises.append(e)

    # walk each tree once to assign potentials
    adj: dict[int, list[tuple[int, Edge]]] = {v: [] for v in topology.vertex_ids}
    for e in rises:
        u, v, _ = e
        adj[u].append((v, e))
        adj[v].append((u, e))
    for root in topology.vertex_ids:
        if pot.get(root) is not None:
            continue
        pot[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y, e in adj[x]:
                if pot[y] is None:
                    _, hi = orientation[e]
                    pot[y] = pot[x] + (1 if hi == y else -1)
                    stack.append(y)

    for e in topology.edges:
        lo, hi = orientation[e]
        if pot[hi] - pot[lo] != 1:
            return False
    return True


def deque_engineerable(topology: Topology, orientation: dict[Edge, tuple[int, int]]) -> EngineerResult:
    """engineerable as a deque BFS over neighbors() lists with parent pointers by vertex id.

    Heights are normalized through the checked public normalize_heights, and
    the witness is walked up from each end of the conflicting edge separately.
    """
    for e in topology.edges:
        if e not in orientation:
            raise AdinkraError(f"orientation missing edge {e}")
        tail, head = orientation[e]
        if {tail, head} != {e[0], e[1]}:
            raise AdinkraError(f"orientation entry for {e} is {orientation[e]!r}, not its endpoints")
    heights: dict[int, int] = {}
    parent: dict[int, tuple[int, int, int]] = {}
    for comp in topology.components():
        root = comp[0]
        heights[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w, color in topology.neighbors(u):
                e = (u, w, color) if u < w else (w, u, color)
                h = heights[u] + (1 if orientation[e] == (u, w) else -1)
                if w not in heights:
                    heights[w] = h
                    parent[w] = (u, w, color)
                    queue.append(w)
                elif heights[w] != h:
                    up = []
                    x = u
                    while x != root:
                        pu, pv, pc = parent[x]
                        up.append((pu, pv, pc))
                        x = pu
                    up.reverse()
                    down = []
                    x = w
                    while x != root:
                        pu, pv, pc = parent[x]
                        down.append((pv, pu, pc))
                        x = pu
                    return EngineerResult(ok=False, witness=tuple(up) + ((u, w, color),) + tuple(down))
    return EngineerResult(ok=True, heights=normalize_heights(topology, heights))


def _normalize_pattern(topology: Topology, heights: dict[int, int]) -> tuple[int, ...]:
    out = dict(heights)
    for comp in topology.components():
        v0 = comp[0]
        # force boson heights even, then slide the minimum into {0, 1}
        if (out[v0] + (0 if topology.statistics_of(v0) == BOSON else 1)) % 2 == 1:
            for v in comp:
                out[v] += 1
        m = min(out[v] for v in comp)
        t = -m if (m % 2 == 0) else 1 - m
        for v in comp:
            out[v] += t
    return tuple(out[v] for v in topology.vertex_ids)


def all_height_patterns(topology: Topology) -> set[tuple[int, ...]]:
    """Every normalized height pattern, found by direct assignment.

    Assigns +-1 steps along a spanning tree and keeps the assignments whose
    non-tree edges also differ by one, so the result does not depend on the
    mutation moves at all.
    """
    comps = topology.components()
    tree_edges: list[Edge] = []
    order: list[int] = []
    seen: set[int] = set()
    for comp in comps:
        root = comp[0]
        seen.add(root)
        order.append(root)
        stack = [root]
        while stack:
            x = stack.pop()
            for y, c in topology.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    order.append(y)
                    tree_edges.append((x, y, c))
                    stack.append(y)

    patterns: set[tuple[int, ...]] = set()
    roots = {comp[0] for comp in comps}
    for signs in product((-1, 1), repeat=len(tree_edges)):
        h: dict[int, int] = {}
        for v in order:
            if v in roots:
                h[v] = 0
        for (u, v, _), s in zip(tree_edges, signs):
            h[v] = h[u] + s
        if all(abs(h[u] - h[v]) == 1 for u, v, _ in topology.edges):
            patterns.add(_normalize_pattern(topology, h))
    return patterns


def equivariant_ladder_patterns(n: int) -> set[tuple[int, ...]]:
    """Height patterns of the n-cube constant on popcount orbits.

    Such a pattern is a walk h_0, ..., h_n with +-1 steps, lifted to the cube
    and normalized; there are exactly 2^n of them.
    """
    topology_vids = range(1 << n)
    patterns: set[tuple[int, ...]] = set()
    for signs in product((-1, 1), repeat=n):
        levels = [0]
        for s in signs:
            levels.append(levels[-1] + s)
        m = min(levels)
        t = -m if m % 2 == 0 else 1 - m
        levels = [x + t for x in levels]
        patterns.add(tuple(levels[bin(v).count("1")] for v in topology_vids))
    return patterns


# -- isomorphism by pairwise matching -----------------------------------------


def _color_map_extensions(ta: Topology, tb: Topology, va: int, vb: int):
    """Try to extend va -> vb to a color-respecting map on va's component."""
    mapping = {va: vb}
    queue = deque([va])
    while queue:
        x = queue.popleft()
        for w, color in ta.neighbors(x):
            y = tb.neighbor(mapping[x], color)
            if w in mapping:
                if mapping[w] != y:
                    return None
            else:
                mapping[w] = y
                queue.append(w)
    return mapping


def _match_components(a: Adinkra, b: Adinkra) -> bool:
    """Assign components by backtracking, each through every anchor image."""
    ta, tb = a.topology, b.topology
    comps_a = ta.components()
    comps_b = list(tb.components())
    if sorted(map(len, comps_a)) != sorted(map(len, comps_b)):
        return False

    def try_assign(i: int, used: set[int]) -> bool:
        if i == len(comps_a):
            return True
        ca = comps_a[i]
        va = ca[0]
        for j, cb in enumerate(comps_b):
            if j in used or len(cb) != len(ca):
                continue
            for vb in cb:
                mapping = _color_map_extensions(ta, tb, va, vb)
                if mapping is None:
                    continue
                if any(ta.statistics_of(x) != tb.statistics_of(y) for x, y in mapping.items()):
                    continue
                shifts = {b.height_of(y) - a.height_of(x) for x, y in mapping.items()}
                if len(shifts) != 1 or next(iter(shifts)) % 2 != 0:
                    continue
                if try_assign(i + 1, used | {j}):
                    return True
        return False

    return try_assign(0, set())


def matched_isomorphic(a: Adinkra, b: Adinkra, permute_colors: bool = False) -> bool:
    """Search for a vertex map directly, once per color relabeling of a."""
    ta, tb = a.topology, b.topology
    if ta.n_colors != tb.n_colors or len(ta.vertex_ids) != len(tb.vertex_ids):
        return False
    colors = range(1, ta.n_colors + 1)
    images = permutations(colors) if permute_colors else [tuple(colors)]
    for image in images:
        cmap = dict(zip(colors, image))
        relabeled = Topology.build(
            ta.n_colors,
            {v: ta.statistics_of(v) for v in ta.vertex_ids},
            [(u, v, cmap[c]) for u, v, c in ta.edges],
        )
        inverse = {w: c for c, w in cmap.items()}
        ra = Adinkra(
            relabeled,
            tuple(a.height_of(v) for v in relabeled.vertex_ids),
            tuple(a.parity_of(u, v, inverse[c]) for u, v, c in relabeled.edges),
        )
        if _match_components(ra, b):
            return True
    return False


def matched_isomorphism_classes(
    members: Iterable[Adinkra], permute_colors: bool = False
) -> list[list[Adinkra]]:
    """Greedy partition: each Adinkra joins the first class whose head it matches."""
    classes: list[list[Adinkra]] = []
    for m in members:
        for cls in classes:
            if matched_isomorphic(cls[0], m, permute_colors):
                cls.append(m)
                break
        else:
            classes.append([m])
    return classes


def burnside_class_count(n: int, patterns: Iterable[tuple[int, ...]]) -> int:
    """Orbits of the even-weight XOR translations on a set of n-cube patterns.

    These translations are the color- and statistics-preserving automorphisms
    of the cube; by Burnside's lemma the orbit count is the mean number of
    patterns each translation fixes.  The set must be closed under them.
    """
    group = [t for t in range(1 << n) if bin(t).count("1") % 2 == 0]
    pats = list(patterns)
    fixed = sum(
        all(key[v ^ t] == key[v] for v in range(1 << n)) for t in group for key in pats
    )
    assert fixed % len(group) == 0
    return fixed // len(group)


# -- reference superspace engine ---------------------------------------------
#
# Expressions are ``terms`` tuples: ascending theta monomials, each with its
# (phase, field) summands, where 2i*x is two copies of (+i, x).  Every
# operation works on the flat summand list and cancels opposite phases by
# counting, so it shares no arithmetic with the engine's Gaussian integers.

RefTerms = tuple[tuple[int, tuple[tuple[Phase, FieldSymbol], ...]], ...]


def _summands(terms: RefTerms):
    for mask, summands in terms:
        for phase, sym in summands:
            yield mask, phase, sym


def _net_phases(counts: Counter) -> list[Phase]:
    """Unit phases left after +1/-1 and +i/-i copies cancel pairwise."""
    out = []
    for k in (0, 1):
        surplus = counts[k] - counts[k + 2]
        out += [Phase(k) if surplus > 0 else Phase(k + 2)] * abs(surplus)
    return out


def ref_canon(summands: Iterable[tuple[int, Phase, FieldSymbol]]) -> RefTerms:
    counts: dict[tuple[int, FieldSymbol], Counter] = {}
    for mask, phase, sym in summands:
        counts.setdefault((mask, sym), Counter())[phase.k] += 1
    by_mask: dict[int, list[tuple[Phase, FieldSymbol]]] = {}
    for (mask, sym), c in counts.items():
        for phase in _net_phases(c):
            by_mask.setdefault(mask, []).append((phase, sym))
    return tuple(
        (mask, tuple(sorted(by_mask[mask], key=lambda s: (s[1], s[0]))))
        for mask in sorted(by_mask)
    )


def ref_add(t1: RefTerms, t2: RefTerms) -> RefTerms:
    return ref_canon(list(_summands(t1)) + list(_summands(t2)))


def ref_scale(terms: RefTerms, phase: Phase) -> RefTerms:
    return ref_canon((mask, phase * p, sym) for mask, p, sym in _summands(terms))


def _theta_sign(mask: int, color: int) -> Phase:
    below = mask & ((1 << (color - 1)) - 1)
    return MINUS_ONE if bin(below).count("1") % 2 else ONE


def ref_theta_times(terms: RefTerms, color: int) -> RefTerms:
    bit = 1 << (color - 1)
    return ref_canon(
        (mask | bit, _theta_sign(mask, color) * p, sym)
        for mask, p, sym in _summands(terms)
        if not mask & bit
    )


def ref_deriv_theta(terms: RefTerms, color: int) -> RefTerms:
    bit = 1 << (color - 1)
    return ref_canon(
        (mask ^ bit, _theta_sign(mask, color) * p, sym)
        for mask, p, sym in _summands(terms)
        if mask & bit
    )


def ref_dtau(terms: RefTerms, k: int = 1) -> RefTerms:
    return ref_canon((mask, p, sym.dot(k)) for mask, p, sym in _summands(terms))


def ref_op_canon(raw: Iterable[tuple[Phase, tuple]]) -> tuple[tuple[Phase, tuple], ...]:
    """An operator's summands: ascending words, +-1 copies before +-i ones."""
    counts: dict[tuple, Counter] = {}
    for phase, word in raw:
        counts.setdefault(tuple(word), Counter())[phase.k] += 1
    return tuple((phase, word) for word in sorted(counts) for phase in _net_phases(counts[word]))


def ref_apply(op_summands: Iterable[tuple[Phase, tuple]], terms: RefTerms) -> RefTerms:
    """D_c = d/dtheta^c + i theta^c d_tau, Q_c = i d/dtheta^c + theta^c d_tau."""
    total: RefTerms = ()
    for phase, word in op_summands:
        cur = ref_scale(terms, phase)
        for atom in reversed(word):
            if atom[0] in ("D", "Q"):
                c = atom[1]
                strip = ref_deriv_theta(cur, c)
                add = ref_theta_times(ref_dtau(cur), c)
                if atom[0] == "D":
                    cur = ref_add(strip, ref_scale(add, I_PHASE))
                else:
                    cur = ref_add(ref_scale(strip, I_PHASE), add)
            else:
                cur = ref_dtau(cur)
        total = ref_add(total, cur)
    return total


def ref_str(n_colors: int, terms: RefTerms) -> str:
    bits = []
    for mask, phase, sym in _summands(terms):
        theta = "".join(f"th{c + 1}" for c in range(n_colors) if mask >> c & 1)
        bits.append(f"{phase}*{theta + '*' if theta else ''}{sym}")
    return " ".join(bits) or "0"


# ---------------------------------------------------------------------------
# closure as the anticommutator walk: each rule term of x is one step of Q_c
# (Q_c x holds phase * source, dotted when marked), so Q_a Q_b x sums the
# two-step walks x -(color b)-> y -(color a)-> z, and {Q_a, Q_b} x adds both
# color orders; no epsilon monomials and no crossing signs


def walk_closure_violations(ruleset: RuleSet) -> list[str]:
    """The messages of closure_violations, evidence included, from the walks."""
    t = ruleset.adinkra.topology
    rules = ruleset.rule_map()
    names = ruleset.name_map()
    bad = []
    for x in t.vertex_ids:
        # (a, b, z, dots) -> coefficient of z with dots in {Q_a, Q_b} x, less 2i delta_ab x'
        left = {(c, c, x, 1): (0, -2) for c in range(1, t.n_colors + 1)}
        for r1 in rules[x]:
            for r2 in rules[r1.source]:
                g = _rot((1, 0), r1.phase.k + r2.phase.k)
                end = (r2.source, r1.dotted + r2.dotted)
                _accumulate(left, (r2.color, r1.color) + end, g)  # in Q_a Q_b
                _accumulate(left, (r1.color, r2.color) + end, g)  # in Q_b Q_a
        if left:
            evidence = "; ".join(
                f"{{Q{a},Q{b}}} leaves ({re}{im:+d}i) {FieldSymbol(str(names.get(z, z)), dots)}"
                for (a, b, z, dots), (re, im) in sorted(left.items())
                if a <= b
            )
            bad.append(f"closure fails on component {names.get(x, x)} (vertex {x}): {evidence}")
    return bad


# ---------------------------------------------------------------------------
# the odd-square parity solve as first written: forward elimination tests
# every column of every row, back-substitution keeps one value per edge


def column_solve_edge_parity(topology: Topology) -> ParityResult:
    """solve_edge_parity by column-by-column elimination: same pivots, same gauge."""
    edges = topology.edges
    ne = len(edges)

    squares: list[tuple[Edge, ...]] = []
    rows: list[int] = []  # bit i (i < ne) = edge coefficient, bit ne = RHS
    for _, _, square in topology.squares:
        row = 1 << ne
        for i in square:
            row ^= 1 << i
        squares.append(tuple(edges[i] for i in square))
        rows.append(row)
    n_squares = len(rows)
    rows += [1 << i for i in topology._forest]  # gauge: tree edge = 0

    # Gaussian elimination, pivots in canonical edge order; provenance masks
    # track which original rows combine into each reduced row.
    prov = [1 << i for i in range(len(rows))]
    pivot_row_of: dict[int, int] = {}
    for r in range(len(rows)):
        row, pr = rows[r], prov[r]
        for col in range(ne):
            if not row >> col & 1:
                continue
            if col in pivot_row_of:
                s = pivot_row_of[col]
                row ^= rows[s]
                pr ^= prov[s]
            else:
                pivot_row_of[col] = r
                break
        rows[r], prov[r] = row, pr
        if row == 1 << ne:  # 0 = 1
            cert = tuple(squares[i] for i in range(n_squares) if pr >> i & 1)
            return ParityResult(ok=False, certificate=cert)

    # back-substitution with free variables at 0
    values = [0] * ne
    for col in sorted(pivot_row_of, reverse=True):
        row = rows[pivot_row_of[col]]
        acc = row >> ne & 1
        for c2 in range(col + 1, ne):
            if row >> c2 & 1:
                acc ^= values[c2]
        values[col] = acc
    parity = {e: values[i] for i, e in enumerate(edges)}
    return ParityResult(ok=True, parity=parity)


def bichromatic_squares(topology: Topology) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Topology.squares by walking every two-colored cycle and keeping those of length four.

    For each color pair the {c1, c2} subgraph is a disjoint union of even
    cycles; each is walked from its minimum vertex along c1, and the cycles
    come in order of that vertex.
    """
    out = []
    for c1 in range(1, topology.n_colors + 1):
        for c2 in range(c1 + 1, topology.n_colors + 1):
            visited: set[int] = set()
            for start in topology.vertex_ids:
                if start in visited:
                    continue
                cycle: list[int] = []
                v, color = start, c1
                while True:
                    visited.add(v)
                    w = topology.neighbor(v, color)
                    cycle.append(topology.edge_index(v, w, color))
                    v, color = w, c2 if color == c1 else c1
                    if v == start and color == c1:
                        break
                if len(cycle) == 4:
                    out.append((c1, c2, tuple(cycle)))
    return tuple(out)


def color_pair_squares(topology: Topology) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Topology.squares by walking c1, c2, c1, c2 from every vertex for every color pair.

    A walk that returns to its start through three other vertices, the start
    the lowest of the four, is a square; |V| * n(n-1)/2 walks in all.
    """
    out = []
    for c1 in range(1, topology.n_colors + 1):
        for c2 in range(c1 + 1, topology.n_colors + 1):
            for start in topology.vertex_ids:
                walk, v = [], start
                for color in (c1, c2, c1, c2):
                    w = topology.neighbor(v, color)
                    walk.append((v, w, color))
                    v = w
                if v == start and start < min(a for a, _, _ in walk[1:]):
                    out.append((c1, c2, tuple(topology.edge_index(*e) for e in walk)))
    return tuple(out)


def doubly_even(word: int) -> bool:
    """Whether code_quotient(n, (word,)) has an odd-square parity.

    The quotient of a cube by the code {0, word} is an Adinkra topology with
    a valid sign choice exactly when the code is doubly even, |word| = 0 mod 4
    (Doran, Faux, Gates, Hubsch, Iga, Landweber, arXiv:1108.4124).
    """
    return bin(word).count("1") % 4 == 0


def stepwise_lowering_sequence(adinkra: Adinkra, vertex: int) -> list[int]:
    """lowering_sequence_to_one_hooked by lower_vertex, one checked vertex at a time.

    Each round lowers the highest targets other than vertex in ascending id,
    rescanning each one's neighbours, until vertex is the only target.
    """
    moves: list[int] = []
    current = adinkra
    while others := [v for v in targets(current) if v != vertex]:
        top = max(current.height_of(v) for v in others)
        for v in sorted(v for v in others if current.height_of(v) == top):
            current = lower_vertex(current, v)
            moves.append(v)
    return moves


def walked_kinship_distances(start: Adinkra) -> dict[tuple[int, ...], int]:
    """kinship_distance from start to every member of its family, keyed by normalized heights.

    Each member's breadth-first layer in the walk of single-vertex raises and
    lowerings from start.
    """
    first = start.normalized()
    dist = {first.heights: 0}
    singles = [(v,) for v in first.topology.vertex_ids]
    for src, _, _, nxt in mutation._walk({first.heights: first}, singles, ("raise", "lower")):
        dist.setdefault(nxt.heights, dist[src] + 1)
    return dist


def adinkra_moves(
    member: Adinkra, orbits: Sequence[tuple[int, ...]], kinds: tuple[str, ...]
) -> Iterator[tuple[str, tuple[int, ...], Adinkra]]:
    """Every move out of member as (kind, orbit, normalized result).

    An orbit is raised when all its vertices are sources and lowered when all
    are targets, each vertex by the checked raise_vertex or lower_vertex.
    Moves come kind by kind in the order given, and within a kind in orbit
    order.
    """
    heights = member.heights_by_vertex()
    t = member.topology
    for kind in kinds:
        up = kind == "raise"
        extreme = {v for v in t.vertex_ids if all((heights[w] > heights[v]) == up for w, _ in t.neighbors(v))}
        for orbit in orbits:
            if extreme.issuperset(orbit):
                yield kind, orbit, reduce(raise_vertex if up else lower_vertex, orbit, member).normalized()


def adinkra_walk(
    start: Adinkra, orbits: Sequence[tuple[int, ...]], kinds: tuple[str, ...]
) -> Iterator[tuple[tuple[int, ...], str, tuple[int, ...], Adinkra]]:
    """mutation._walk from a normalized start, by a deque of Adinkras: (from key, kind, orbit, result)."""
    seen = {start.heights}
    queue = deque([start])
    while queue:
        member = queue.popleft()
        for kind, orbit, nxt in adinkra_moves(member, orbits, kinds):
            if nxt.heights not in seen:
                seen.add(nxt.heights)
                queue.append(nxt)
            yield member.heights, kind, orbit, nxt


def half_distance_mu(spec: SourceSpec, component: int) -> int:
    """mu as the least (dist0(I, c) - hgt0(c) + hgt0(I)) / 2 + l over the entries."""
    best = None
    for mask, shift in spec.entries:
        num = dist0(mask, component) - hgt0(component) + hgt0(mask)
        assert num % 2 == 0  # subset-size parity makes this even
        val = num // 2 + shift
        best = val if best is None or val < best else best
    return best


def two_word_project(spec: SourceSpec, kind: str, every_term: bool) -> tuple[tuple[FieldSymbol, ...], Walks, Lowest]:
    """constraints._project, each term walked through the whole two-part word D_{c xor I_alpha} D_{I_alpha}."""
    n = spec.n_colors
    terms = sorted(generic_superfield(n, kind).coeffs.items())
    syms = tuple(sym for (_, sym), _ in terms)
    phases = [_unit_phases(g)[0].k for _, g in terms]
    projections, lowest = {}, {}
    for c in range(1 << n):
        for alpha, (mask, shift) in enumerate(spec.entries):
            steps = _word_steps(_descending_word(c ^ mask, n) + _descending_word(mask, n), n)
            walked = []
            for d in range(1 << n) if every_term else (c,):
                landed, dots, k = _walk(steps, d)
                walked.append((landed, dots + shift, (k + phases[d]) & 3))
            landed, dots, k = walked[c if every_term else 0]
            if landed or dots != m_alpha(spec, c, alpha):
                raise AdinkraError(f"projection of entry {alpha} onto {subset_label(c)} is not d_tau^m_alpha U_c")
            projections[(c, alpha)], lowest[(c, alpha)] = walked, (k, dots)
    return syms, projections, lowest


Projections = dict[tuple[int, int], SuperfieldExpr]  # (component, alpha) -> P F_alpha
Sides = tuple[SuperfieldExpr, SuperfieldExpr]


def _projections(spec: SourceSpec, kind: str) -> Projections:
    """Every projection P_(c,alpha) F_alpha of the whole battery, all 2^n terms of U carried through."""
    n = spec.n_colors
    u = generic_superfield(n, kind)
    d_word = lambda mask: descending_product([c + 1 for c in range(n) if mask >> c & 1])
    fs = [dtau_expr(apply_op(d_word(mask), u), shift) for mask, shift in spec.entries]
    return {
        (c, a): apply_op(d_word(c ^ mask), fs[a])
        for c in range(1 << n)
        for a, (mask, _) in enumerate(spec.entries)
    }


def _lowest(projection: SuperfieldExpr, component: int, alpha: int) -> tuple[int, int]:
    """The theta = 0 component of a projection, a single phased derivative of U_c, as (phase k, order)."""
    low = projection.component(0)
    if len(low) != 1:
        raise AdinkraError(f"projection of entry {alpha} onto {subset_label(component)} is not a single term")
    phase, sym = low[0]
    return phase.k, sym.derivative_order


def _sides(projections: Projections, eq: Constraint) -> Sides:
    lhs = projections[(eq.component, eq.alpha)]
    rhs = expr_scale(dtau_expr(projections[(eq.component, eq.beta)], eq.gap), eq.phase)
    return lhs, rhs


def projected_lowest(spec: SourceSpec, kind: str) -> Lowest:
    """(phase exponent, derivative order) of every projection, read off the fully projected battery."""
    return {key: _lowest(p, *key) for key, p in _projections(spec, kind).items()}


def substituted_report(
    spec: SourceSpec, kind: str, equations: tuple[Constraint, ...], moved: tuple[tuple[int, int], int, int] | None = None
) -> VerificationReport:
    """verify_presentation by substitution: the given equations' sides built as expressions and compared.

    Each failure names lhs - rhs, and the heights are re-derived from the
    lowest components of the fully projected battery.  moved = (key, d,
    flip) first moves the term of U_d in projection key from its monomial
    to that monomial xor flip.
    """
    projections = _projections(spec, kind)
    if moved is not None:
        key, d, flip = moved
        name, p = component_name("U", d), projections[key]
        projections[key] = SuperfieldExpr._of(p.n_colors, p.statistics, {
            (mask ^ flip if sym.name == name else mask, sym): g for (mask, sym), g in p.coeffs.items()
        })
    failures = []
    for eq in equations:
        lhs, rhs = _sides(projections, eq)
        if lhs != rhs:
            failures.append(
                f"component {subset_label(eq.component)}: entries {eq.alpha}/{eq.beta}"
                f" do not satisfy the emitted relation; residual {expr_sub(lhs, rhs)}"
            )
    lowest = {key: _lowest(p, *key) for key, p in projections.items()}
    rederived = {
        c: hgt0(c) + 2 * min(lowest[(c, a)][1] for a in range(len(spec.entries)))
        for c in range(1 << spec.n_colors)
    }
    matches = rederived == image_adinkra(spec, kind).heights_by_vertex()
    return VerificationReport(not failures and matches, len(equations), tuple(failures), matches)


def searched_redundant_flags(spec: SourceSpec, kind: str) -> list[bool]:
    """The redundant flag of each emitted equation, found by applying D_k and comparing."""
    equations = emit_constraints(spec, kind).equations
    projections = _projections(spec, kind)
    sides = tuple(_sides(projections, eq) for eq in equations)
    return [eq.redundant for eq in _flag_redundant(spec.n_colors, equations, sides)]


def _pair(eq: Constraint) -> tuple[int, int]:
    return min(eq.alpha, eq.beta), max(eq.alpha, eq.beta)


def _flag_redundant(
    n_colors: int, equations: tuple[Constraint, ...], sides: tuple[Sides, ...]
) -> tuple[Constraint, ...]:
    """Flag equations that D_k maps an earlier equation onto, up to a phase.

    Each component has one equation per entry pair, emitted by ascending
    component, so the only candidates are the same pair's equations at the
    one-color neighbours c - 2^(k-1), found through an index.
    """
    index = {(eq.component, _pair(eq)): i for i, eq in enumerate(equations)}
    out: list[Constraint] = []
    for i, eq in enumerate(equations):
        redundant = False
        for k in range(1, n_colors + 1):
            bit = 1 << (k - 1)
            if not eq.component & bit:
                continue
            j = index[(eq.component ^ bit, _pair(eq))]
            dl = apply_op(D(k), sides[j][0])
            dr = apply_op(D(k), sides[j][1])
            # the higher-derivative entry can differ between the two
            # components, so try both side orientations
            lhs, rhs = sides[i]
            if any(
                dl == expr_scale(x, lam) and dr == expr_scale(y, lam)
                for x, y in ((lhs, rhs), (rhs, lhs))
                for lam in _PHASES
            ):
                redundant = True
                break
        out.append(Constraint(eq.component, eq.alpha, eq.beta, eq.gap, eq.phase, redundant))
    return tuple(out)


_PHASES = tuple(Phase(k) for k in range(4))


# ---------------------------------------------------------------------------
# documents as plain data


def _reference_graph(t: Topology, a: Adinkra | None = None) -> dict:
    """A topology's payload, with each vertex's height and edge's parity when given the Adinkra a on t."""
    vertices = [{"id": v, "statistics": s} for v, s in zip(t.vertex_ids, t.statistics)]
    order = sorted((c, u, v) for u, v, c in t.edges)
    edges = [{"color": c, "ends": [u, v]} for c, u, v in order]
    if a is not None:
        parity = a.parity_by_edge()
        for item, h in zip(vertices, a.heights):
            item["height"] = h
        for item, (c, u, v) in zip(edges, order):
            item["parity"] = parity[(u, v, c)]
    return {"n_colors": t.n_colors, "vertices": vertices, "edges": edges}


def _reference_header(a: Adinkra) -> dict:
    parity = a.parity_by_edge()
    return {
        "topology": _reference_graph(a.topology),
        "parity": [parity[(u, v, c)] for c, u, v in sorted((c, u, v) for u, v, c in a.topology.edges)],
    }


def reference_document(obj: Topology | Adinkra | FamilyGraph | SequenceTrace) -> dict:
    """The document serialize writes for obj, as the data json.dumps(indent=2) writes the same text from."""
    if isinstance(obj, Adinkra):
        payload = _reference_graph(obj.topology, obj)
    elif isinstance(obj, Topology):
        payload = _reference_graph(obj)
    elif isinstance(obj, FamilyGraph):
        payload = {
            **_reference_header(next(iter(obj.members.values()))),
            "members": [list(k) for k in sorted(obj.members)],
            "moves": [
                {"from": list(src), "kind": kind, "vertex": v, "to": list(dst)}
                for src, kind, v, dst in sorted(obj.moves)
            ],
        }
    else:
        steps = [
            {
                "heights": list(s.adinkra.heights),
                "move": None if s.move is None else list(s.move),
                "counters": [list(p) for p in s.counters],
                "parent": s.parent,
                "repeat_of": s.repeat_of,
            }
            for s in obj.steps
        ]
        payload = {**_reference_header(obj.steps[0].adinkra), "steps": steps, "cycle_closure": obj.cycle_closure}
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": document_kind(obj),
        "annotations": {},
        "payload": payload,
    }
