"""JSON document format and Graphviz export.

One envelope carries every object kind the tools exchange::

    {"format": "adinkra-document", "version": 1, "kind": "adinkra",
     "annotations": {...}, "payload": {...}}

Kinds: topology, adinkra, family, trace, constraints.  Serialization is
canonical: vertices ascend by id, edges ascend by (color, ends), family
members and moves are sorted, so equal objects produce identical text,
byte-identical to ``json.dumps(indent=2)``, and written by one recursive
writer as parts joined once.  Each vertex and edge of a graph is written
from one template at the indent it lands at.  A family document's members
and moves are written in one pass: each member's heights formatted once and
indented for the moves, and every move joined from those texts.  They, a
graph's vertices and edges and a trace's steps go into the parts one by
one, so the document's join is the only copy of a large payload.  Every
document the library writes reads back, since an Adinkra's heights and
parities are plain ints.
Deserialization validates shape and reports the offending path (for example
``payload.vertices[3].height``) before any graph-level validation runs.  Each
vertex and edge, and each of a family's height lists, is checked by one test
of its keys and types; a path is written only for an item that fails it,
and each move's heights are interned to the listed member they equal.

The decoders of the family, trace and constraints kinds import mutation,
constraints and superspace when they run, so a process that reads and writes
only topology and Adinkra documents never loads those modules.  Telling a
payload's kind loads none of them either: a family, trace or constraint system
exists only once its module is loaded.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Any, Mapping

from .core import BOSON, FERMION, Adinkra, AdinkraError, Topology, _check_heights, _check_parity
from .cube import MAX_CUBE_COLORS, SCALAR, SPINOR

if TYPE_CHECKING:
    from .constraints import ConstraintSystem
    from .mutation import FamilyGraph, SequenceStep, SequenceTrace

    Payload = Topology | Adinkra | FamilyGraph | SequenceTrace | ConstraintSystem

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "Document",
    "DocumentError",
    "document_kind",
    "serialize",
    "deserialize",
    "export_dot",
]

FORMAT_NAME = "adinkra-document"
FORMAT_VERSION = 1


class DocumentError(AdinkraError):
    """Malformed document text or schema violation."""


@dataclass(frozen=True)
class Document:
    kind: str
    payload: Payload
    annotations: Mapping[str, Any]


# the payload classes defined outside core, by module: (module, class, document kind)
_LOADED_KINDS = (
    ("mutation", "FamilyGraph", "family"),
    ("mutation", "SequenceTrace", "trace"),
    ("constraints", "ConstraintSystem", "constraints"),
)


def document_kind(obj: Payload) -> str:
    if isinstance(obj, Adinkra):
        return "adinkra"
    if isinstance(obj, Topology):
        return "topology"
    # an instance of a class exists only once its module is loaded, so no kind test loads one
    for module, cls, kind in _LOADED_KINDS:
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None and isinstance(obj, getattr(loaded, cls)):
            return kind
    raise DocumentError(f"no document kind for {type(obj).__name__}")


# ---------------------------------------------------------------------------
# encoding


def _edge_order(t: Topology, parity: tuple[int, ...] | None = None) -> list[tuple[int, ...]]:
    """The edges as (color, u, v), the order every document and DOT graph lists them in.

    Given the parity aligned with t.edges, each is (color, u, v, parity); no two
    edges share (color, u, v), so the parity never decides the order.
    """
    if parity is None:
        return sorted((c, u, v) for u, v, c in t.edges)
    return sorted((c, u, v, p) for (u, v, c), p in zip(t.edges, parity))


# the indent serialize writes each item of a list in the payload at
_ITEM_PAD = " " * 6


def _graph_data(t: Topology, a: Adinkra | None = None, pad: str = _ITEM_PAD) -> dict:
    """A topology's payload, with each vertex's height and edge's parity when given the Adinkra a on t.

    Each vertex and edge is written from one template at pad, the indent of
    the list items it goes in, for _write to splice in as it is.
    """
    at = f"\n{pad}  "  # where each field starts, and each end one level deeper
    deep, close = at + "  ", f"\n{pad}}}"
    if a is None:
        vertices = [f'{{{at}"id": {v},{at}"statistics": {_quote(s)}{close}' for v, s in zip(t.vertex_ids, t.statistics)]
        edges = [f'{{{at}"color": {c},{at}"ends": [{deep}{u},{deep}{v}{at}]{close}' for c, u, v in _edge_order(t)]
    else:
        vertices = [
            f'{{{at}"id": {v},{at}"statistics": {_quote(s)},{at}"height": {h}{close}'
            for v, s, h in zip(t.vertex_ids, t.statistics, a.heights)
        ]
        edges = [
            f'{{{at}"color": {c},{at}"ends": [{deep}{u},{deep}{v}{at}],{at}"parity": {p}{close}'
            for c, u, v, p in _edge_order(t, a.parity)
        ]
    return {"n_colors": t.n_colors, "vertices": _Written(vertices), "edges": _Written(edges)}


def _header_data(a: Adinkra) -> dict:
    """The topology and the parity every member of a family or step of a trace shares."""
    return {
        "topology": _graph_data(a.topology, pad=_ITEM_PAD + "  "),
        "parity": [p for _, _, _, p in _edge_order(a.topology, a.parity)],
    }


def _family_data(f: FamilyGraph) -> dict:
    """The family payload, its members and moves already written at their indent.

    Each member's heights are formatted once, at the members' indent, and
    moved two spaces deeper for the moves, whose fields sit one level down;
    every move is joined from those texts.
    """
    if not f.members:
        raise _fail("$.payload.members", "a family needs at least one member")
    field = _ITEM_PAD + "  "
    sep = ",\n" + field
    keys = sorted(f.members)
    at_item = [_indented_json(k, _ITEM_PAD) for k in keys]
    # json text holds no raw newline but its layout's, so two more spaces on every line nest it one level deeper
    at_field = {k: text.replace("\n", "\n  ") for k, text in zip(keys, at_item)}
    # a move's kind and vertex, written once per pair
    middles: dict[tuple, str] = {}
    moves = []
    for src, kind, v, dst in sorted(f.moves):
        middle = middles.get((kind, v))
        if middle is None:
            middle = middles[kind, v] = f'{sep}"kind": {_indented_json(kind, field)}{sep}"vertex": {_indented_json(v, field)}{sep}"to": '
        from_text = at_field.get(src) or _indented_json(src, field)
        to_text = at_field.get(dst) or _indented_json(dst, field)
        moves.append(f'{{\n{field}"from": {from_text}{middle}{to_text}\n{_ITEM_PAD}}}')
    return {
        **_header_data(next(iter(f.members.values()))),
        "members": _Written(at_item),
        "moves": _Written(moves),
    }


_NO_START = "a trace needs at least the start step"


def _step_data(s: SequenceStep) -> dict:
    return {
        "heights": list(s.adinkra.heights),
        "move": None if s.move is None else list(s.move),
        "counters": [list(p) for p in s.counters],
        "parent": s.parent,
        "repeat_of": s.repeat_of,
    }


def _trace_data(tr: SequenceTrace) -> dict:
    """The trace payload, each step written once at its indent."""
    if not tr.steps:
        raise _fail("$.payload.steps", _NO_START)
    return {
        **_header_data(tr.steps[0].adinkra),
        "steps": _Written([_indented_json(_step_data(s), _ITEM_PAD) for s in tr.steps]),
        "cycle_closure": tr.cycle_closure,
    }


def _constraints_data(cs: ConstraintSystem) -> dict:
    return {
        "n_colors": cs.spec.n_colors,
        "kind": cs.kind,
        "entries": [{"subset": m, "shift": s} for m, s in cs.spec.entries],
        "equations": [
            {
                "component": e.component,
                "alpha": e.alpha,
                "beta": e.beta,
                "gap": e.gap,
                "phase": str(e.phase),
                "redundant": e.redundant,
            }
            for e in cs.equations
        ],
    }


_ENCODERS = {
    "topology": _graph_data,
    "adinkra": lambda a: _graph_data(a.topology, a),
    "family": _family_data,
    "trace": _trace_data,
    "constraints": _constraints_data,
}


def serialize(obj: Payload | Document, annotations: Mapping[str, Any] | None = None) -> str:
    """Canonical JSON text for a payload object or a prebuilt Document."""
    if isinstance(obj, Document):
        kind, payload, stored = obj.kind, obj.payload, obj.annotations
    else:
        kind, payload, stored = document_kind(obj), obj, {}
    data = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "annotations": dict(stored if annotations is None else annotations),
        "payload": _ENCODERS[kind](payload),
    }
    # the document is joined once from its parts, so a large payload is not copied per level
    parts = _write(data, "", [])
    parts.append("\n")
    return "".join(parts)


class _Written(list):
    """A JSON list whose items are texts already written at the indent of the place they go."""


def _write(value: Any, pad: str, out: list[str]) -> list[str]:
    """Append the text of json.dumps(value, indent=2), nested at indent pad, to out as parts; return out.

    json.dumps never uses its C encoder when indent is set, so this walks
    the dicts with str keys and the lists and tuples itself, writes plain
    ints and strs as json does, and hands every other value (floats, bools,
    None, dicts with other keys, types json rejects) to json.dumps.  Each
    value of a dict is its own parts; a list is one part, each of its items
    joined alone (a list of plain ints in one step); the items of a _Written
    list go in one by one as they are.
    """
    kind = type(value)
    if kind is int:
        out.append(str(value))
        return out
    if kind is str:
        out.append(_quote(value))
        return out
    if kind in (list, tuple, _Written, dict) and not value:
        out.append("{}" if kind is dict else "[]")
        return out
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is _Written:
        out.append("[\n" + inner)
        for item in value:
            out += (item, sep)
        out[-1] = "\n" + pad + "]"
    elif kind is list or kind is tuple:
        if {int}.issuperset(map(type, value)):
            items = map(str, value)
        else:
            items = ("".join(_write(x, inner, [])) for x in value)
        out.append(f"[\n{inner}{sep.join(items)}\n{pad}]")
    elif kind is dict and {str}.issuperset(map(type, value)):
        out.append("{\n" + inner)
        for k, v in value.items():
            out.append(_quote(k) + ": ")
            _write(v, inner, out)
            out.append(sep)
        out[-1] = "\n" + pad + "}"
    else:
        out.append(json.dumps(value, indent=2).replace("\n", "\n" + pad))
    return out


def _indented_json(value: Any, pad: str = "") -> str:
    """The text of json.dumps(value, indent=2), nested at indent pad."""
    return "".join(_write(value, pad, []))


# ---------------------------------------------------------------------------
# decoding


def _fail(path: str, why: str) -> DocumentError:
    return DocumentError(f"{path}: {why}")


def _get(obj: dict, key: str, types: type | None, path: str):
    if key not in obj:
        raise _fail(path, f"missing key '{key}'")
    val = obj[key]
    if types is not None and not isinstance(val, types):
        raise _fail(f"{path}.{key}", f"expected {types.__name__}, got {type(val).__name__}")
    return val


def _int(obj: dict, key: str, path: str) -> int:
    val = _get(obj, key, None, path)
    # JSON decodes integers to exact ints; bool is the one int subclass it yields
    if type(val) is not int:
        raise _fail(f"{path}.{key}", f"expected int, got {type(val).__name__}")
    return val


def _only_keys(item: dict, keys: tuple[str, ...], path: str) -> None:
    """Reject keys another kind would carry, such as an Adinkra's heights in a topology."""
    for key in item:
        if key not in keys:
            raise _fail(path, f"unexpected key {key!r}")


def _object(item, keys: tuple[str, ...], path: str) -> dict:
    """item, once it is an object with no key but keys."""
    if not isinstance(item, dict):
        raise _fail(path, f"expected object, got {type(item).__name__}")
    _only_keys(item, keys, path)
    return item


def _objects(data: dict, key: str, keys: tuple[str, ...], path: str):
    """(path, item) for each item of the list data[key], once it is an object with no key but keys."""
    for i, item in enumerate(_get(data, key, list, path)):
        ip = f"{path}.{key}[{i}]"
        yield ip, _object(item, keys, ip)


_VERTEX_KEYS = ("id", "statistics", "height")
_EDGE_KEYS = ("color", "ends", "parity")


def _decode_graph(data: dict, path: str, decorated: bool) -> Topology | Adinkra:
    """A topology, or when decorated an Adinkra, whose vertices carry heights and edges parities.

    Each vertex and edge passes one test of its keys and types and builds no
    path; only an item that fails it goes through the checks that name what
    is wrong at its path.
    """
    _only_keys(data, ("n_colors", "vertices", "edges"), path)
    n = _int(data, "n_colors", path)
    size = 2 + decorated
    stats: dict[int, str] = {}
    heights: dict[int, int] = {}
    for i, item in enumerate(_get(data, "vertices", list, path)):
        if (
            type(item) is dict
            and len(item) == size
            and type(vid := item.get("id")) is int
            and item.get("statistics") in (BOSON, FERMION)
            and (not decorated or type(item.get("height")) is int)
            and vid not in stats
        ):
            stats[vid] = item["statistics"]
            if decorated:
                heights[vid] = item["height"]
        else:
            _checked_vertex(item, _VERTEX_KEYS[:size], stats, heights, f"{path}.vertices[{i}]")
    edges: list[tuple[int, int, int]] = []
    parity: dict[tuple[int, int, int], int] = {}
    for i, item in enumerate(_get(data, "edges", list, path)):
        if (
            type(item) is dict
            and len(item) == size
            and type(color := item.get("color")) is int
            and type(ends := item.get("ends")) is list
            and len(ends) == 2
            and type(u := ends[0]) is int
            and type(v := ends[1]) is int
            and (not decorated or (type(p := item.get("parity")) is int and p in (0, 1)))
        ):
            e = (u, v, color) if u < v else (v, u, color)
            edges.append(e)
            if decorated:
                parity[e] = p
        else:
            _checked_edge(item, _EDGE_KEYS[:size], edges, parity, f"{path}.edges[{i}]")
    topo = _at(path, Topology.build, n, stats, edges)
    return _at(path, Adinkra.from_maps, topo, heights, parity) if decorated else topo


def _checked_vertex(item, keys: tuple[str, ...], stats: dict, heights: dict, vp: str) -> None:
    """Add the vertex item at path vp to stats and, when keys name a height, heights; or name what is wrong with it."""
    _object(item, keys, vp)
    vid = _int(item, "id", vp)
    st = _get(item, "statistics", str, vp)
    if st not in (BOSON, FERMION):
        raise _fail(f"{vp}.statistics", f"expected '{BOSON}' or '{FERMION}', got {st!r}")
    if vid in stats:
        raise _fail(vp, f"duplicate vertex id {vid}")
    stats[vid] = st
    if "height" in keys:
        heights[vid] = _int(item, "height", vp)


def _checked_edge(item, keys: tuple[str, ...], edges: list, parity: dict, ep: str) -> None:
    """Add the edge item at path ep to edges and, when keys name a parity, parity; or name what is wrong with it."""
    _object(item, keys, ep)
    color = _int(item, "color", ep)
    ends = _get(item, "ends", list, ep)
    if len(ends) != 2 or not all(type(e) is int for e in ends):
        raise _fail(f"{ep}.ends", "expected a pair of vertex ids")
    u, v = sorted(ends)
    edges.append((u, v, color))
    if "parity" in keys:
        p = _int(item, "parity", ep)
        if p not in (0, 1):
            raise _fail(f"{ep}.parity", f"expected 0 or 1, got {p}")
        parity[(u, v, color)] = p


def _heights(raw, ints: list[type]) -> tuple[int, ...] | None:
    """raw as a tuple when it is a list of len(ints) ints, else None; builds no path.

    ints is [int] * n, so one list comparison tests type(h) is int for every h.
    """
    if isinstance(raw, list) and len(raw) == len(ints) and list(map(type, raw)) == ints:
        return tuple(raw)
    return None


def _heights_tuple(raw, topo: Topology, path: str) -> tuple[int, ...]:
    """raw as a tuple of one int per vertex of topo, or the error naming what is wrong at path."""
    heights = _heights(raw, [int] * len(topo.vertex_ids))
    if heights is not None:
        return heights
    if not isinstance(raw, list) or len(raw) != len(topo.vertex_ids):
        raise _fail(path, f"expected {len(topo.vertex_ids)} heights")
    i, h = next((i, h) for i, h in enumerate(raw) if type(h) is not int)
    raise _fail(f"{path}[{i}]", f"expected int, got {type(h).__name__}")


def _at(path: str, check, *args):
    """Run a graph-level check or build and return its result, naming path in its error."""
    try:
        return check(*args)
    except AdinkraError as exc:
        raise _fail(path, str(exc)) from None


def _decode_header(data: dict, path: str) -> tuple[Topology, tuple[int, ...]]:
    """The topology and the parity every member or step shares, aligned with its edges and checked once."""
    topo = _decode_graph(_get(data, "topology", dict, path), f"{path}.topology", False)
    raw = _get(data, "parity", list, path)
    order = _edge_order(topo)
    if len(raw) != len(order):
        raise _fail(f"{path}.parity", f"expected {len(order)} entries")
    out = {}
    for i, ((c, u, v), p) in enumerate(zip(order, raw)):
        if type(p) is not int or p not in (0, 1):
            raise _fail(f"{path}.parity[{i}]", f"expected 0 or 1, got {p!r}")
        out[(u, v, c)] = p
    parity = tuple(out[e] for e in topo.edges)
    _at(f"{path}.parity", _check_parity, topo, parity)
    return topo, parity


_MOVE_KEYS = ("from", "kind", "vertex", "to")


def _move(item, ints: list[type], keys: dict) -> tuple[tuple[int, ...], str, int, tuple[int, ...]] | None:
    """_checked_move's answer, its heights interned to keys, when the move is well formed on len(ints) vertices.

    None otherwise; builds no path.
    """
    if type(item) is dict and len(item) == len(_MOVE_KEYS):
        kind, v = item.get("kind"), item.get("vertex")
        src, dst = _heights(item.get("from"), ints), _heights(item.get("to"), ints)
        if type(kind) is str and type(v) is int and src is not None and dst is not None:
            return keys.get(src, src), kind, v, keys.get(dst, dst)
    return None


def _checked_move(item, topo: Topology, mp: str) -> tuple[tuple[int, ...], str, int, tuple[int, ...]]:
    """A listed move as (from, kind, vertex, to), or the error naming the first thing wrong with it at its path mp."""
    _object(item, _MOVE_KEYS, mp)
    kind = _get(item, "kind", str, mp)
    src = _heights_tuple(_get(item, "from", list, mp), topo, f"{mp}.from")
    dst = _heights_tuple(_get(item, "to", list, mp), topo, f"{mp}.to")
    return src, kind, _int(item, "vertex", mp), dst


def _decode_family(data: dict, path: str) -> FamilyGraph:
    """Require the listed members and moves to be the family recomputed from topology and parity.

    Each listed list of heights is checked in one pass and its path is
    written only when it fails; every move's heights are interned to the
    listed member's key.
    """
    from .mutation import FamilyGraph, _singles, _sorted_moves, _walk

    _only_keys(data, ("topology", "parity", "members", "moves"), path)
    topo, parity = _decode_header(data, path)
    ints = [int] * len(topo.vertex_ids)
    listed = []
    for i, raw in enumerate(_get(data, "members", list, path)):
        key = _heights(raw, ints)
        listed.append(_heights_tuple(raw, topo, f"{path}.members[{i}]") if key is None else key)
    keys = {k: k for k in listed}
    moves = [
        _move(item, ints, keys) or _checked_move(item, topo, f"{path}.moves[{i}]")
        for i, item in enumerate(_get(data, "moves", list, path))
    ]
    # the walk starts at the valise, which is already in normal form
    start = Adinkra._trusted(topo, topo._valise, parity)
    members = {start.heights: start}
    walked = []
    for src, kind, (v,), nxt in _walk(members, _singles(topo), ("raise", "lower")):
        if len(members) > len(listed):
            raise _fail(f"{path}.members", f"the family has more than the {len(listed)} listed")
        walked.append((src, kind, v, nxt.heights))
    for key, given, found in (("members", listed, sorted(members)), ("moves", moves, _sorted_moves(walked))):
        if given != found:
            i = next((i for i, (a, b) in enumerate(zip(given, found)) if a != b), min(len(given), len(found)))
            if key == "members" and i < len(given):
                _at(f"{path}.members[{i}]", _check_heights, topo, given[i])
            why = f"expected {found[i]}" if i < len(found) else f"the family has only {len(found)} {key}"
            raise _fail(f"{path}.{key}[{i}]", why)
    return FamilyGraph(topo, {k: members[k] for k in listed}, tuple(moves))


def _vertex(val, topo: Topology, path: str) -> int:
    if type(val) is not int or val not in topo._vindex:
        raise _fail(path, f"expected a vertex id, got {val!r}")
    return val


def _same(given, expected, path: str) -> None:
    """Require given to be expected, JSON types compared exactly, naming the deepest difference."""
    # repr tells True from 1 and 1.0 from 1, as == does not
    if repr(given) == repr(expected):
        return
    if type(expected) is dict and type(given) is dict:
        _only_keys(given, tuple(expected), path)
        for key, val in expected.items():
            _same(_get(given, key, None, path), val, f"{path}.{key}")
    elif type(expected) is list and type(given) is list:
        for i, (g, e) in enumerate(zip(given, expected)):
            _same(g, e, f"{path}[{i}]")
        if len(given) != len(expected):
            raise _fail(path, f"expected {len(expected)} entries, got {len(given)}")
    else:
        raise _fail(path, f"expected {json.dumps(expected)}, got {json.dumps(given)}")


def _decode_trace(data: dict, path: str) -> SequenceTrace:
    """Require the listed steps to be main_sequence recomputed from step 0 and the raised orbits.

    The orbits are the distinct moves; each vertex no move names joins the
    orbit of the others with its statistics and step-0 height.  Such orbits
    never become raisable in a whole trace, so they do not change the walk.
    """
    from .mutation import _check_orbit, _sequence, _trace

    _only_keys(data, ("topology", "parity", "steps", "cycle_closure"), path)
    topo, parity = _decode_header(data, path)
    listed = _get(data, "steps", list, path)
    if not listed:
        raise _fail(f"{path}.steps", _NO_START)
    seen: set[int] = set()
    orbits: set[tuple[int, ...]] = set()
    for i, item in enumerate(listed):
        sp = f"{path}.steps[{i}]"
        if not isinstance(item, dict):
            raise _fail(sp, f"expected object, got {type(item).__name__}")
        if not i:
            heights = _heights_tuple(_get(item, "heights", list, sp), topo, f"{sp}.heights")
            _at(f"{sp}.heights", _check_heights, topo, heights)
            start = Adinkra._trusted(topo, heights, parity).normalized()
            continue
        raw = _get(item, "move", None, sp)
        if not isinstance(raw, list) or not raw:
            raise _fail(f"{sp}.move", f"expected the raised vertices, got {json.dumps(raw)}")
        orbit = tuple(sorted(_vertex(v, topo, f"{sp}.move[{j}]") for j, v in enumerate(raw)))
        if orbit not in orbits:
            orbits.add(_at(f"{sp}.move", _check_orbit, start, orbit, seen))
    rest: dict[tuple[str, int], list[int]] = {}
    for v, h in zip(topo.vertex_ids, start.heights):
        if v not in seen:
            rest.setdefault((topo.statistics_of(v), h), []).append(v)
    # each step is compared as the walk yields it; one step more than listed tells that the listing is cut short
    steps = []
    for i, step in enumerate(_sequence(start, sorted([*orbits, *map(tuple, rest.values())]))):
        if i == len(listed):
            raise _fail(f"{path}.steps", f"the trace has more than the {len(listed)} listed")
        _same(listed[i], _step_data(step), f"{path}.steps[{i}]")
        steps.append(step)
    if len(steps) != len(listed):
        raise _fail(f"{path}.steps", f"expected {len(steps)} entries, got {len(listed)}")
    trace = _trace(steps)
    _same(_get(data, "cycle_closure", None, path), trace.cycle_closure, f"{path}.cycle_closure")
    return trace


def _decode_constraints(data: dict, path: str) -> ConstraintSystem:
    """Require the listed equations to be emit_constraints recomputed from the battery.

    The count is compared first, so a document cut short is refused before
    anything is projected.
    """
    from .constraints import SourceSpec, emit_constraints

    _only_keys(data, ("n_colors", "kind", "entries", "equations"), path)
    n = _int(data, "n_colors", path)
    if not 1 <= n <= MAX_CUBE_COLORS:
        raise _fail(f"{path}.n_colors", f"expected a positive int up to the cube cap {MAX_CUBE_COLORS}, got {n}")
    kind = _get(data, "kind", str, path)
    if kind not in (SCALAR, SPINOR):
        raise _fail(f"{path}.kind", f"expected '{SCALAR}' or '{SPINOR}', got {kind!r}")
    entries = [
        (_int(item, "subset", ep), _int(item, "shift", ep))
        for ep, item in _objects(data, "entries", ("subset", "shift"), path)
    ]
    spec = _at(f"{path}.entries", SourceSpec, n, tuple(entries))
    listed = _get(data, "equations", list, path)
    count = (1 << n) * len(entries) * (len(entries) - 1) // 2
    if len(listed) != count:
        raise _fail(f"{path}.equations", f"expected {count} entries, got {len(listed)}")
    system = _at(path, emit_constraints, spec, kind)
    _same(listed, _constraints_data(system)["equations"], f"{path}.equations")
    return system


_DECODERS = {
    "topology": lambda data, path: _decode_graph(data, path, False),
    "adinkra": lambda data, path: _decode_graph(data, path, True),
    "family": _decode_family,
    "trace": _decode_trace,
    "constraints": _decode_constraints,
}


def deserialize(text: str) -> Document:
    """Parse document text back into a Document with a live payload."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise _fail("$", "nested too deeply to decode") from None
    except ValueError:  # an integer over Python's digit limit for int(str)
        raise _fail("$", "an integer has too many digits to decode") from None
    if not isinstance(data, dict):
        raise _fail("$", f"expected object, got {type(data).__name__}")
    _only_keys(data, ("format", "version", "kind", "annotations", "payload"), "$")
    fmt = _get(data, "format", str, "$")
    if fmt != FORMAT_NAME:
        raise _fail("$.format", f"expected {FORMAT_NAME!r}, got {fmt!r}")
    version = _int(data, "version", "$")
    if version != FORMAT_VERSION:
        raise _fail("$.version", f"unsupported version {version}")
    kind = _get(data, "kind", str, "$")
    if kind not in _DECODERS:
        raise _fail("$.kind", f"expected one of {sorted(_DECODERS)}, got {kind!r}")
    annotations = data.get("annotations", {})
    if not isinstance(annotations, dict):
        raise _fail("$.annotations", f"expected object, got {type(annotations).__name__}")
    body = _get(data, "payload", dict, "$")
    payload = _DECODERS[kind](body, "$.payload")
    return Document(kind, payload, annotations)


# ---------------------------------------------------------------------------
# Graphviz export


_PALETTE = ("red", "blue", "green", "orange", "purple", "brown", "cyan", "magenta")

# Graphviz reads an unquoted graph name only if it has this form and is not a
# keyword; it matches keywords in any letter case
_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOT_KEYWORDS = frozenset(("digraph", "edge", "graph", "node", "strict", "subgraph"))


def export_dot(obj: Topology | Adinkra | Document, name: str = "adinkra") -> str:
    """Graphviz text: ranks by height, edge color by color, dashed on parity 1.

    Bosons are drawn as white circles, fermions as black ones.  Edges of a
    bare topology are undirected; an Adinkra's edges point from lower to
    higher vertex.  name must be a DOT identifier that is not a keyword.
    """
    if not _DOT_ID.fullmatch(name) or name.lower() in _DOT_KEYWORDS:
        raise DocumentError(
            f"graph name {name!r} is not a DOT identifier: "
            "expected [A-Za-z_][A-Za-z0-9_]* and not a DOT keyword"
        )
    if isinstance(obj, Document):
        obj = obj.payload
    if isinstance(obj, Adinkra):
        topo, heights, parity = obj.topology, obj.heights_by_vertex(), obj.parity_by_edge()
    elif isinstance(obj, Topology):
        topo, heights, parity = obj, None, None
    else:
        raise DocumentError(f"cannot draw a {type(obj).__name__}")

    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=circle];"]
    for v in sorted(topo.vertex_ids):
        fill = "white" if topo.statistics_of(v) == BOSON else "black"
        font = "black" if fill == "white" else "white"
        lines.append(
            f'  v{v} [label="{v}", style=filled, fillcolor={fill}, fontcolor={font}];'
        )
    if heights is not None:
        for level in sorted(set(heights.values())):
            same = " ".join(f"v{v}" for v in sorted(topo.vertex_ids) if heights[v] == level)
            lines.append(f"  {{ rank=same; {same} }}")
    for c, u, v in _edge_order(topo):
        color = _PALETTE[(c - 1) % len(_PALETTE)]
        attrs = [f"color={color}"]
        if parity is not None and parity[(u, v, c)] == 1:
            attrs.append("style=dashed")
        if heights is None:
            attrs.append("dir=none")
            lines.append(f"  v{u} -> v{v} [{', '.join(attrs)}];")
        else:
            lo, hi = (u, v) if heights[u] < heights[v] else (v, u)
            lines.append(f"  v{lo} -> v{hi} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
