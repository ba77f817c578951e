from __future__ import annotations

import hashlib
import json
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinkra.constraints import ConstraintSystem, SourceSpec, emit_constraints, identify
from adinkra.core import BOSON, FERMION, Adinkra, Topology
from adinkra.cube import MAX_CUBE_COLORS, SCALAR, SPINOR, antipodal_quotient, cube_topology, hgt0, standard_parity
from adinkra.document import (
    Document,
    DocumentError,
    _indented_json,
    _Written,
    deserialize,
    document_kind,
    export_dot,
    serialize,
)
from adinkra.mutation import (
    FamilyGraph,
    SequenceStep,
    SequenceTrace,
    base_adinkra,
    enumerate_family,
    main_sequence,
    raise_vertex,
)

from oracles import reference_document


def sample_objects():
    t = cube_topology(2)
    return [
        t,
        base_adinkra(t),
        enumerate_family(t),
        main_sequence(base_adinkra(t)),
        emit_constraints(SourceSpec(2, ((1, 0), (2, 0)))),
        antipodal_quotient(),
    ]


@pytest.mark.parametrize("obj", sample_objects(), ids=lambda o: type(o).__name__)
def test_round_trip_is_stable_and_faithful(obj) -> None:
    text = serialize(obj)
    doc = deserialize(text)
    assert doc.kind == document_kind(obj)
    assert doc.payload == obj
    assert serialize(doc) == text


def test_annotations_survive_round_trip() -> None:
    t = cube_topology(1)
    text = serialize(t, annotations={"note": "tiny", "tags": [1, 2]})
    doc = deserialize(text)
    assert doc.annotations == {"note": "tiny", "tags": [1, 2]}
    assert serialize(Document(doc.kind, doc.payload, doc.annotations)) == text


def test_document_kind_rejects_unknown_objects() -> None:
    with pytest.raises(DocumentError, match="^no document kind for dict$"):
        document_kind({"not": "a payload"})


_KIND_NAMES = "['adinkra', 'constraints', 'family', 'topology', 'trace']"


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda a: serialize(Document("family", a, {})), "document kind 'family' holds FamilyGraph payloads, got Adinkra"),
        (lambda a: Document("adinkra", a.topology, {}), "document kind 'adinkra' holds Adinkra payloads, got Topology"),
        (lambda a: Document("topology", a, {}), "document kind 'topology' holds Topology payloads, got Adinkra"),
        (lambda a: Document("adinkra", 5, {}), "no document kind for int"),
        (lambda a: Document("bogus", a, {}), f"unknown document kind 'bogus', expected one of {_KIND_NAMES}"),
        (lambda a: Document(["adinkra"], a, {}), f"unknown document kind ['adinkra'], expected one of {_KIND_NAMES}"),
        (lambda a: Document("adinkra", a, None), "annotations must be a mapping, got NoneType"),
        (lambda a: Document("adinkra", a, [("note", 1)]), "annotations must be a mapping, got list"),
        (lambda a: serialize(a, [1]), "annotations must be a mapping, got list"),
        (lambda a: serialize(Document("adinkra", a, {}), "note"), "annotations must be a mapping, got str"),
    ],
    ids=["family-of-adinkra", "adinkra-of-topology", "topology-of-adinkra", "int-payload", "bogus-kind",
         "list-kind", "none-annotations", "list-annotations", "serialize-list", "serialize-str"],
)
def test_a_document_whose_kind_or_annotations_do_not_fit_is_refused(build, error) -> None:
    with pytest.raises(DocumentError, match=f"^{re.escape(error)}$"):
        build(base_adinkra(cube_topology(2)))


@pytest.mark.parametrize("obj", sample_objects(), ids=lambda o: type(o).__name__)
def test_a_document_of_the_payloads_own_kind_is_built(obj) -> None:
    doc = Document(document_kind(obj), obj, {"note": 1})
    assert serialize(doc) == serialize(obj, {"note": 1})


def _valid_adinkra_data() -> dict:
    return json.loads(serialize(base_adinkra(cube_topology(1))))


def test_deserialize_reports_paths() -> None:
    data = _valid_adinkra_data()
    del data["payload"]["vertices"][1]["height"]
    with pytest.raises(DocumentError, match=r"payload\.vertices\[1\]"):
        deserialize(json.dumps(data))

    data = _valid_adinkra_data()
    data["payload"]["edges"][0]["parity"] = 7
    with pytest.raises(DocumentError, match=r"edges\[0\]\.parity"):
        deserialize(json.dumps(data))

    data = _valid_adinkra_data()
    data["payload"]["vertices"][0]["statistics"] = "ghost"
    with pytest.raises(DocumentError, match="statistics"):
        deserialize(json.dumps(data))

    data = _valid_adinkra_data()
    data["payload"]["vertices"].append(dict(data["payload"]["vertices"][0]))
    with pytest.raises(DocumentError, match="duplicate vertex"):
        deserialize(json.dumps(data))


def _set(key: str, value):
    return lambda item: item.__setitem__(key, value)


# on the 2-cube Adinkra, vertex 1 is {"id": 1, "statistics": "fermion", "height": 1} and
# edge 2 is {"color": 2, "ends": [0, 2], "parity": 0}; each message is the one the field-by-field checks give
_BAD_VERTEX = [
    (lambda v: v.clear() or v.update(a=1, b=2, c=3), "$.payload.vertices[1]: unexpected key 'a'"),
    (_set("weight", 1), "$.payload.vertices[1]: unexpected key 'weight'"),
    (lambda v: v.pop("id"), "$.payload.vertices[1]: missing key 'id'"),
    (lambda v: v.pop("statistics"), "$.payload.vertices[1]: missing key 'statistics'"),
    (lambda v: v.pop("height"), "$.payload.vertices[1]: missing key 'height'"),
    (_set("id", True), "$.payload.vertices[1].id: expected int, got bool"),
    (_set("id", 1.0), "$.payload.vertices[1].id: expected int, got float"),
    (_set("statistics", 0), "$.payload.vertices[1].statistics: expected str, got int"),
    (_set("statistics", "quark"), "$.payload.vertices[1].statistics: expected 'boson' or 'fermion', got 'quark'"),
    (_set("id", 0), "$.payload.vertices[1]: duplicate vertex id 0"),
    (lambda v: v.update(id=0, height=1.5), "$.payload.vertices[1]: duplicate vertex id 0"),
    (_set("height", None), "$.payload.vertices[1].height: expected int, got NoneType"),
    (_set("height", False), "$.payload.vertices[1].height: expected int, got bool"),
]
_BAD_EDGE = [
    (_set("weight", 1), "$.payload.edges[2]: unexpected key 'weight'"),
    (lambda e: e.pop("color"), "$.payload.edges[2]: missing key 'color'"),
    (lambda e: e.pop("ends"), "$.payload.edges[2]: missing key 'ends'"),
    (lambda e: e.pop("parity"), "$.payload.edges[2]: missing key 'parity'"),
    (_set("color", 2.0), "$.payload.edges[2].color: expected int, got float"),
    (_set("ends", "02"), "$.payload.edges[2].ends: expected list, got str"),
    (_set("ends", [0]), "$.payload.edges[2].ends: expected a pair of vertex ids"),
    (_set("ends", [0, 2, 3]), "$.payload.edges[2].ends: expected a pair of vertex ids"),
    (_set("ends", [0, True]), "$.payload.edges[2].ends: expected a pair of vertex ids"),
    (_set("parity", 2), "$.payload.edges[2].parity: expected 0 or 1, got 2"),
    (_set("parity", -1), "$.payload.edges[2].parity: expected 0 or 1, got -1"),
    (_set("parity", True), "$.payload.edges[2].parity: expected int, got bool"),
    (_set("parity", 0.0), "$.payload.edges[2].parity: expected int, got float"),
]


@pytest.mark.parametrize(
    "where, tamper, error",
    [(("vertices", 1), *case) for case in _BAD_VERTEX] + [(("edges", 2), *case) for case in _BAD_EDGE],
    ids=[f"{error.split(':')[0]}-{i}" for i, (_, error) in enumerate(_BAD_VERTEX + _BAD_EDGE)],
)
def test_a_malformed_vertex_or_edge_is_named_at_its_path(where: tuple[str, int], tamper, error: str) -> None:
    data = json.loads(serialize(base_adinkra(cube_topology(2))))
    key, i = where
    tamper(data["payload"][key][i])
    with pytest.raises(DocumentError) as info:
        deserialize(json.dumps(data))
    assert str(info.value) == error


def test_deserialize_envelope_checks() -> None:
    with pytest.raises(DocumentError, match="not valid JSON"):
        deserialize("{nope")
    with pytest.raises(DocumentError, match=r"\$\.format"):
        deserialize(json.dumps({"format": "other", "version": 1, "kind": "adinkra"}))
    data = _valid_adinkra_data()
    data["version"] = 99
    with pytest.raises(DocumentError, match="version"):
        deserialize(json.dumps(data))
    data = _valid_adinkra_data()
    data["kind"] = "poem"
    with pytest.raises(DocumentError, match=r"\$\.kind"):
        deserialize(json.dumps(data))
    with pytest.raises(DocumentError, match=r"^\$: expected object, got list$"):
        deserialize("[]")
    data = _valid_adinkra_data()
    data["annotations"] = ["note"]
    with pytest.raises(DocumentError, match=r"^\$\.annotations: expected object, got list$"):
        deserialize(json.dumps(data))


def test_deserialize_runs_graph_validation() -> None:
    data = _valid_adinkra_data()
    data["payload"]["vertices"][1]["height"] = 4
    with pytest.raises(Exception, match="height gap"):
        deserialize(json.dumps(data))


def test_family_decode_checks_membership() -> None:
    fam = enumerate_family(cube_topology(1))
    data = json.loads(serialize(fam))
    data["payload"]["moves"][0]["from"] = [6, 7]
    with pytest.raises(DocumentError, match=r"^\$\.payload\.moves\[0\]: expected \(\(0, 1\), 'lower', 1, \(2, 1\)\)$"):
        deserialize(json.dumps(data))


def test_trace_decode_checks_counters() -> None:
    tr = main_sequence(base_adinkra(cube_topology(1)))
    data = json.loads(serialize(tr))
    data["payload"]["steps"][0]["counters"] = [[1]]
    with pytest.raises(DocumentError, match="counters"):
        deserialize(json.dumps(data))


def test_family_decode_checks_the_shared_parity() -> None:
    data = json.loads(serialize(enumerate_family(cube_topology(2))))
    data["payload"]["parity"][0] ^= 1
    with pytest.raises(DocumentError, match=r"\$\.payload\.parity: .*odd-square"):
        deserialize(json.dumps(data))


def test_family_decode_checks_each_members_gaps() -> None:
    data = json.loads(serialize(enumerate_family(cube_topology(2))))
    data["payload"]["members"][3][0] += 2
    with pytest.raises(DocumentError, match=r"\$\.payload\.members\[3\]: .*height gap"):
        deserialize(json.dumps(data))


def _trace_data() -> dict:
    return json.loads(serialize(main_sequence(base_adinkra(cube_topology(2)))))


@pytest.mark.parametrize(
    "tamper, where",
    [
        (lambda p: p.__setitem__("cycle_closure", "oops"), r"payload\.cycle_closure"),
        (lambda p: p.__setitem__("cycle_closure", 1), r"payload\.cycle_closure"),
        (lambda p: p["steps"][1].__setitem__("counters", [["a", None]]), r"steps\[1\]\.counters\[0\]\[0\]"),
        (lambda p: p["steps"][1].__setitem__("counters", [[9, 1]]), r"steps\[1\]\.counters\[0\]\[0\]"),
        (lambda p: p["steps"][1].__setitem__("counters", [[[0], 1]]), r"steps\[1\]\.counters\[0\]\[0\]"),
        (lambda p: p["steps"][1].__setitem__("counters", [[0, None]]), r"steps\[1\]\.counters\[0\]\[1\]"),
        (lambda p: p["steps"][1].__setitem__("move", [7]), r"steps\[1\]\.move\[0\]"),
        (lambda p: p["steps"][1].__setitem__("parent", 999), r"steps\[1\]\.parent"),
        (lambda p: p["steps"][1].__setitem__("parent", 1), r"steps\[1\]\.parent"),
        (lambda p: p["steps"][-1].__setitem__("repeat_of", len(p["steps"])), r"repeat_of"),
        (lambda p: p["steps"][-1].__setitem__("repeat_of", 1), r"steps\[8\]\.repeat_of: expected 0, got 1$"),
    ],
)
def test_trace_decode_checks_meaning(tamper, where) -> None:
    data = _trace_data()
    tamper(data["payload"])
    with pytest.raises(DocumentError, match=where):
        deserialize(json.dumps(data))


def test_trace_decode_rejects_the_combined_tampering() -> None:
    data = _trace_data()
    payload = data["payload"]
    payload["cycle_closure"] = "oops"
    payload["steps"][1]["counters"] = [["a", None]]
    payload["steps"][1]["parent"] = 999
    with pytest.raises(DocumentError, match=r"^\$\.payload\."):
        deserialize(json.dumps(data))


@pytest.mark.parametrize(
    "field, value, where",
    [
        ("component", 4, "component"),
        ("component", -1, "component"),
        ("alpha", 2, "alpha"),
        ("beta", -1, "beta"),
        ("beta", "alpha", "beta"),
        ("gap", -3, "gap"),
    ],
)
def test_constraints_decode_checks_index_ranges(field, value, where) -> None:
    data = json.loads(serialize(emit_constraints(SourceSpec(2, ((1, 0), (2, 0))))))
    eq = data["payload"]["equations"][0]
    eq[field] = eq[value] if value == "alpha" else value
    with pytest.raises(DocumentError, match=rf"equations\[0\]\.{where}: expected"):
        deserialize(json.dumps(data))


def test_constraints_decode_checks_the_color_count() -> None:
    data = json.loads(serialize(emit_constraints(SourceSpec(2, ((1, 0), (2, 0))))))
    data["payload"]["n_colors"] = -1
    with pytest.raises(DocumentError, match=r"n_colors: expected a positive int"):
        deserialize(json.dumps(data))


def test_constraints_decode_checks_phase() -> None:
    cs = emit_constraints(SourceSpec(2, ((1, 0), (2, 0))))
    data = json.loads(serialize(cs))
    data["payload"]["equations"][0]["phase"] = "+2"
    with pytest.raises(DocumentError, match="phase"):
        deserialize(json.dumps(data))


# ---------------------------------------------------------------------------
# DOT export


def test_export_dot_of_adinkra() -> None:
    a = base_adinkra(cube_topology(2))
    dot = export_dot(a, name="valise")
    assert dot.startswith("digraph valise {")
    assert "rankdir=BT;" in dot
    assert dot.count("rank=same") == 2
    assert "v0 -> v1 [color=red];" in dot
    assert "style=dashed" in dot  # the odd edge of the square
    assert 'fillcolor=black' in dot and 'fillcolor=white' in dot


def test_export_dot_direction_follows_heights() -> None:
    from adinkra.mutation import raise_vertex

    a = raise_vertex(base_adinkra(cube_topology(2)), 0)
    dot = export_dot(a)
    assert "v1 -> v0" in dot
    assert "v2 -> v0" in dot


def test_export_dot_of_bare_topology_is_undirected() -> None:
    dot = export_dot(cube_topology(2))
    assert "dir=none" in dot
    assert "rank=same" not in dot


def test_export_dot_accepts_documents_only_for_drawables() -> None:
    t = cube_topology(1)
    doc = deserialize(serialize(t))
    assert export_dot(doc) == export_dot(t)
    fam = enumerate_family(t)
    with pytest.raises(DocumentError, match="draw"):
        export_dot(fam)


@pytest.mark.parametrize("name", ['a"b', "a b", "1abc", "", "a-b", "node", "Digraph"])
def test_export_dot_rejects_a_name_that_is_not_a_dot_identifier(name) -> None:
    with pytest.raises(DocumentError, match=r"not a DOT identifier: expected \[A-Za-z_\]"):
        export_dot(cube_topology(1), name=name)


def test_export_dot_default_name_is_unchanged() -> None:
    assert export_dot(cube_topology(1)).startswith("digraph adinkra {\n")
    assert export_dot(cube_topology(1), name="_Graph_2").startswith("digraph _Graph_2 {\n")


def test_export_dot_multicomponent_topology() -> None:
    two = Topology.build(
        1,
        {0: BOSON, 1: FERMION, 10: BOSON, 11: FERMION},
        [(0, 1, 1), (10, 11, 1)],
    )
    dot = export_dot(two)
    assert "v10" in dot and "v11" in dot


def test_graph_level_decode_errors_name_their_path() -> None:
    def cube2(tamper) -> str:
        data = json.loads(serialize(base_adinkra(cube_topology(2))))
        tamper(data["payload"])
        return json.dumps(data)

    with pytest.raises(DocumentError, match=r"^\$\.payload: invalid topology: "):
        deserialize(cube2(lambda p: p["edges"][0].__setitem__("color", 2)))
    with pytest.raises(DocumentError, match=r"^\$\.payload: edge \(0, 1, 1\) has height gap -3"):
        deserialize(cube2(lambda p: p["vertices"][0].__setitem__("height", 4)))
    family = json.loads(serialize(enumerate_family(cube_topology(2))))
    family["payload"]["topology"]["edges"][0]["color"] = 2
    with pytest.raises(DocumentError, match=r"^\$\.payload\.topology: invalid topology"):
        deserialize(json.dumps(family))


@pytest.mark.parametrize(
    "kind, vertex, why",
    [
        ("raise", 0, "raise 0 does not turn 'from' into 'to'"),
        ("lower", 2, "lower 2 does not turn 'from' into 'to'"),
        ("lower", 0, "cannot lower 0"),
        ("lower", 9, "unknown vertex 9"),
    ],
)
def test_family_decode_replays_each_move(kind, vertex, why) -> None:
    data = json.loads(serialize(enumerate_family(cube_topology(2))))
    move = data["payload"]["moves"][0]
    assert (move["from"], move["kind"], move["vertex"]) == ([0, 1, 1, 0], "lower", 1)
    move["kind"], move["vertex"] = kind, vertex
    with pytest.raises(DocumentError, match=r"^\$\.payload\.moves\[0\]: expected \(\(0, 1, 1, 0\), 'lower', 1, \(2, 1, 3, 2\)\)$"):
        deserialize(json.dumps(data))


# sha256 of each family document, and of the SO(3) orbit trace of the 3-cube, as json.dumps(indent=2)
# wrote them through the recursive writer, before the family encoder wrote each key once per indent
FAMILY_DIGESTS = {
    "scalar1": "2c67c592ac86de12bc6d31e82016412ed243d8e6bdf5b5e85922c78345600f61",
    "spinor1": "5d7c5dc1e0ed54e903371a9b0f759ca96a3158e246ccde23a05c3441c247c0ac",
    "scalar2": "d89078b172a61df242dac3c2bdee9bd445d5c531d985a4696c0963f179d566f4",
    "spinor2": "415187796b354c5dbb7568bcb9a04a94ef1af6cbee8bd74729e164a5c8721573",
    "scalar3": "9c0ef76ecd195968df8a53fb5fbb5112ff4da486062a45053a1780b9e4f60183",
    "spinor3": "8e51523cd3581d075c3b0d760c9522854c14f4d553d7895bbbb806d3cb001e9a",
    "scalar4": "d4055eba48968f373a532fa9e1e642551d5e462c2179dd063ab1e4341aa4341b",
    "spinor4": "89f6e175f63ed2c86f9f4012d8e72feb0a3f1dc836f31d03749d7985e1ec8315",
    "quotient4": "a23216e2cf8ed306ce28b6a4ca46f5c8d2c960d6b84774c6b6c515222113db5c",
}
SO3_TRACE_DIGEST = "ebc39ad42bd2fbe9b01e9fce5c359bced37d53888de355af421c759c116b2013"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", FAMILY_DIGESTS)
def test_every_family_document_keeps_its_bytes(name: str) -> None:
    t = antipodal_quotient() if name == "quotient4" else cube_topology(int(name[-1]), name[:-1])
    text = serialize(enumerate_family(t))
    assert _digest(text) == FAMILY_DIGESTS[name]
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


def test_the_so3_trace_document_keeps_its_bytes() -> None:
    text = serialize(main_sequence(base_adinkra(cube_topology(3)), [[0], [1, 2, 4], [3, 5, 6], [7]]))
    assert _digest(text) == SO3_TRACE_DIGEST


def test_a_family_whose_moves_leave_its_members_is_written_as_json_dumps_writes_it() -> None:
    # the encoder writes each member's heights once, and any other key where a move names it
    t = cube_topology(2)
    base = base_adinkra(t)
    other = (9, 8, 8, 9)
    f = FamilyGraph(t, {base.heights: base}, ((other, "raise", 3, base.heights), (base.heights, "raise", 0, other)))
    text = serialize(f)
    data = json.loads(text)
    assert json.dumps(data, indent=2) + "\n" == text
    assert data["payload"]["members"] == [list(base.heights)]
    assert data["payload"]["moves"] == [
        {"from": list(base.heights), "kind": "raise", "vertex": 0, "to": list(other)},
        {"from": list(other), "kind": "raise", "vertex": 3, "to": list(base.heights)},
    ]


def _hand_built_families() -> list[FamilyGraph]:
    """The empty topology's family, keyed by (), and a 2-cube family whose keys hold -1 and two-digit heights."""
    empty = Topology.build(1, {}, [])
    t = cube_topology(2)
    base = base_adinkra(t)
    low, high = (-1, 0, -2, -1), (10, 11, 11, 12)
    members = {k: Adinkra(t, k, base.parity) for k in (low, high)}
    moves = ((high, "lower", 3, low), (low, "raise", 2, (-1, 0, 0, 1)), (low, "lower", 1, high))
    return [FamilyGraph(empty, {(): Adinkra(empty, (), ())}, ()), FamilyGraph(t, members, moves)]


@pytest.mark.parametrize("family", _hand_built_families(), ids=["empty", "negative-and-two-digit"])
def test_a_hand_built_family_is_written_as_the_reference_encoder_writes_it(family: FamilyGraph) -> None:
    assert serialize(family) == json.dumps(reference_document(family), indent=2) + "\n"


def test_a_family_without_members_is_refused() -> None:
    with pytest.raises(DocumentError, match=r"^\$\.payload\.members: a family needs at least one member$"):
        serialize(FamilyGraph(cube_topology(1), {}, ()))


def test_a_trace_without_steps_is_refused() -> None:
    with pytest.raises(DocumentError, match=r"^\$\.payload\.steps: a trace needs at least the start step$"):
        serialize(SequenceTrace((), None))


# each error is the text the decoder gave before it wrote a path only on failure
@pytest.mark.parametrize(
    "tamper, error",
    [
        (lambda d: d["payload"]["moves"][7295]["to"].__setitem__(3, 1.0), "$.payload.moves[7295].to[3]: expected int, got float"),
        (lambda d: d["payload"]["moves"][100].__setitem__("vertex", True), "$.payload.moves[100].vertex: expected int, got bool"),
        (lambda d: d["payload"]["moves"][5000].pop("kind"), "$.payload.moves[5000]: missing key 'kind'"),
        (lambda d: d.pop("kind"), "$: missing key 'kind'"),
        (lambda d: d["payload"]["moves"][-1].__setitem__("weight", 1), "$.payload.moves[7295]: unexpected key 'weight'"),
        (lambda d: d["payload"]["members"][989].__setitem__(0, True), "$.payload.members[989][0]: expected int, got bool"),
        (lambda d: d["payload"]["moves"][3000]["from"].pop(), "$.payload.moves[3000].from: expected 16 heights"),
        (lambda d: d["payload"]["moves"].__setitem__(3000, 3), "$.payload.moves[3000]: expected object, got int"),
    ],
    ids=["float-to", "bool-vertex", "missing-move-kind", "missing-kind", "extra-key-last-move", "bool-member", "short-from", "move-not-object"],
)
def test_errors_deep_in_the_n4_family_document_keep_their_text(n4_family_text: str, tamper, error: str) -> None:
    data = json.loads(n4_family_text)
    tamper(data)
    with pytest.raises(DocumentError) as info:
        deserialize(json.dumps(data, indent=2))
    assert str(info.value) == error


@pytest.fixture(scope="module")
def n4_family_text() -> str:
    return serialize(enumerate_family(cube_topology(4)))


def test_family_and_trace_documents_replay_cleanly() -> None:
    for topo in (cube_topology(3), cube_topology(3, "spinor"), antipodal_quotient()):
        for obj in (enumerate_family(topo), main_sequence(base_adinkra(topo))):
            text = serialize(obj)
            assert serialize(deserialize(text)) == text


_SMALL_TOPOLOGIES = {f"{kind}{n}": cube_topology(n, kind) for n in (1, 2, 3) for kind in (SCALAR, SPINOR)}
_SMALL_TOPOLOGIES["quotient"] = antipodal_quotient()


def _not_whole(payload: dict):
    """(what was done, payload) for each way a family listing can stop being whole."""
    members, moves = payload["members"], payload["moves"]
    for i, gone in enumerate(members):
        kept = [m for m in moves if gone not in (m["from"], m["to"])]
        yield f"delete member {i}", {**payload, "members": members[:i] + members[i + 1 :], "moves": kept}
    for i, member in enumerate(members):
        shifted = sorted(members + [[h + 2 for h in member]])
        yield f"add member {i} shifted by +2", {**payload, "members": shifted}
    yield "duplicate a member", {**payload, "members": members[:1] + members}
    yield "reverse the members", {**payload, "members": members[::-1]}
    yield "empty both lists", {**payload, "members": [], "moves": []}
    yield "drop a move", {**payload, "moves": moves[:1] + moves[2:]}
    yield "duplicate a move", {**payload, "moves": moves[:2] + moves[1:]}


@pytest.mark.parametrize("name", _SMALL_TOPOLOGIES)
def test_family_decode_accepts_the_whole_family_and_nothing_else(name) -> None:
    family = enumerate_family(_SMALL_TOPOLOGIES[name])
    data = json.loads(serialize(family))
    assert deserialize(json.dumps(data)).payload == family
    for what, payload in _not_whole(data["payload"]):
        try:
            deserialize(json.dumps({**data, "payload": payload}))
        except DocumentError as exc:
            assert re.match(r"\$\.payload\.(members|moves)", str(exc)), (what, str(exc))
        else:
            pytest.fail(f"accepted after: {what}")


def test_a_short_family_document_on_the_largest_cube_is_refused_early() -> None:
    t = cube_topology(MAX_CUBE_COLORS)
    base = base_adinkra(t, standard_parity(t))
    raised = raise_vertex(base, 0).normalized()
    moves = ((base.heights, "raise", 0, raised.heights), (raised.heights, "lower", 0, base.heights))
    text = serialize(FamilyGraph(t, {base.heights: base, raised.heights: raised}, moves))
    tracemalloc.start()
    try:
        with pytest.raises(DocumentError, match=r"^\$\.payload\.members: the family has more than the 2 listed$"):
            deserialize(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole family is astronomically large; the walk must stop at the third member
    assert peak < 32_000_000


def _cut_to_the_start(p: dict) -> None:
    p["steps"] = p["steps"][:1]
    p["steps"][0]["counters"] = [[1, 7]]
    p["cycle_closure"] = None


@pytest.mark.parametrize(
    "n, tamper, where",
    [
        (1, _cut_to_the_start, r"steps\[0\]\.counters\[0\]\[0\]: expected 0, got 1$"),
        (2, lambda p: p["steps"][4].__setitem__("repeat_of", None), r"steps\[4\]\.repeat_of: expected 3, got null$"),
        (2, lambda p: p["steps"][8].__setitem__("repeat_of", 7), r"steps\[8\]\.repeat_of: expected 0, got 7$"),
        (2, lambda p: p["steps"][5].__setitem__("parent", 4), r"steps\[5\]\.parent: expected 3, got 4$"),
        (2, lambda p: p.__setitem__("cycle_closure", None), r"cycle_closure: expected 7, got null$"),
        (2, lambda p: p.__setitem__("cycle_closure", 8), r"cycle_closure: expected 7, got 8$"),
    ],
)
def test_trace_decode_requires_what_main_sequence_records(n, tamper, where) -> None:
    data = json.loads(serialize(main_sequence(base_adinkra(cube_topology(n)))))
    tamper(data["payload"])
    with pytest.raises(DocumentError, match=rf"^\$\.payload\.{where}"):
        deserialize(json.dumps(data))


@pytest.mark.parametrize(
    "tamper, where",
    [
        (lambda p: p["steps"][1].__setitem__("move", [3]), r"steps\[1\]\.move\[0\]: expected 0, got 3$"),
        (lambda p: p["steps"][1].__setitem__("move", [1]), r"steps\[1\]\.move\[0\]: expected 0, got 1$"),
        (lambda p: p["steps"][1].__setitem__("move", [0, 0]), r"steps\[1\]\.move: vertex 0 appears in more than one orbit$"),
        (lambda p: p["steps"][1].__setitem__("move", None), r"steps\[1\]\.move: expected the raised vertices"),
        (lambda p: p["steps"][1].__setitem__("move", []), r"steps\[1\]\.move: expected the raised vertices"),
        (lambda p: p["steps"][1].__setitem__("parent", None), r"steps\[1\]\.parent: expected 0, got null$"),
        (lambda p: p["steps"][3].__setitem__("parent", 0), r"steps\[3\]\.parent: expected 1, got 0$"),
        (lambda p: p["steps"][1]["counters"][0].__setitem__(1, 2), r"steps\[1\]\.counters\[0\]\[1\]: expected 1, got 2$"),
        (lambda p: p["steps"][0]["counters"][3].__setitem__(1, 5), r"steps\[0\]\.counters\[3\]\[1\]: expected 0, got 5$"),
        (lambda p: p["steps"][1]["counters"].pop(), r"steps\[1\]\.counters: expected 4 entries, got 3$"),
        (lambda p: p["steps"].__setitem__(1, 3), r"steps\[1\]: expected object, got int$"),
        (lambda p: p.__setitem__("steps", []), r"steps: a trace needs at least the start step$"),
        (lambda p: p["parity"].pop(), r"parity: expected 4 entries$"),
    ],
)
def test_trace_decode_replays_each_raise(tamper, where) -> None:
    data = _trace_data()
    tamper(data["payload"])
    with pytest.raises(DocumentError, match=rf"^\$\.payload\.{where}"):
        deserialize(json.dumps(data))


def test_trace_decode_checks_the_raised_orbits() -> None:
    data = _trace_data()
    data["payload"]["steps"][1]["move"] = [0, 1]
    with pytest.raises(DocumentError, match=r"^\$\.payload\.steps\[1\]\.move: orbit \(0, 1\) mixes statistics$"):
        deserialize(json.dumps(data))


def _family_members() -> dict[str, list]:
    return {name: list(enumerate_family(t).members.values()) for name, t in _SMALL_TOPOLOGIES.items()}


_FAMILY_MEMBERS = _family_members()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_trace_from_any_member_and_orbit_partition_round_trips(data) -> None:
    member = data.draw(st.sampled_from(_FAMILY_MEMBERS[data.draw(st.sampled_from(sorted(_FAMILY_MEMBERS)))]))
    t = member.topology
    classes: dict[tuple[str, int], list[int]] = {}
    for v in t.vertex_ids:
        classes.setdefault((t.statistics_of(v), member.height_of(v)), []).append(v)
    # split each class of vertices with one statistics and height at random
    orbits: list[list[int]] = []
    for same in classes.values():
        parts: dict[int, list[int]] = {}
        for v in same:
            parts.setdefault(data.draw(st.integers(0, len(same) - 1)), []).append(v)
        orbits += parts.values()
    text = serialize(main_sequence(member, orbits))
    assert serialize(deserialize(text)) == text


def _so3_trace() -> dict:
    return json.loads(serialize(main_sequence(base_adinkra(cube_topology(3)), [[0], [1, 2, 4], [3, 5, 6], [7]])))


def _cut(p: dict, n: int) -> None:
    p["steps"] = p["steps"][:n]
    p["cycle_closure"] = None


@pytest.mark.parametrize(
    "make, tamper, why",
    [
        (_trace_data, lambda p: _cut(p, 1), r"steps: the trace has more than the 1 listed"),
        (_trace_data, lambda p: _cut(p, 2), r"steps: the trace has more than the 2 listed"),
        (_trace_data, lambda p: p["steps"].pop(), r"steps: the trace has more than the 8 listed"),
        (_trace_data, lambda p: p["steps"].append(p["steps"][-1]), r"steps: expected 9 entries, got 10"),
        (_so3_trace, lambda p: _cut(p, 3), r"steps: the trace has more than the 3 listed"),
    ],
    ids=["start-only", "two-steps", "last-dropped", "last-duplicated", "so3-three-steps"],
)
def test_trace_decode_requires_the_whole_trace(make, tamper, why) -> None:
    data = make()
    assert deserialize(json.dumps(data))
    tamper(data["payload"])
    with pytest.raises(DocumentError, match=rf"^\$\.payload\.{why}$"):
        deserialize(json.dumps(data))


def test_a_short_trace_document_on_the_largest_cube_is_refused_early() -> None:
    t = cube_topology(MAX_CUBE_COLORS)
    base = base_adinkra(t, standard_parity(t))
    raised = raise_vertex(base, 0).normalized()
    steps = (
        SequenceStep(base, None, tuple((v, 0) for v in t.vertex_ids), None, None),
        SequenceStep(raised, (0,), tuple((v, int(v == 0)) for v in t.vertex_ids), 0, None),
    )
    text = serialize(SequenceTrace(steps, None))
    tracemalloc.start()
    try:
        with pytest.raises(DocumentError, match=r"^\$\.payload\.steps: the trace has more than the 2 listed$"):
            deserialize(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole trace is astronomically long; the walk must stop at the third step
    assert peak < 32_000_000


def test_constraints_decode_caps_the_color_count() -> None:
    data = json.loads(serialize(emit_constraints(SourceSpec(2, ((1, 0), (2, 0))))))
    data["payload"]["n_colors"] = 1_000_000
    with pytest.raises(DocumentError, match=r"^\$\.payload\.n_colors: .*cube cap 10, got 1000000"):
        deserialize(json.dumps(data))


def test_trace_decode_rejects_a_move_on_the_start_step() -> None:
    data = _trace_data()
    data["payload"]["steps"][0]["move"] = [0]
    with pytest.raises(DocumentError, match=r"^\$\.payload\.steps\[0\]\.move: expected null"):
        deserialize(json.dumps(data))


def test_constraints_decode_names_the_path_of_a_bad_entry() -> None:
    data = json.loads(serialize(emit_constraints(SourceSpec(2, ((1, 0), (2, 0))))))
    data["payload"]["entries"][1]["subset"] = 1
    with pytest.raises(DocumentError, match=r"^\$\.payload\.entries: subset \{1\} appears twice"):
        deserialize(json.dumps(data))


def test_topology_decode_rejects_an_adinkras_vertex_and_edge_fields() -> None:
    data = json.loads(serialize(base_adinkra(cube_topology(2))))
    data["kind"] = "topology"
    with pytest.raises(DocumentError, match=r"^\$\.payload\.vertices\[0\]: unexpected key 'height'"):
        deserialize(json.dumps(data))
    for v in data["payload"]["vertices"]:
        del v["height"]
    with pytest.raises(DocumentError, match=r"^\$\.payload\.edges\[0\]: unexpected key 'parity'"):
        deserialize(json.dumps(data))


@pytest.mark.parametrize("obj", sample_objects()[:5], ids=lambda o: type(o).__name__)
def test_each_kind_rejects_a_payload_key_it_does_not_define(obj) -> None:
    data = json.loads(serialize(obj))
    data["payload"]["extra"] = 0
    with pytest.raises(DocumentError, match=r"^\$\.payload: unexpected key 'extra'$"):
        deserialize(json.dumps(data))


def test_constraints_decode_rejects_an_entry_key_it_does_not_define() -> None:
    data = json.loads(serialize(emit_constraints(SourceSpec(2, ((1, 0), (2, 0))))))
    data["payload"]["entries"][1]["kind"] = "scalar"
    with pytest.raises(DocumentError, match=r"^\$\.payload\.entries\[1\]: unexpected key 'kind'$"):
        deserialize(json.dumps(data))


def test_family_decode_rejects_a_move_key_it_does_not_define() -> None:
    data = json.loads(serialize(enumerate_family(cube_topology(2))))
    data["payload"]["moves"][2]["extra"] = None
    with pytest.raises(DocumentError, match=r"^\$\.payload\.moves\[2\]: unexpected key 'extra'$"):
        deserialize(json.dumps(data))


def test_a_constraints_document_cut_short_is_refused_before_projecting(monkeypatch) -> None:
    # emit_constraints on this battery takes seconds; the count alone refuses it
    text = serialize(ConstraintSystem(SourceSpec(8, ((0, 0), (255, 0))), SCALAR, ()))

    def never(*args):
        raise AssertionError("the battery was built")

    monkeypatch.setattr("adinkra.constraints.emit_constraints", never)
    start = time.perf_counter()
    with pytest.raises(DocumentError, match=r"^\$\.payload\.equations: expected 256 entries, got 0$"):
        deserialize(text)
    assert time.perf_counter() - start < 0.5


_CUBE_MEMBERS = [m for name, members in _FAMILY_MEMBERS.items() if name != "quotient" for m in members]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_CUBE_MEMBERS))
def test_the_constraints_of_any_cube_member_round_trip(member) -> None:
    ident = identify(member)
    text = serialize(emit_constraints(ident.spec, ident.kind))
    assert serialize(deserialize(text)) == text


_REFERENCE_TOPOLOGIES = [f"{kind}{n}" for n in (1, 2, 3, 4, 8, 10) for kind in (SCALAR, SPINOR)] + ["quotient4"]


def _reference_objects(name: str) -> list:
    """Every kind of graph document on the topology name: the topology, Adinkras, a family and a trace."""
    if name == "quotient4":
        t = antipodal_quotient()
        adinkras = [base_adinkra(t)]
    else:
        t = cube_topology(int(name[6:]), name[:6])
        counting = Adinkra.from_maps(t, {v: hgt0(v) for v in t.vertex_ids}, standard_parity(t))
        adinkras = [base_adinkra(t), counting]
    base = adinkras[0]
    if len(t.vertex_ids) <= 16:
        return [t, *adinkras, enumerate_family(t), main_sequence(base)]
    # the whole family and trace of a large cube are out of reach; one member and the start step carry their graph
    start = SequenceStep(base, None, tuple((v, 0) for v in t.vertex_ids), None, None)
    return [t, *adinkras, FamilyGraph(t, {base.heights: base}, ()), SequenceTrace((start,), None)]


@pytest.mark.parametrize("name", _REFERENCE_TOPOLOGIES)
def test_every_graph_document_is_the_reference_encoders(name: str) -> None:
    for obj in _reference_objects(name):
        assert serialize(obj) == json.dumps(reference_document(obj), indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_any_adinkra_is_written_as_the_reference_encoder_writes_it(data) -> None:
    member = data.draw(st.sampled_from(_FAMILY_MEMBERS[data.draw(st.sampled_from(sorted(_FAMILY_MEMBERS)))]))
    t = member.topology
    # flipping every edge at a vertex keeps each square's parity sum odd, as a square meets a vertex in 0 or 2 edges
    flipped = data.draw(st.sets(st.sampled_from(t.vertex_ids)))
    parity = tuple(p ^ ((u in flipped) != (v in flipped)) for (u, v, _), p in zip(t.edges, member.parity))
    a = Adinkra(t, member.heights, parity)
    text = serialize(a)
    assert text == json.dumps(reference_document(a), indent=2) + "\n"
    assert deserialize(text).payload == a


# tracemalloc peaks in bytes of the codec on the largest cube Adinkra, measured with Python 3.11.7:
# deserialize once the odd-square check read a flat square table instead of walking, tupling and
# sorting every square (5.6-6.1 MB before), export_dot while topologies and Adinkras had separate
# encoders and decoders, serialize once each vertex and edge was written from one template (3,151,737
# while each was a dict for the writer to walk); the bound is 1.25x
CODEC_PEAKS = {"deserialize": 4_374_104, "serialize": 1_844_018, "export_dot": 1_382_221}


@pytest.mark.parametrize("step", sorted(CODEC_PEAKS))
def test_the_codec_on_the_largest_cube_stays_within_its_memory(step: str) -> None:
    t = cube_topology(MAX_CUBE_COLORS)
    a = base_adinkra(t, standard_parity(t))
    text = serialize(a)
    call, arg = {"deserialize": (deserialize, text), "serialize": (serialize, a), "export_dot": (export_dot, a)}[step]
    tracemalloc.start()
    try:
        call(arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= CODEC_PEAKS[step] * 5 // 4


# tracemalloc peaks in bytes of the codec on the N=4 family document, measured with Python 3.11.7 once
# the encoder wrote each key once per indent and joined the document once, and the decoder interned
# its moves' heights (12,601,455 and 9,993,548 before); the bound is 1.25x
FAMILY_CODEC_PEAKS = {"deserialize": 6_581_290, "serialize": 8_789_512}


@pytest.mark.parametrize("step", sorted(FAMILY_CODEC_PEAKS))
def test_the_codec_on_the_n4_family_stays_within_its_memory(step: str) -> None:
    family = enumerate_family(cube_topology(4))
    text = serialize(family)
    call, arg = (deserialize, text) if step == "deserialize" else (serialize, family)
    tracemalloc.start()
    try:
        call(arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= FAMILY_CODEC_PEAKS[step] * 5 // 4


# tracemalloc peak in bytes of deserialize on the N=3 main sequence trace (81 steps, 59 kB), measured
# with Python 3.11.7 once each step was compared as the walk yields it (227,270 while the whole expected
# step list was rebuilt and compared by repr; on the N=4 trace, 4.56 MB, 20.8 MB against 12.4 MB, but
# tracing that decode takes seconds); the bound is 1.25x
TRACE_DECODE_PEAK = 124_835


def test_the_trace_decoder_stays_within_its_memory() -> None:
    text = serialize(main_sequence(base_adinkra(cube_topology(3))))
    tracemalloc.start()
    try:
        deserialize(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= TRACE_DECODE_PEAK * 5 // 4


# tracemalloc peak in bytes of serialize on the N=4 main sequence trace (3,649 steps, 4.56 MB), measured
# with Python 3.11.7 once each step was written once at its indent (15,883,453 while the steps were
# joined into one value and then into the document); the bound is 1.25x
TRACE_ENCODE_PEAK = 9_442_596


def test_the_trace_encoder_stays_within_its_memory() -> None:
    trace = main_sequence(base_adinkra(cube_topology(4)))
    tracemalloc.start()
    try:
        serialize(trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= TRACE_ENCODE_PEAK * 5 // 4


def test_topology_decode_refuses_a_huge_color_count_at_once() -> None:
    data = json.loads(serialize(cube_topology(2)))
    data["payload"]["n_colors"] = 10**18
    with pytest.raises(DocumentError, match=r"^\$\.payload: invalid topology: .* some vertex misses a color"):
        deserialize(json.dumps(data))


# ---------------------------------------------------------------------------
# the indented writer and one-field mutations


_JSON_LEAVES = (
    st.integers()
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
_JSON_KEYS = st.text(max_size=6) | st.integers() | st.floats() | st.booleans() | st.none()
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5)
    | st.dictionaries(_JSON_KEYS, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES, st.sampled_from(("", "    ")))
def test_indented_writer_equals_json_dumps(tree, pad: str) -> None:
    # json.dumps escapes every newline inside a string, so each one it writes starts a line
    assert _indented_json(tree, pad) == json.dumps(tree, indent=2).replace("\n", "\n" + pad)


@pytest.mark.parametrize("pad", ["", "    "])
def test_written_items_are_spliced_at_their_indent(pad: str) -> None:
    items = [[1, 2], {"k": None, "l": []}, "x"]

    def written(at: str) -> _Written:
        return _Written([_indented_json(x, at) for x in items])

    # in a dict, in a dict in an ordinary list, and empty
    tree = {"a": written(pad + "    "), "b": [{"c": written(pad + "        ")}], "d": _Written([])}
    expected = {"a": items, "b": [{"c": items}], "d": []}
    assert _indented_json(tree, pad) == json.dumps(expected, indent=2).replace("\n", "\n" + pad)


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"x", 1j, {(1, 2): 0}])
def test_indented_writer_rejects_what_json_rejects(bad) -> None:
    for tree in (bad, [1, bad], {"a": [bad]}):
        with pytest.raises(TypeError):
            json.dumps(tree, indent=2)
        with pytest.raises(TypeError):
            _indented_json(tree)


def _mutation_documents() -> list[str]:
    docs = []
    for n in (1, 2):
        t = cube_topology(n)
        docs += [serialize(t), serialize(base_adinkra(t)), serialize(enumerate_family(t))]
        docs.append(serialize(main_sequence(base_adinkra(t))))
    docs.append(serialize(base_adinkra(cube_topology(2, SPINOR))))
    docs.append(serialize(emit_constraints(SourceSpec(1, ((1, 1),)))))
    docs.append(serialize(emit_constraints(SourceSpec(2, ((1, 0), (2, 0))))))
    docs.append(serialize(emit_constraints(SourceSpec(2, ((0, 1), (3, 0))), SPINOR)))
    # the degenerate graphs: no vertex at all, and two vertices joined by every color
    empty = Topology.build(2, {}, [])
    docs += [serialize(empty), serialize(base_adinkra(empty))]
    docs.append(serialize(base_adinkra(Topology.build(3, {0: BOSON, 1: FERMION}, [(0, 1, c) for c in (1, 2, 3)]))))
    return docs


_MUTATION_DOCUMENTS = _mutation_documents()


def _scalars(node, path=()):
    """(path, value) of every non-null scalar in a JSON tree."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _scalars(val, path + (key,))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _scalars(val, path + (i,))
    elif node is not None:
        yield path, node


# the strings the documents use, so that a swap can land on a meaningful value
_VOCABULARY = sorted(
    {s for text in _MUTATION_DOCUMENTS for _, s in _scalars(json.loads(text)) if isinstance(s, str)}
    | {"topology", "adinkra", "family", "trace", "constraints", "raise", "lower", "-1", "+i", "-i"}
)


def _same_json_type(value):
    if isinstance(value, bool):
        return st.just(not value)
    if isinstance(value, int):
        return (st.integers() | st.integers(-3, 20)).filter(lambda x: x != value)
    return (st.text() | st.sampled_from(_VOCABULARY)).filter(lambda x: x != value)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_one_mutated_scalar_is_rejected_with_its_path_or_round_trips(data) -> None:
    tree = json.loads(data.draw(st.sampled_from(_MUTATION_DOCUMENTS)))
    path, value = data.draw(st.sampled_from(list(_scalars(tree))))
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(_same_json_type(value))
    text = json.dumps(tree, indent=2) + "\n"
    try:
        doc = deserialize(text)
    except DocumentError as exc:
        assert str(exc).startswith("$."), str(exc)
    else:
        assert serialize(doc) == text


def _replaced(text: str, path: tuple, value) -> str:
    tree = json.loads(text)
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(tree, indent=2) + "\n"


@pytest.mark.parametrize("text", _MUTATION_DOCUMENTS, ids=lambda text: json.loads(text)["kind"])
def test_every_int_written_as_a_float_is_rejected_with_its_path(text) -> None:
    ints = [(path, value) for path, value in _scalars(json.loads(text)) if type(value) is int]
    assert ints
    for path, value in ints:
        with pytest.raises(DocumentError, match=r"^\$\."):
            deserialize(_replaced(text, path, float(value)))


@pytest.mark.parametrize("obj", [enumerate_family(cube_topology(1)), main_sequence(base_adinkra(cube_topology(1)))], ids=["family", "trace"])
def test_a_shared_parity_entry_written_as_a_float_is_rejected(obj) -> None:
    with pytest.raises(DocumentError, match=r"^\$\.payload\.parity\[0\]: expected 0 or 1, got 0\.0$"):
        deserialize(_replaced(serialize(obj), ("payload", "parity", 0), 0.0))
