"""End-to-end checks of the command line interface, run in process and, for start-up, in real processes."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adinkra
from adinkra import constraints, superspace
from adinkra.cli import main
from adinkra.constraints import MAX_BATTERY_TERMS, ConstraintSystem, SourceSpec, emit_constraints
from adinkra.core import BOSON, FERMION, MAX_PARITY_SQUARES, Adinkra, Topology
from adinkra.cube import MAX_CUBE_COLORS, code_quotient, cube_topology
from adinkra.document import deserialize, serialize
from adinkra.mutation import base_adinkra, main_sequence
from adinkra.superspace import RuleSet, RuleTerm, transformation_rules

from test_core import split_k22
from test_document import _MUTATION_DOCUMENTS, _same_json_type, _scalars


@pytest.fixture
def run(monkeypatch, capsys):
    def invoke(argv: list[str], stdin: str = ""):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_cube_emits_an_adinkra_document(run) -> None:
    code, out, err = run(["cube", "2"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["kind"] == "adinkra"
    assert len(doc["payload"]["vertices"]) == 4


def test_cube_above_the_cap_fails(run) -> None:
    code, out, err = run(["cube", str(MAX_CUBE_COLORS + 1)])
    assert code == 1 and out == ""
    assert "cap" in json.loads(err)["error"]


# sha256 of the stdout of each cube-building command, taken before the cube and the
# antipodal quotient were built by one code-quotient builder
CUBE_OUTPUT_SHA256 = {
    "cube 1": "5d2c57ecc91a1dfa5b8981f7d440fa88f442c2478ad3108a783f9c9aff0f9dd7",
    "cube 1 --kind spinor": "209a863287e46c399a42ec3d5e6d8c98e9b564a02e0f64cee75cc0517ae0e35a",
    "cube 2": "b565b9b4c27bc4e195076d2203f3df222482f2cf698b043a9c52236dd65d96ea",
    "cube 2 --kind spinor": "50a8ca293540ac073f28cec77863daf32621c82e56ee4957cf587356c2e721db",
    "cube 3": "25dfab1db66cbaad0c4e1f68d8476d1dee040cae2bc4ae41576b9d42bec489ca",
    "cube 3 --kind spinor": "fb350bc72bcf40cb14f6a78947fe07c640dcbc90650ef44c92601db69bd9e8c8",
    "cube 4": "7313b7116a90a3dab16884750f6ffb3a34e8b7ebde613acd124435a16d1c9b46",
    "cube 4 --kind spinor": "9ae39a01c7d6502a544d6b8d144d49b4d97d334b0565300261f93e9e481ceb4b",
    "cube 5": "30487711e82a1402665605c7bd49f48a75f06bb8608730db81586138efd48da3",
    "cube 5 --kind spinor": "32cdc13d84b4983a3d40e4468ba703962ef0cbbd08c4b3412185d5aa644a0faf",
    "cube 6": "9f0a725e61ceafcb4f27b6c00fc0a67b96bf440b75de8a9e5003c75f5adf8338",
    "cube 6 --kind spinor": "424208034bbfc9e2933da730919e872b408cdab63fe1dbbf5f1ad51598b93615",
    "cube 7": "b70f748019fb9db546359892e4dc4c5c431a0ad10f316ee5bf8276d102db4850",
    "cube 7 --kind spinor": "3cef705c3cff5e2d6f0aa6975c7d0ac3c85b5e38b560223bdb44a66fa886e73e",
    "cube 8": "7e65cf1c6fcd1991524c6996124eb0d0dbe1fcb3533ad3bd6c5b90f81b9e357e",
    "cube 8 --kind spinor": "f203079da0e4e416a0f314c95464f6cbd354573d4b595576e2650bff1ecd66a1",
    "cube 9": "e04269e0c6777baa20c7ee85ec5811e12fa4e732e59a44fadd6c62a9155bf56d",
    "cube 9 --kind spinor": "689bc0025058e25b23b5e88884410fd7f44fb4d638b75962ac74fdb19a8f998c",
    "cube 10": "ff57e5193093b3e5adf733a4e9993a5f7c73d3e064c252266180a4d2fed90f7b",
    "cube 10 --kind spinor": "a4244e09ad70e4513e16bca1f405ac2509ef2cbd55620ec18ce8447f954c95c1",
    "quotient4": "de5cd8beb04d4395ef25b2c78f484a6a9f90a3d33bc6b4ce17c5ce4818b127a2",
}


@pytest.mark.parametrize("command", list(CUBE_OUTPUT_SHA256))
def test_cube_output_is_byte_identical(run, command: str) -> None:
    code, out, err = run(command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CUBE_OUTPUT_SHA256[command]


def test_cube_spinor_flag(run) -> None:
    _, out, _ = run(["cube", "1", "--kind", "spinor"])
    vertices = json.loads(out)["payload"]["vertices"]
    stats = {v["id"]: v["statistics"] for v in vertices}
    assert stats == {0: "fermion", 1: "boson"}


def test_validate_reports_ok(run) -> None:
    _, cube, _ = run(["cube", "2"])
    code, out, _ = run(["validate"], stdin=cube)
    assert code == 0
    assert json.loads(out) == {"ok": True, "kind": "adinkra"}


def test_validate_answers_at_once_on_two_vertices_joined_by_2000_colors(run) -> None:
    t = Topology.build(2000, {0: BOSON, 1: FERMION}, [(0, 1, c) for c in range(1, 2001)])
    text = serialize(Adinkra._trusted(t, (0, 1), (0,) * 2000))
    start = time.perf_counter()
    code, out, _ = run(["validate"], stdin=text)
    elapsed = time.perf_counter() - start
    assert (code, json.loads(out)) == (0, {"ok": True, "kind": "adinkra"})
    assert elapsed < 0.2


def test_validate_reports_bad_json_as_violation(run) -> None:
    code, out, _ = run(["validate"], stdin="{nope")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert "not valid JSON" in report["violations"][0]


def test_raise_then_lower_is_identity(run) -> None:
    _, cube, _ = run(["cube", "2"])
    _, raised, _ = run(["raise", "0"], stdin=cube)
    _, back, _ = run(["lower", "0"], stdin=raised)
    assert back == cube


def test_raise_failure_reports_on_stderr(run) -> None:
    _, cube, _ = run(["cube", "2"])
    code, out, err = run(["raise", "1"], stdin=cube)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["type"] == "AdinkraError"
    assert "cannot raise 1" in payload["error"]


_ADINKRA_ONLY = [["dims"], ["identify"], ["raise", "0"], ["lower", "0"], ["main-seq"], ["verify-susy"], ["constraints"]]


@pytest.mark.parametrize(
    "argv, kinds",
    [(argv, "an adinkra") for argv in _ADINKRA_ONLY] + [(["verify-constraints"], "a constraints or adinkra")],
)
def test_a_command_refuses_a_topology_document_naming_the_kinds_it_reads(run, argv: list[str], kinds: str) -> None:
    code, out, err = run(argv, stdin=serialize(cube_topology(2)))
    assert (code, out) == (1, "")
    assert err == f'{{"error": "expected {kinds} document, got topology", "type": "AdinkraError"}}\n'


# each malformed flag is refused with one error line, after any document is read
@pytest.mark.parametrize(
    "argv, error",
    [
        (["hang", "--mode", "targets", "--hook", "0"], "hook '0' is not of the form VERTEX=HEIGHT"),
        (["hang", "--mode", "targets", "--hook", "a=1"], "hook 'a=1' is not of the form VERTEX=HEIGHT"),
        (["main-seq", "--orbits", "0;x"], "orbits '0;x' are not of the form V,V,...;V,...;..."),
        (["constraints", "--entry", "1"], "--entry needs -n to fix the color count"),
        (["constraints", "-n", "2", "--entry", "1:x"], "entry '1:x' is not of the form SUBSET[:SHIFT]"),
    ],
    ids=["hook-without-height", "hook-vertex-not-int", "orbit-not-int", "entry-without-n", "entry-shift-not-int"],
)
def test_a_malformed_flag_is_refused_naming_it(run, argv: list[str], error: str) -> None:
    code, out, err = run(argv, stdin=serialize(base_adinkra(cube_topology(2))))
    assert (code, out) == (1, "")
    assert err == json.dumps({"error": error, "type": "AdinkraError"}) + "\n"


def test_hang_pipeline(run) -> None:
    _, cube, _ = run(["cube", "2"])
    _, hung, _ = run(
        ["hang", "--mode", "targets", "--hook", "0=2", "--hook", "3=2"],
        stdin=cube,
    )
    heights = {
        v["id"]: v["height"] for v in json.loads(hung)["payload"]["vertices"]
    }
    assert heights == {0: 2, 1: 1, 2: 1, 3: 2}


def test_hang_reports_bad_hooks_as_violations(run) -> None:
    _, cube, _ = run(["cube", "2"])
    code, out, _ = run(
        ["hang", "--mode", "targets", "--hook", "0=2", "--hook", "3=1"],
        stdin=cube,
    )
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert "parity" in report["violations"][0]


def test_a_vertex_hooked_twice_is_refused(run) -> None:
    _, cube, _ = run(["cube", "2"])
    code, out, err = run(["hang", "--mode", "targets", "--hook", "0=2", "--hook", "0=4"], stdin=cube)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "vertex 0 is hooked twice", "type": "AdinkraError"}


def test_family_counts_members(run) -> None:
    _, cube, _ = run(["cube", "2"])
    code, out, _ = run(["family"], stdin=cube)
    assert code == 0
    assert len(json.loads(out)["payload"]["members"]) == 6


def test_main_seq_with_orbits(run) -> None:
    _, cube, _ = run(["cube", "3"])
    _, valise, _ = run(
        ["hang", "--mode", "sources"]
        + [arg for v in (0, 3, 5, 6) for arg in ("--hook", f"{v}=0")],
        stdin=cube,
    )
    code, out, _ = run(["main-seq", "--orbits", "0;1,2,4;3,5,6;7"], stdin=valise)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["cycle_closure"] == 10
    assert payload["steps"][1]["move"] == [0]


def test_identify_reports_spec_and_moves(run) -> None:
    _, cube, _ = run(["cube", "2"])
    _, hung, _ = run(
        ["hang", "--mode", "targets", "--hook", "0=2", "--hook", "3=2"],
        stdin=cube,
    )
    code, out, _ = run(["identify"], stdin=hung)
    assert code == 0
    found = json.loads(out)
    assert found["kind"] == "scalar"
    assert found["entries"] == [
        {"subset": 1, "shift": 0},
        {"subset": 2, "shift": 0},
    ]
    assert found["moves"] == [0]


def test_constraints_from_flags(run) -> None:
    code, out, _ = run(["constraints", "-n", "2", "--entry", "1", "--entry", "2"])
    assert code == 0
    eqs = json.loads(out)["payload"]["equations"]
    assert len(eqs) == 4
    assert [e["phase"] for e in eqs] == ["+1", "-i", "+i", "-1"]


def test_constraints_entry_accepts_shift(run) -> None:
    code, out, _ = run(["constraints", "-n", "1", "--entry", "0:1"])
    assert code == 0
    entry = json.loads(out)["payload"]["entries"][0]
    assert entry == {"subset": 0, "shift": 1}


def test_constraints_of_an_adinkra_document_are_those_of_its_identified_entries(run) -> None:
    _, cube, _ = run(["cube", "3"])
    _, hung, _ = run(["hang", "--mode", "targets", "--hook", "0=2", "--hook", "7=3"], stdin=cube)
    _, found, _ = run(["identify"], stdin=hung)
    ident = json.loads(found)
    entries = [arg for e in ident["entries"] for arg in ("--entry", f"{e['subset']}:{e['shift']}")]
    code, out, err = run(["constraints"], stdin=hung)
    assert (code, err) == (0, "")
    assert run(["constraints", "-n", str(ident["n_colors"]), *entries, "--kind", ident["kind"]], stdin="") == (0, out, "")


def test_verify_constraints_round_trip(run) -> None:
    _, doc, _ = run(["constraints", "-n", "2", "--entry", "1", "--entry", "2"])
    code, out, _ = run(["verify-constraints"], stdin=doc)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["checked_equations"] == 4
    assert report["rederived_matches_image"] is True


def test_verify_constraints_projects_a_constraints_document_once(run, monkeypatch, tmp_path) -> None:
    # the three single-color entries on three colors
    spec = SourceSpec(3, ((1, 0), (2, 0), (4, 0)))
    path = tmp_path / "triple.json"
    path.write_text(serialize(emit_constraints(spec)), encoding="utf-8")
    walk = superspace._walk
    lengths = []

    def counting(steps, mask):
        lengths.append(len(steps))
        return walk(steps, mask)

    monkeypatch.setattr("adinkra.superspace._walk", counting)
    constraints._word_table.cache_clear()
    code, out, _ = run(["verify-constraints", str(path)])
    assert code == 0 and json.loads(out)["ok"] is True
    # the decoder walks the one term of U that reaches theta = 0 through each entry's word
    # and each of the 2^n words D_w once; verify_presentation reads every projection off the
    # word table of its color count, which it builds row by row on first use, with no walk
    assert len(lengths) == 2**3 * 3 + 2**3
    assert constraints._word_table.cache_info().currsize == 1
    assert max(lengths) <= 3
    # a second document of the same color count is verified with no walk beyond the decoder's
    lengths.clear()
    code, out, _ = run(["verify-constraints", str(path)])
    assert code == 0 and json.loads(out)["ok"] is True
    assert len(lengths) == 2**3 * 3 + 2**3


def test_a_huge_shared_shift_costs_no_more_than_none(run, monkeypatch) -> None:
    # d_tau^l commutes with every D, so a shift shared by every entry leaves each equation as it was
    huge = 10**20
    _, plain, _ = run(["constraints", "-n", "2", "--entry", "1", "--entry", "2"])
    code, shifted, err = run(["constraints", "-n", "2", "--entry", f"1:{huge}", "--entry", f"2:{huge}"])
    assert code == 0 and err == ""
    payload = json.loads(shifted)["payload"]
    assert payload["entries"] == [{"subset": 1, "shift": huge}, {"subset": 2, "shift": huge}]
    assert payload["equations"] == json.loads(plain)["payload"]["equations"]
    walk = superspace._walk
    lengths = []

    def counting(steps, mask):
        lengths.append(len(steps))
        return walk(steps, mask)

    monkeypatch.setattr("adinkra.superspace._walk", counting)
    constraints._word_table.cache_clear()
    code, out, err = run(["verify-constraints"], stdin=shifted)
    assert code == 0 and err == "" and json.loads(out)["ok"] is True
    # each walk steps through one descending word of D atoms alone, never through the shift
    assert len(lengths) == 2**2 * 2 + 2**2 and max(lengths) <= 2


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("component", 99, "component: expected 0, got 99"),
        ("alpha", 7, "alpha: expected 1, got 7"),
        ("phase", "-1", 'phase: expected "+1", got "-1"'),
    ],
    ids=["component", "alpha", "phase"],
)
def test_verify_constraints_rejects_a_tampered_equation(run, field, value, error) -> None:
    _, text, _ = run(["constraints", "-n", "2", "--entry", "1", "--entry", "2"])
    doc = json.loads(text)
    doc["payload"]["equations"][0][field] = value
    code, out, err = run(["verify-constraints"], stdin=json.dumps(doc))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == f"$.payload.equations[0].{error}"


@pytest.mark.parametrize(
    "tamper, error",
    [
        (lambda eqs: eqs.pop(), "equations: expected 4 entries, got 3"),
        (lambda eqs: eqs.append(dict(eqs[1])), "equations: expected 4 entries, got 5"),
        (lambda eqs: eqs.clear(), "equations: expected 4 entries, got 0"),
        (lambda eqs: eqs[0].update(gap=1), "equations[0].gap: expected 0, got 1"),
        (lambda eqs: eqs[1].update(phase="+i"), 'equations[1].phase: expected "-i", got "+i"'),
        (lambda eqs: eqs[2].update(redundant=False), "equations[2].redundant: expected true, got false"),
        (lambda eqs: eqs[3].update(alpha=0, beta=1), "equations[3].alpha: expected 1, got 0"),
    ],
    ids=["dropped", "duplicated", "emptied", "gap", "phase", "redundant", "swapped"],
)
def test_validate_and_verify_constraints_refuse_a_tampered_system(run, tamper, error) -> None:
    _, text, _ = run(["constraints", "-n", "2", "--entry", "1", "--entry", "2"])
    doc = json.loads(text)
    tamper(doc["payload"]["equations"])
    code, out, _ = run(["validate"], stdin=json.dumps(doc))
    assert code == 1 and json.loads(out) == {"ok": False, "violations": [f"$.payload.{error}"]}
    code, out, err = run(["verify-constraints"], stdin=json.dumps(doc))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == f"$.payload.{error}"


@pytest.mark.parametrize(
    "spec, terms",
    [
        (SourceSpec(10, ((0, 0),)), 1_048_576),
        (SourceSpec(6, tuple((s, 0) for s in range(64) if bin(s).count("1") == 2)), 491_520),
    ],
    ids=["n10-one-entry", "n6-pairs"],
)
def test_validate_refuses_a_battery_over_the_term_cap_at_the_payload(run, spec, terms) -> None:
    # as many equations as the battery has, so only the recompute can refuse it
    m = len(spec.entries)
    equation = {"component": 0, "alpha": 1, "beta": 0, "gap": 0, "phase": "+1", "redundant": False}
    doc = json.loads(serialize(ConstraintSystem(spec, "scalar", ())))
    doc["payload"]["equations"] = [equation] * (2**spec.n_colors * m * (m - 1) // 2)
    start = time.perf_counter()
    code, out, _ = run(["validate"], stdin=json.dumps(doc))
    assert time.perf_counter() - start < 2
    assert code == 1
    assert json.loads(out)["violations"] == [
        f"$.payload: the battery would hold {terms} superfield terms, over the cap of {MAX_BATTERY_TERMS}"
    ]


@pytest.mark.parametrize("field, value", [("component", 99), ("gap", -3)])
def test_validate_rejects_an_out_of_range_equation(run, field, value) -> None:
    _, text, _ = run(["constraints", "-n", "2", "--entry", "1", "--entry", "2"])
    doc = json.loads(text)
    doc["payload"]["equations"][0][field] = value
    code, out, _ = run(["validate"], stdin=json.dumps(doc))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["violations"][0].startswith(f"$.payload.equations[0].{field}: expected")


_NOT_EXTREME = (
    "spec entries not mutually extreme: entries {} and {1}: height gap 3 reaches distance 1;"
    " entries {} and {2}: height gap 3 reaches distance 1"
)


def test_constraints_and_verify_constraints_refuse_a_battery_that_is_not_mutually_extreme(run) -> None:
    for command in ("constraints", "verify-constraints"):
        code, out, err = run([command, "-n", "2", "--entry", "0:2", "--entry", "1", "--entry", "2"])
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == _NOT_EXTREME


def test_validate_refuses_a_battery_that_is_not_mutually_extreme_at_the_payload(run) -> None:
    # as many equations as the battery has, so only the recompute can refuse it
    spec = SourceSpec(2, ((0, 2), (1, 0), (2, 0)))
    equation = {"component": 0, "alpha": 1, "beta": 0, "gap": 0, "phase": "+1", "redundant": False}
    doc = json.loads(serialize(ConstraintSystem(spec, "scalar", ())))
    doc["payload"]["equations"] = [equation] * 12
    code, out, _ = run(["validate"], stdin=json.dumps(doc))
    assert code == 1 and json.loads(out) == {"ok": False, "violations": [f"$.payload: {_NOT_EXTREME}"]}
    code, out, err = run(["verify-constraints"], stdin=json.dumps(doc))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == f"$.payload: {_NOT_EXTREME}"


def test_validate_rejects_an_unknown_envelope_key(run) -> None:
    _, cube, _ = run(["cube", "1"])
    doc = json.loads(cube)
    doc["extra"] = 1
    code, out, _ = run(["validate"], stdin=json.dumps(doc))
    assert code == 1 and json.loads(out) == {"ok": False, "violations": ["$: unexpected key 'extra'"]}


def test_validate_reports_deep_nesting_as_a_violation(run) -> None:
    code, out, _ = run(["validate"], stdin="[" * 100_000 + "]" * 100_000)
    assert code == 1 and json.loads(out) == {"ok": False, "violations": ["$: nested too deeply to decode"]}


# each subcommand that reads an Adinkra document, with the arguments it needs
_ADINKRA_READERS = [
    ["validate"],
    ["verify-susy"],
    ["identify"],
    ["dims"],
    ["raise", "0"],
    ["family"],
    ["export"],
    ["hang", "--mode", "targets", "--hook", "0=2"],
    ["main-seq"],
]


@pytest.mark.parametrize("argv", _ADINKRA_READERS, ids=lambda argv: argv[0])
def test_an_integer_too_long_to_decode_is_a_document_error(run, argv) -> None:
    _, cube, _ = run(["cube", "1"])
    doc = cube.replace('"n_colors": 1', '"n_colors": ' + "1" * 5000, 1)
    code, out, err = run(argv, stdin=doc)
    assert code == 1 and "Traceback" not in out + err
    if argv[0] == "validate":
        assert json.loads(out) == {"ok": False, "violations": ["$: an integer has too many digits to decode"]}
    else:
        assert json.loads(err) == {"error": "$: an integer has too many digits to decode", "type": "DocumentError"}


def test_verify_constraints_from_adinkra_document(run) -> None:
    _, cube, _ = run(["cube", "2"])
    _, hung, _ = run(
        ["hang", "--mode", "targets", "--hook", "0=2", "--hook", "3=2"],
        stdin=cube,
    )
    code, out, _ = run(["verify-constraints"], stdin=hung)
    assert code == 0 and json.loads(out)["ok"] is True


def test_verify_susy(run) -> None:
    _, cube, _ = run(["cube", "3"])
    code, out, _ = run(["verify-susy"], stdin=cube)
    assert code == 0
    assert json.loads(out) == {"ok": True, "violations": []}


def test_grassmann_check_single_and_all(run) -> None:
    code, out, _ = run(["grassmann-check", "doublet2"])
    assert code == 0
    assert json.loads(out)["products"] == {"doublet2": "zero"}
    code, out, _ = run(["grassmann-check"])
    assert code == 0
    assert json.loads(out)["products"] == {
        "doublet2": "zero",
        "quintet3": "zero",
        "triplet3": "zero",
    }


def test_dims_of_hung_square(run) -> None:
    _, cube, _ = run(["cube", "2"])
    _, hung, _ = run(
        ["hang", "--mode", "targets", "--hook", "0=2", "--hook", "3=2"],
        stdin=cube,
    )
    code, out, _ = run(["dims"], stdin=hung)
    assert code == 0
    report = json.loads(out)
    assert report["dimension_vector"] == "(0|2|2)"
    assert report["kernel_orders"] == {"0": 1, "1": 0, "2": 0, "3": 0}


def test_quotient4_has_8_vertices_16_edges(run) -> None:
    code, out, _ = run(["quotient4"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert len(payload["vertices"]) == 8
    assert len(payload["edges"]) == 16


def test_export_names_the_graph(run) -> None:
    _, cube, _ = run(["cube", "2"])
    code, out, _ = run(["export", "--name", "pic"], stdin=cube)
    assert code == 0
    assert out.startswith("digraph pic {")
    assert "rankdir=BT;" in out


def test_file_arguments_are_read(run, tmp_path) -> None:
    _, cube, _ = run(["cube", "2"])
    path = tmp_path / "square.json"
    path.write_text(cube)
    code, out, _ = run(["family", str(path)])
    assert code == 0
    assert len(json.loads(out)["payload"]["members"]) == 6


def test_unknown_command_is_a_usage_error(run) -> None:
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_is_a_usage_error(run) -> None:
    with pytest.raises(SystemExit) as exc:
        run(["hang"])
    assert exc.value.code == 2


def test_validate_rejects_a_family_move_that_does_not_replay(run) -> None:
    _, text, _ = run(["cube", "2"])
    _, fam, _ = run(["family"], stdin=text)
    doc = json.loads(fam)
    move = doc["payload"]["moves"][0]
    move["kind"] = "raise" if move["kind"] == "lower" else "lower"
    move["vertex"] = 0
    code, out, _ = run(["validate"], stdin=json.dumps(doc))
    assert code == 1
    assert json.loads(out)["violations"][0].startswith("$.payload.moves[0]: ")


def test_validate_rejects_a_trace_step_that_does_not_replay(run) -> None:
    _, text, _ = run(["cube", "2"])
    _, trace, _ = run(["main-seq"], stdin=text)
    doc = json.loads(trace)
    doc["payload"]["steps"][1]["move"] = [3]
    code, out, _ = run(["validate"], stdin=json.dumps(doc))
    assert code == 1
    assert json.loads(out)["violations"][0].startswith("$.payload.steps[1].move[0]: expected 0")


def test_validate_rejects_a_move_on_the_start_step(run) -> None:
    _, text, _ = run(["cube", "2"])
    _, trace, _ = run(["main-seq"], stdin=text)
    doc = json.loads(trace)
    doc["payload"]["steps"][0]["move"] = [0]
    code, out, _ = run(["validate"], stdin=json.dumps(doc))
    assert code == 1
    assert json.loads(out)["violations"][0].startswith("$.payload.steps[0].move: ")


@pytest.mark.parametrize(
    "n, orbits, cut",
    [(2, None, 1), (2, None, 2), (2, None, 8), (2, None, 10), (3, [[0], [1, 2, 4], [3, 5, 6], [7]], 3)],
    ids=["start-only", "two-steps", "last-dropped", "last-duplicated", "so3-three-steps"],
)
def test_validate_rejects_a_trace_that_is_not_whole(run, n, orbits, cut) -> None:
    doc = json.loads(serialize(main_sequence(base_adinkra(cube_topology(n)), orbits)))
    steps = doc["payload"]["steps"]
    doc["payload"]["steps"] = (steps + steps[-1:])[:cut]
    code, out, _ = run(["validate"], stdin=json.dumps(doc))
    assert code == 1
    assert json.loads(out)["violations"][0].startswith("$.payload.steps")


@pytest.mark.parametrize("command", [["family"], ["main-seq"]], ids=["family", "main-seq"])
def test_walks_over_the_vertex_cap_fail_before_walking(run, command) -> None:
    _, cube, _ = run(["cube", "5"])
    code, out, err = run(command, stdin=cube)
    assert code == 1 and out == ""
    assert "32 vertices exceed the cap of 16" in json.loads(err)["error"]


def test_constraints_over_the_battery_term_cap_fail_fast(run) -> None:
    triples = [str(s) for s in range(64) if bin(s).count("1") == 3]
    assert len(triples) == 20
    start = time.perf_counter()
    code, out, err = run(["constraints", "-n", "6", *(f"--entry={s}" for s in triples)])
    assert time.perf_counter() - start < 2
    assert code == 1 and out == ""
    assert f"860160 superfield terms, over the cap of {MAX_BATTERY_TERMS}" in json.loads(err)["error"]


def test_hang_on_the_8_cube_is_byte_identical(run) -> None:
    # sha256 of the stdout, taken while the parity was solved by elimination alone
    code, out, err = run(["hang", "--mode", "sources", "--hook=0=0"], stdin=serialize(cube_topology(8)))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == "d9fdfe1a848e665c1ba11d9f87294723d157e2e9df33120fef45e9c30b27df25"


def test_hang_without_a_parity_names_the_certificate(run) -> None:
    topology = serialize(code_quotient(6, (0b111111,)))
    code, out, err = run(["hang", "--mode", "sources", "--hook=0=0"], stdin=topology)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert "the odd-square rules of these 15 squares sum to 0 = 1: " in error
    assert error.count("square on vertices") == 15


def test_hang_refuses_a_topology_of_too_many_squares_at_once() -> None:
    # 160,000 squares on 4 vertices: without the cap the solve took 21 s and 1.7 GB
    env = dict(os.environ, PYTHONPATH=str(Path(adinkra.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "adinkra", "hang", "--mode", "sources", "--hook=0=0"],
        input=serialize(split_k22(800)),
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (1, "")
    error = json.loads(proc.stderr)["error"]
    assert error == f"160000 two-color squares exceed the cap of {MAX_PARITY_SQUARES} on the parity solve"


def test_validate_refuses_an_adinkra_of_too_many_squares_at_once() -> None:
    # 1,000,000 squares on 4 vertices: without the cap the check took 7.6 s and 509 MB
    t = split_k22(2000)
    env = dict(os.environ, PYTHONPATH=str(Path(adinkra.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "adinkra", "validate"],
        input=serialize(Adinkra._trusted(t, t._valise, (0,) * len(t.edges))),
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stderr) == (1, "")
    violation = f"$.payload: 1000000 two-color squares exceed the cap of {MAX_PARITY_SQUARES} on the parity check"
    assert json.loads(proc.stdout) == {"ok": False, "violations": [violation]}


def test_constraints_above_the_cap_fails(run) -> None:
    code, out, err = run(["constraints", "-n", str(MAX_CUBE_COLORS + 1), "--entry", "1"])
    assert code == 1 and out == ""
    assert "cube cap" in json.loads(err)["error"]


def test_verify_susy_reports_the_terms_left(run, monkeypatch) -> None:
    def flipped(adinkra):
        rs = transformation_rules(adinkra)
        rules = dict(rs.rules)
        r = rules[0][0]
        rules[0] = (RuleTerm(-r.phase, r.color, r.source, r.dotted),) + rules[0][1:]
        return RuleSet(rs.adinkra, rs.names, tuple(sorted(rules.items())))

    monkeypatch.setattr("adinkra.superspace.transformation_rules", flipped)
    _, cube, _ = run(["cube", "2"])
    code, out, _ = run(["verify-susy"], stdin=cube)
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["violations"][0] == (
        "closure fails on component phi0 (vertex 0): {Q1,Q1} leaves (0-4i) phi0'; {Q1,Q2} leaves (0+2i) phi3"
    )


def test_export_rejects_a_name_that_is_not_a_dot_identifier(run) -> None:
    _, cube, _ = run(["cube", "2"])
    code, out, err = run(["export", "--name", 'a"b'], stdin=cube)
    assert code == 1 and out == ""
    assert "is not a DOT identifier" in json.loads(err)["error"]


# ---------------------------------------------------------------------------
# hostile documents


# every subcommand that reads a document, with the flags it needs, and what it writes on success
_DOCUMENT_COMMANDS = [
    (["validate"], "report"),
    (["hang", "--mode", "targets", "--hook", "0=2"], "document"),
    (["hang", "--mode", "sources", "--hook", "0=0", "--hook", "3=2"], "document"),
    (["raise", "0"], "document"),
    (["lower", "1"], "document"),
    (["family"], "document"),
    (["main-seq"], "document"),
    (["identify"], "report"),
    (["constraints"], "document"),
    (["verify-constraints"], "report"),
    (["verify-susy"], "report"),
    (["dims"], "report"),
    (["export"], "dot"),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_document_command_answers_a_mutated_document_cleanly(data) -> None:
    tree = json.loads(data.draw(st.sampled_from(_MUTATION_DOCUMENTS)))
    path, value = data.draw(st.sampled_from(list(_scalars(tree))))
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(_same_json_type(value))
    text = json.dumps(tree, indent=2) + "\n"
    for argv, writes in _DOCUMENT_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1), argv
        if err.getvalue():
            assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
            assert set(json.loads(err.getvalue())) == {"error", "type"}, argv
        if code == 0:
            if writes == "document":
                assert serialize(deserialize(out.getvalue())) == out.getvalue(), argv
            elif writes == "report":
                assert isinstance(json.loads(out.getvalue()), dict), argv
            else:
                assert out.getvalue().startswith("digraph adinkra {"), argv


def _empty_adinkra(n_colors: int) -> str:
    payload = {"n_colors": n_colors, "vertices": [], "edges": []}
    return json.dumps({"format": "adinkra-document", "version": 1, "kind": "adinkra", "annotations": {}, "payload": payload})


def test_dims_of_an_empty_adinkra_is_the_empty_vector(run) -> None:
    code, out, err = run(["dims"], stdin=_empty_adinkra(2))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"dimension_vector": "()", "counts": []}


def test_identify_refuses_an_empty_adinkra_on_many_colors(run) -> None:
    code, out, err = run(["identify"], stdin=_empty_adinkra(100))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "identification needs a full color-cube topology", "type": "AdinkraError"}


def test_validate_of_an_empty_adinkra_does_not_walk_its_colors() -> None:
    # the color pairs of 10^6 colors would take hours to walk
    env = dict(os.environ, PYTHONPATH=str(Path(adinkra.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "adinkra", "validate"],
        input=_empty_adinkra(10**6),
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"ok": True, "kind": "adinkra"}


# ---------------------------------------------------------------------------
# modules a process loads


def _loaded_modules(argv: list[str], stdin: str) -> set[str]:
    """The adinkra modules a real `python -m adinkra` process imports, read from -X importtime."""
    env = dict(os.environ, PYTHONPATH=str(Path(adinkra.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "adinkra", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = (line for line in proc.stderr.splitlines() if line.startswith("import time:"))
    names = {line.rsplit("|", 1)[-1].strip() for line in lines}
    return {name for name in names if name.split(".")[0] == "adinkra"}


_HEAVY = {"adinkra.superspace", "adinkra.constraints", "adinkra.mutation", "adinkra.hanging"}


@pytest.mark.parametrize(
    "argv, stdin, needed, unloaded",
    [
        (["cube", "1"], None, {"adinkra.cube"}, _HEAVY),
        (["validate"], "topology", {"adinkra.document"}, _HEAVY),
        (["family"], "adinkra", {"adinkra.mutation"}, {"adinkra.superspace", "adinkra.constraints"}),
        (["verify-susy"], "adinkra", {"adinkra.superspace"}, {"adinkra.constraints"}),
        (["--help"], None, {"adinkra.cli"}, {"adinkra.superspace", "adinkra.constraints"}),
        # reading a battery off the heights needs no theta-expansion
        (["identify"], "adinkra", {"adinkra.constraints", "adinkra.mutation"}, {"adinkra.superspace"}),
        (["dims"], "adinkra", {"adinkra.constraints", "adinkra.mutation"}, {"adinkra.superspace"}),
        # emitting, checking and decoding a battery's system needs no mutation walk
        (["constraints", "-n", "2", "--entry", "1", "--entry", "2"], None, {"adinkra.superspace"}, {"adinkra.mutation"}),
        (["verify-constraints"], "constraints", {"adinkra.superspace"}, {"adinkra.mutation"}),
        (["validate"], "constraints", {"adinkra.constraints"}, {"adinkra.mutation"}),
    ],
    ids=[
        "cube", "validate-topology", "family", "verify-susy", "help",
        "identify", "dims", "constraints", "verify-constraints", "validate-constraints",
    ],
)
def test_a_subcommand_loads_only_the_modules_it_uses(argv, stdin, needed, unloaded) -> None:
    square = cube_topology(2)
    inputs = {
        None: "",
        "topology": serialize(square),
        "adinkra": serialize(base_adinkra(square)),
        "constraints": serialize(emit_constraints(SourceSpec(2, ((1, 0), (2, 0))))),
    }
    loaded = _loaded_modules(argv, inputs[stdin])
    assert needed <= loaded
    assert not loaded & unloaded, sorted(loaded & unloaded)
